package node

import (
	"time"

	"thunderbolt/internal/gateway"
	"thunderbolt/internal/types"
)

// Client gateway: the node side of the sessioned submission protocol
// (internal/gateway). A remote client submits with MsgTxSubmit and is
// always answered — accepted, already-resolved (the duplicate answer
// references the original resolution), or nacked with a re-route
// hint. Commits and drops are pushed back as MsgTxCommitted and
// MsgTxNack, which closes the ROADMAP gap where negative-acks reached
// only in-process callers through Config.OnRejectTx.

// clientSub records which wire client is waiting on a pending
// transaction, so commit and reject notifications can be pushed.
// Event-loop owned; entries are dropped on commit, rejection, or TTL
// expiry (the client's own retransmission re-registers interest).
type clientSub struct {
	from types.ReplicaID
	at   time.Time
}

// clientSubTTL bounds how long a wire submitter registration outlives
// its transaction's last sighting. Comfortably above the client's
// retransmit cadence so a live waiter is never dropped between
// retransmissions.
const clientSubTTL = 30 * time.Second

// handleTxSubmit answers one submission; one without a (client, nonce)
// session is nacked with NackNoSession. Admission consults
// (but never mutates) the dedup state: dedup evolves only on the
// deterministic commit path, while admission is a per-replica race.
func (n *Node) handleTxSubmit(from types.ReplicaID, tx *types.Transaction) {
	id := tx.ID()
	if !gateway.Sessioned(tx) {
		n.sendNack(from, &gateway.Nack{
			TxID: id, Client: tx.Client, Nonce: tx.Nonce,
			Reason: gateway.NackNoSession, Epoch: n.epoch, Proposer: n.cfg.ID,
		})
		return
	}
	switch n.dedup.Admit(tx) {
	case gateway.AdmitResolved:
		// Duplicate of a resolved transaction: ack referencing the
		// original resolution, never re-enqueue.
		n.sendAck(from, &gateway.Ack{
			TxID: id, Client: tx.Client, Nonce: tx.Nonce,
			Status: gateway.AckResolved, Epoch: n.epoch, Proposer: n.cfg.ID,
		})
		return
	case gateway.AdmitFuture:
		// More than a window ahead of the client's floor: admitting it
		// would let one client grow server state past the bound.
		n.sendNack(from, &gateway.Nack{
			TxID: id, Client: tx.Client, Nonce: tx.Nonce,
			Reason: gateway.NackOutOfWindow, Epoch: n.epoch, Proposer: n.cfg.ID,
		})
		return
	}
	// Routing: single-shard transactions belong to the proposer
	// serving their shard this epoch; anything else is answered with
	// the replica that does serve it. Cross-shard transactions enter
	// the DAG through any live proposer.
	if !tx.IsCross() && (len(tx.Shards) != 1 || tx.Shards[0] != n.myShard()) {
		shard := types.ShardID(0)
		if len(tx.Shards) > 0 {
			shard = tx.Shards[0]
		}
		n.sendNack(from, &gateway.Nack{
			TxID: id, Client: tx.Client, Nonce: tx.Nonce,
			Reason: gateway.NackMisroute, Epoch: n.epoch,
			Proposer: ProposerOfShard(shard, n.epoch, n.n),
		})
		return
	}
	n.txClients[id] = clientSub{from: from, at: time.Now()}
	n.enqueueTx(tx)
	n.sendAck(from, &gateway.Ack{
		TxID: id, Client: tx.Client, Nonce: tx.Nonce,
		Status: gateway.AckAccepted, Epoch: n.epoch, Proposer: n.cfg.ID,
	})
}

func (n *Node) sendAck(to types.ReplicaID, a *gateway.Ack) {
	n.sendNow(to, gateway.MsgTxAck, a.Marshal())
}

func (n *Node) sendNack(to types.ReplicaID, nk *gateway.Nack) {
	n.sendNow(to, gateway.MsgTxNack, nk.Marshal())
}

// notifyCommitted pushes MsgTxCommitted to the wire client waiting on
// tx, if any. Called from markCommitted on the event loop.
func (n *Node) notifyCommitted(tx *types.Transaction) {
	id := tx.ID()
	sub, ok := n.txClients[id]
	if !ok {
		return
	}
	delete(n.txClients, id)
	n.sendNow(sub.from, gateway.MsgTxCommitted, (&gateway.Committed{
		TxID: id, Client: tx.Client, Nonce: tx.Nonce, Epoch: n.epoch,
	}).Marshal())
}

// nackPending pushes MsgTxNack for a transaction this proposer is
// permanently dropping (misroute after a rotation, or unclaimed at a
// reconfiguration), with the shard's current owner as the re-route
// hint — the wire twin of Config.OnRejectTx.
func (n *Node) nackPending(tx *types.Transaction, reason gateway.NackReason) {
	id := tx.ID()
	sub, ok := n.txClients[id]
	if !ok {
		return
	}
	delete(n.txClients, id)
	shard := types.ShardID(0)
	if len(tx.Shards) > 0 {
		shard = tx.Shards[0]
	}
	n.sendNow(sub.from, gateway.MsgTxNack, (&gateway.Nack{
		TxID: id, Client: tx.Client, Nonce: tx.Nonce,
		Reason: reason, Epoch: n.epoch,
		Proposer: ProposerOfShard(shard, n.epoch, n.n),
	}).Marshal())
}

// reject gives up on a claimed transaction: a wire nack for a gateway
// submitter and the Config.OnRejectTx callback for in-process clients,
// so either re-routes at once instead of waiting for its retry timer.
func (n *Node) reject(tx *types.Transaction, reason gateway.NackReason) {
	n.nackPending(tx, reason)
	if n.cfg.OnRejectTx != nil {
		n.cfg.OnRejectTx(tx)
	}
}

// purgeClientSubs drops stale wire-submitter registrations (clients
// that stopped retransmitting). Called from housekeeping.
func (n *Node) purgeClientSubs() {
	for id, sub := range n.txClients {
		if time.Since(sub.at) >= clientSubTTL {
			delete(n.txClients, id)
		}
	}
}
