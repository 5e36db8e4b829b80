package gateway

import (
	"thunderbolt/internal/transport"
	"thunderbolt/internal/types"
)

// Client-protocol message types. They live in a range disjoint from
// the replica-to-replica protocol (node's MsgBlock..MsgBatch) so a
// gateway frame can never be mistaken for consensus traffic. The
// transport treats types opaquely; replicas handle MsgTxSubmit and
// emit the other three.
const (
	// MsgTxSubmit carries one client transaction (types.Transaction
	// wire form) to a shard proposer. Unlike the fire-and-forget
	// legacy MsgTx, every submit is answered: MsgTxAck, MsgTxNack, or
	// (for a duplicate of a resolved transaction) an ack referencing
	// the original resolution.
	MsgTxSubmit transport.MsgType = 0x20 + iota
	// MsgTxAck acknowledges a submit: accepted into the proposer's
	// queue, or recognized as already resolved.
	MsgTxAck
	// MsgTxNack rejects a submit with a reason and a re-route hint —
	// the wire form of the proposer-side negative-ack that previously
	// reached only in-process callers via Config.OnRejectTx.
	MsgTxNack
	// MsgTxCommitted notifies the submitting client that its
	// transaction committed.
	MsgTxCommitted
)

// AckStatus says what an ack means.
type AckStatus uint8

const (
	// AckAccepted: the transaction entered the proposer's queue.
	AckAccepted AckStatus = iota + 1
	// AckResolved: the transaction was already resolved (committed or
	// deterministically failed) — the duplicate-resubmit answer. The
	// ack's TxID references the resolved transaction; the client
	// treats it as terminal.
	AckResolved
)

// NackReason says why a submit was rejected.
type NackReason uint8

const (
	// NackMisroute: this replica does not serve the transaction's
	// shard in the current epoch; Proposer carries the replica that
	// does. The client re-routes immediately.
	NackMisroute NackReason = iota + 1
	// NackOutOfWindow: the session nonce is more than a dedup window
	// ahead of the client's applied floor. The client backs off and
	// resubmits after earlier nonces resolve.
	NackOutOfWindow
	// NackEpochEnded: the transaction was dropped with a dying epoch
	// at a reconfiguration; Proposer carries the shard's new owner.
	NackEpochEnded
	// NackNoSession: the transaction carries no (client, nonce)
	// session, the only identity the commit path deduplicates by. It
	// is never admitted; the client must mint one (Client.Mint).
	NackNoSession
)

// Ack is the payload of MsgTxAck.
type Ack struct {
	TxID   types.Digest
	Client uint64
	Nonce  uint64
	Status AckStatus
	// Epoch and Proposer teach the client the current routing state.
	Epoch    types.Epoch
	Proposer types.ReplicaID
}

// Nack is the payload of MsgTxNack. Proposer is the re-route hint:
// the replica serving the transaction's shard in Epoch.
type Nack struct {
	TxID     types.Digest
	Client   uint64
	Nonce    uint64
	Reason   NackReason
	Epoch    types.Epoch
	Proposer types.ReplicaID
}

// Committed is the payload of MsgTxCommitted.
type Committed struct {
	TxID   types.Digest
	Client uint64
	Nonce  uint64
	Epoch  types.Epoch
}

// Marshal encodes an Ack.
func (a *Ack) Marshal() []byte {
	e := types.GetEncoder()
	defer types.PutEncoder(e)
	e.Digest(a.TxID)
	e.U64(a.Client)
	e.U64(a.Nonce)
	e.U8(uint8(a.Status))
	e.U64(uint64(a.Epoch))
	e.U32(uint32(a.Proposer))
	return e.Detach()
}

// Unmarshal decodes an Ack.
func (a *Ack) Unmarshal(b []byte) error {
	d := types.NewDecoder(b)
	a.TxID = d.Digest()
	a.Client = d.U64()
	a.Nonce = d.U64()
	a.Status = AckStatus(d.U8())
	a.Epoch = types.Epoch(d.U64())
	a.Proposer = types.ReplicaID(d.U32())
	return d.Finish()
}

// Marshal encodes a Nack.
func (n *Nack) Marshal() []byte {
	e := types.GetEncoder()
	defer types.PutEncoder(e)
	e.Digest(n.TxID)
	e.U64(n.Client)
	e.U64(n.Nonce)
	e.U8(uint8(n.Reason))
	e.U64(uint64(n.Epoch))
	e.U32(uint32(n.Proposer))
	return e.Detach()
}

// Unmarshal decodes a Nack.
func (n *Nack) Unmarshal(b []byte) error {
	d := types.NewDecoder(b)
	n.TxID = d.Digest()
	n.Client = d.U64()
	n.Nonce = d.U64()
	n.Reason = NackReason(d.U8())
	n.Epoch = types.Epoch(d.U64())
	n.Proposer = types.ReplicaID(d.U32())
	return d.Finish()
}

// Marshal encodes a Committed.
func (c *Committed) Marshal() []byte {
	e := types.GetEncoder()
	defer types.PutEncoder(e)
	e.Digest(c.TxID)
	e.U64(c.Client)
	e.U64(c.Nonce)
	e.U64(uint64(c.Epoch))
	return e.Detach()
}

// Unmarshal decodes a Committed.
func (c *Committed) Unmarshal(b []byte) error {
	d := types.NewDecoder(b)
	c.TxID = d.Digest()
	c.Client = d.U64()
	c.Nonce = d.U64()
	c.Epoch = types.Epoch(d.U64())
	return d.Finish()
}

// ProposerOfShard is the protocol's shard-rotation schedule: the
// replica serving shard s in epoch e. This is the single definition —
// node.ProposerOfShard delegates here (the client library routes with
// the same formula and cannot import the node package, so the formula
// lives on the shared side of that boundary).
func ProposerOfShard(s types.ShardID, epoch types.Epoch, n int) types.ReplicaID {
	return types.ReplicaID((uint64(s) + uint64(epoch)) % uint64(n))
}
