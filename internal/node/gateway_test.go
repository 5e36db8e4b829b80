package node

import (
	"testing"
	"time"

	"thunderbolt/internal/contract"
	"thunderbolt/internal/crypto"
	"thunderbolt/internal/gateway"
	"thunderbolt/internal/storage"
	"thunderbolt/internal/transport"
	"thunderbolt/internal/types"
	"thunderbolt/internal/workload"
)

// gwFixture builds n unstarted nodes plus one reserved client
// endpoint on a zero-latency SimNetwork. Node methods are called
// directly (no event loop), which is safe single-threaded; replies
// travel the simulated wire to the client endpoint.
type gwFixture struct {
	nodes  []*Node
	client transport.Transport
	recv   chan gwMsg
}

type gwMsg struct {
	mt      transport.MsgType
	payload []byte
}

func newGwFixture(t *testing.T, n int) *gwFixture {
	t.Helper()
	signers, verifier, err := crypto.InsecureScheme{}.Committee(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewSimNetwork(transport.SimConfig{N: n + 1, Committee: n})
	t.Cleanup(net.Close)
	f := &gwFixture{client: net.Endpoint(types.ReplicaID(n)), recv: make(chan gwMsg, 64)}
	f.client.SetHandler(func(_ types.ReplicaID, mt transport.MsgType, payload []byte) {
		f.recv <- gwMsg{mt: mt, payload: append([]byte(nil), payload...)}
	})
	for i := 0; i < n; i++ {
		reg := contract.NewRegistry()
		workload.RegisterSmallBank(reg)
		st := storage.New()
		workload.InitAccounts(st, 8, 100, 100)
		nd, err := New(Config{
			ID: types.ReplicaID(i), N: n,
			Transport: net.Endpoint(types.ReplicaID(i)),
			Signer:    signers[i], Verifier: verifier,
			Registry: reg, Store: st,
			NonceWindow: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.nodes = append(f.nodes, nd)
	}
	return f
}

// wait pulls the next gateway reply off the simulated wire.
func (f *gwFixture) wait(t *testing.T) gwMsg {
	t.Helper()
	select {
	case m := <-f.recv:
		return m
	case <-time.After(2 * time.Second):
		t.Fatal("no gateway reply within 2s")
		return gwMsg{}
	}
}

func (f *gwFixture) clientID() types.ReplicaID {
	return f.client.Self()
}

func sessTx(client, nonce uint64, shard types.ShardID) *types.Transaction {
	return &types.Transaction{
		Client: client, Nonce: nonce,
		Kind: types.SingleShard, Shards: []types.ShardID{shard},
		Contract: workload.ContractGetBalance,
		Args:     [][]byte{[]byte(workload.AccountName(0))},
	}
}

// TestGatewaySubmitAckCommitDuplicate drives the full answer matrix
// of one submission: accepted → committed notification → duplicate
// resubmit answered with an ack referencing the original resolution.
func TestGatewaySubmitAckCommitDuplicate(t *testing.T) {
	f := newGwFixture(t, 4)
	nd := f.nodes[1] // serves shard 1 in epoch 0
	tx := sessTx(42, 1, 1)

	nd.handleTxSubmit(f.clientID(), tx)
	m := f.wait(t)
	if m.mt != gateway.MsgTxAck {
		t.Fatalf("got message type %d, want ack", m.mt)
	}
	var ack gateway.Ack
	if err := ack.Unmarshal(m.payload); err != nil {
		t.Fatal(err)
	}
	if ack.Status != gateway.AckAccepted || ack.TxID != tx.ID() {
		t.Fatalf("unexpected ack %+v", ack)
	}
	if len(nd.txQueue) != 1 {
		t.Fatalf("queue holds %d transactions, want 1", len(nd.txQueue))
	}

	// Commit it: the waiting wire client must be notified.
	nd.markCommitted(tx, time.Now())
	m = f.wait(t)
	if m.mt != gateway.MsgTxCommitted {
		t.Fatalf("got message type %d, want committed", m.mt)
	}
	var cm gateway.Committed
	if err := cm.Unmarshal(m.payload); err != nil {
		t.Fatal(err)
	}
	if cm.TxID != tx.ID() || cm.Client != 42 || cm.Nonce != 1 {
		t.Fatalf("unexpected committed %+v", cm)
	}

	// Duplicate resubmit below the floor: an ack referencing the
	// original commit, and nothing re-enqueued.
	nd.handleTxSubmit(f.clientID(), tx)
	m = f.wait(t)
	if m.mt != gateway.MsgTxAck {
		t.Fatalf("duplicate answered with type %d, want ack", m.mt)
	}
	if err := ack.Unmarshal(m.payload); err != nil {
		t.Fatal(err)
	}
	if ack.Status != gateway.AckResolved || ack.TxID != tx.ID() {
		t.Fatalf("duplicate ack %+v, want resolved referencing %s", ack, tx.ID())
	}
	if len(nd.txQueue) != 1 {
		t.Fatalf("duplicate re-entered the queue (%d entries)", len(nd.txQueue))
	}
}

// TestGatewayMisrouteNack: a submission to the wrong proposer is
// answered with a wire nack naming the right one.
func TestGatewayMisrouteNack(t *testing.T) {
	f := newGwFixture(t, 4)
	tx := sessTx(42, 1, 2) // shard 2 belongs to replica 2 in epoch 0
	f.nodes[0].handleTxSubmit(f.clientID(), tx)
	m := f.wait(t)
	if m.mt != gateway.MsgTxNack {
		t.Fatalf("misroute answered with type %d, want nack", m.mt)
	}
	var nk gateway.Nack
	if err := nk.Unmarshal(m.payload); err != nil {
		t.Fatal(err)
	}
	if nk.Reason != gateway.NackMisroute || nk.Proposer != 2 {
		t.Fatalf("nack %+v, want misroute with hint 2", nk)
	}
	if len(f.nodes[0].txQueue) != 0 {
		t.Fatal("misrouted transaction entered the queue")
	}
}

// TestGatewayRefusesNoSession: a transaction without a (client, nonce)
// session is refused at both entry points — Submit errors before
// queueing, and a wire submit is nacked with NackNoSession — so no
// replica ever proposes one.
func TestGatewayRefusesNoSession(t *testing.T) {
	f := newGwFixture(t, 4)
	nd := f.nodes[1] // serves shard 1 in epoch 0
	for _, tx := range []*types.Transaction{sessTx(0, 1, 1), sessTx(42, 0, 1)} {
		if err := nd.Submit(tx); err == nil {
			t.Fatalf("Submit accepted client %d nonce %d", tx.Client, tx.Nonce)
		}
		if len(nd.txCh) != 0 {
			t.Fatal("refused submission reached the ingress channel")
		}
		nd.handleTxSubmit(f.clientID(), tx)
		m := f.wait(t)
		if m.mt != gateway.MsgTxNack {
			t.Fatalf("got message type %d, want nack", m.mt)
		}
		var nk gateway.Nack
		if err := nk.Unmarshal(m.payload); err != nil {
			t.Fatal(err)
		}
		if nk.Reason != gateway.NackNoSession || nk.TxID != tx.ID() {
			t.Fatalf("nack %+v, want no-session for %s", nk, tx.ID())
		}
		if len(nd.txQueue) != 0 {
			t.Fatal("transaction without a session entered the queue")
		}
	}
}

// TestGatewayOutOfWindowNack: a nonce more than a window ahead of the
// client's floor is refused so server state stays bounded.
func TestGatewayOutOfWindowNack(t *testing.T) {
	f := newGwFixture(t, 4)
	nd := f.nodes[1]
	tx := sessTx(42, 100, 1) // window is 64, floor is 0
	nd.handleTxSubmit(f.clientID(), tx)
	m := f.wait(t)
	if m.mt != gateway.MsgTxNack {
		t.Fatalf("out-of-window answered with type %d, want nack", m.mt)
	}
	var nk gateway.Nack
	if err := nk.Unmarshal(m.payload); err != nil {
		t.Fatal(err)
	}
	if nk.Reason != gateway.NackOutOfWindow {
		t.Fatalf("nack reason %d, want out-of-window", nk.Reason)
	}
	if len(nd.txQueue) != 0 {
		t.Fatal("out-of-window transaction entered the queue")
	}
	// Once earlier nonces resolve the same submission is admitted.
	for n := uint64(1); n <= 40; n++ {
		nd.markCommitted(sessTx(42, n, 1), time.Now())
	}
	nd.handleTxSubmit(f.clientID(), tx)
	for {
		m = f.wait(t)
		if m.mt == gateway.MsgTxAck {
			break
		}
	}
	var ack gateway.Ack
	if err := ack.Unmarshal(m.payload); err != nil {
		t.Fatal(err)
	}
	if ack.Status != gateway.AckAccepted {
		t.Fatalf("post-backoff resubmit: ack %+v, want accepted", ack)
	}
}

// TestGatewayWindowSurvivesEpochJump: the per-client window rides the
// epoch-start snapshot, so a replica that recovers by epoch jump — the
// same path a crashed-and-restarted-from-genesis process takes —
// answers duplicates and admissions exactly like the committee.
func TestGatewayWindowSurvivesEpochJump(t *testing.T) {
	f := newGwFixture(t, 4)
	// Donors 1 and 2 resolve a sessioned history: nonces 1..3 plus an
	// out-of-order 6 (floor 3, bit set at 6).
	history := []*types.Transaction{
		sessTx(42, 1, 1), sessTx(42, 2, 1), sessTx(42, 3, 1), sessTx(42, 6, 1),
	}
	for _, nd := range f.nodes[1:3] {
		for _, tx := range history {
			nd.dedup.Mark(tx)
		}
		nd.nm.committedTxs.Add(uint64(len(history)))
		reconfigureTo(nd, 2)
	}
	victim := f.nodes[0] // fresh state: what a restarted process holds
	victim.handleSnapshot(1, signedSnap(f.nodes[1]))
	victim.handleSnapshot(2, signedSnap(f.nodes[2]))
	if victim.epoch != 2 {
		t.Fatalf("no epoch jump (epoch %d)", victim.epoch)
	}
	if victim.dedup.Clients() != 1 {
		t.Fatalf("sessions not installed: %d clients", victim.dedup.Clients())
	}
	for _, tx := range history {
		if !victim.dedup.Resolved(tx) {
			t.Fatalf("nonce %d lost across the jump", tx.Nonce)
		}
	}
	if got := victim.dedup.Admit(sessTx(42, 4, 1)); got != gateway.AdmitNew {
		t.Fatalf("gap nonce 4 after jump: got %v, want new", got)
	}
	if got := victim.dedup.Admit(sessTx(42, 3+65, 1)); got != gateway.AdmitFuture {
		t.Fatalf("out-of-window after jump: got %v, want future", got)
	}
	// The jumper's own next capture must match the donors' — verbatim
	// restore keeps dedup state bit-identical. Both sides reconfigure
	// from epoch 2 into epoch 3.
	donor := f.nodes[1]
	reconfigureTo(victim, 3)
	reconfigureTo(donor, 3)
	if victim.lastSnap.Digest() != donor.lastSnap.Digest() {
		t.Fatal("post-jump capture diverges from an honest peer's")
	}
}

// TestGatewaySnapshotRejectsWindowMismatch: dedup configuration is
// part of the committee contract; a snapshot built under a different
// window must not install.
func TestGatewaySnapshotRejectsWindowMismatch(t *testing.T) {
	f := newGwFixture(t, 4)
	for _, nd := range f.nodes[1:3] {
		reconfigureTo(nd, 2)
		nd.lastSnap.DedupWindow = 128 // forged/misconfigured window
	}
	victim := f.nodes[0]
	victim.handleSnapshot(1, signedSnap(f.nodes[1]))
	victim.handleSnapshot(2, signedSnap(f.nodes[2]))
	if victim.epoch != 0 {
		t.Fatal("installed a snapshot with a mismatched dedup window")
	}
}
