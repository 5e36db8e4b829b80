package node

import (
	"testing"
	"time"

	"thunderbolt/internal/contract"
	"thunderbolt/internal/crypto"
	"thunderbolt/internal/storage"
	"thunderbolt/internal/transport"
	"thunderbolt/internal/types"
	"thunderbolt/internal/workload"
)

// snapTestNodes builds n unstarted nodes over a zero-latency
// SimNetwork with identical 8-account genesis state — a ledger smaller
// than one chunk. Methods are called directly (no event loop), which is
// safe single-threaded; transport deliveries land in each node's inbox
// and are drained explicitly.
func snapTestNodes(t *testing.T, n int) ([]*Node, *transport.SimNetwork) {
	return snapTestNodesOf(t, n, 8, 0)
}

// snapTestNodesOf is snapTestNodes over a genesis of accounts accounts,
// cutting snapshot chunks of chunk records (0 = the default size).
func snapTestNodesOf(t *testing.T, n, accounts, chunk int) ([]*Node, *transport.SimNetwork) {
	t.Helper()
	signers, verifier, err := crypto.InsecureScheme{}.Committee(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewSimNetwork(transport.SimConfig{N: n})
	t.Cleanup(net.Close)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		reg := contract.NewRegistry()
		workload.RegisterSmallBank(reg)
		st := storage.New()
		workload.InitAccounts(st, accounts, 100, 100)
		nd, err := New(Config{
			ID: types.ReplicaID(i), N: n,
			Transport: net.Endpoint(types.ReplicaID(i)),
			Signer:    signers[i], Verifier: verifier,
			Registry: reg, Store: st,
			CommitLogCap:     1024,
			snapChunkRecords: chunk,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
	}
	return nodes, net
}

// signedSnap wraps a donor's latest snapshot in the signed
// MsgSnapManifest payload, exactly as serveSnapshot would.
func signedSnap(donor *Node) []byte {
	return (&snapshotMsg{
		Signer: donor.cfg.ID,
		Sig:    donor.cfg.Signer.Sign(donor.lastSnap.Digest()),
		Snap:   mustMarshal(donor.lastSnap),
	}).marshal()
}

// fetchChunks drives victim's chunk fetch until it installs: the donors
// answer its chunk requests from their inboxes, the replies land in its
// own, and timed-out requests rotate as in housekeeping.
func fetchChunks(t *testing.T, victim *Node, donors ...*Node) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for victim.fetch != nil {
		if time.Now().After(deadline) {
			t.Fatal("chunk fetch never completed")
		}
		time.Sleep(time.Millisecond)
		for _, d := range donors {
			d.drainInbox()
		}
		victim.drainInbox()
		victim.pumpChunkFetch()
	}
}

// applyTestCommits gives a node some committed state: a store write
// plus resolved transactions, mirroring what executing a committed
// prefix does.
func applyTestCommits(n *Node, balance int64, txs ...*types.Transaction) {
	n.cfg.Store.Set(workload.CheckingKey(workload.AccountName(0)), contract.EncodeInt64(balance))
	for _, tx := range txs {
		n.dedup.Mark(tx)
	}
	n.nm.committedTxs.Add(uint64(len(txs)))
}

// snapTx builds the nonce-th transaction of the snapshot tests' one
// client session.
func snapTx(nonce uint64) *types.Transaction { return sessTx(7, nonce, 0) }

func TestSnapshotCaptureDeterministic(t *testing.T) {
	nodes, _ := snapTestNodes(t, 4)
	txs := []*types.Transaction{snapTx(1), snapTx(2)}
	for _, nd := range nodes[:2] {
		applyTestCommits(nd, 555, txs...)
		nd.captureSnapshot(1)
	}
	a, b := nodes[0].lastSnap, nodes[1].lastSnap
	if a == nil || b == nil {
		t.Fatal("capture produced no snapshot")
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("replicas with identical committed state captured different digests: %s vs %s",
			a.Digest(), b.Digest())
	}
	if a.Epoch != 1 || a.Commits != 2 || len(a.Sessions) != 1 || a.Sessions[0].Floor != 2 {
		t.Fatalf("unexpected snapshot header: %+v", a)
	}
}

func TestSnapshotInstallNeedsQuorum(t *testing.T) {
	nodes, _ := snapTestNodes(t, 4)
	txs := []*types.Transaction{snapTx(1)}
	for _, nd := range nodes[1:3] {
		applyTestCommits(nd, 777, txs...)
		nd.captureSnapshot(2)
	}
	victim := nodes[0]

	victim.handleSnapshot(1, signedSnap(nodes[1]))
	if victim.epoch != 0 || victim.fetch != nil {
		t.Fatal("installed from a single signer — f+1 matching digests required")
	}
	// The same signer re-sending must not inflate the count.
	victim.handleSnapshot(1, signedSnap(nodes[1]))
	if victim.epoch != 0 || victim.fetch != nil {
		t.Fatal("one signer counted twice toward the install quorum")
	}
	victim.handleSnapshot(2, signedSnap(nodes[2]))
	fetchChunks(t, victim, nodes[1], nodes[2])
	if victim.epoch != 2 {
		t.Fatalf("no epoch jump after f+1 matching snapshots (epoch %d)", victim.epoch)
	}
	if !victim.dedup.Resolved(txs[0]) || victim.dedup.Resolved(snapTx(2)) {
		t.Fatal("dedup state not installed")
	}
	v, _ := victim.cfg.Store.Get(workload.CheckingKey(workload.AccountName(0)))
	got, err := contract.DecodeInt64(v)
	if err != nil || got != 777 {
		t.Fatalf("ledger not installed: %q (%v)", v, err)
	}
	start, log := victim.CommitLog()
	if start != 1 || len(log) != 0 {
		t.Fatalf("commit log not re-anchored: start %d, %d entries", start, len(log))
	}
	st := victim.Stats()
	if st.EpochJumps != 1 || st.CommittedTxs != 1 || st.Epoch != 2 {
		t.Fatalf("stats not updated: %+v", st)
	}
	// The jumper now serves the verified snapshot to later stragglers.
	if victim.lastSnap == nil || victim.lastSnap.Digest() != nodes[1].lastSnap.Digest() {
		t.Fatal("installed snapshot not retained for serving")
	}
}

func TestSnapshotInstallRejectsLyingServer(t *testing.T) {
	nodes, _ := snapTestNodes(t, 4)
	for _, nd := range nodes[1:3] {
		applyTestCommits(nd, 900)
		nd.captureSnapshot(3)
	}
	victim := nodes[0]

	// Replica 3 lies: a manifest properly signed with its own key whose
	// chunk carries a forged balance, and it would serve that chunk if
	// asked. Its digest differs, so it can never join the honest
	// candidates' count.
	liar := nodes[3]
	applyTestCommits(liar, 1_000_000)
	liar.captureSnapshot(3)

	victim.handleSnapshot(3, signedSnap(liar))
	victim.handleSnapshot(1, signedSnap(nodes[1]))
	if victim.epoch != 0 || victim.fetch != nil {
		t.Fatal("installed with one honest and one lying vote")
	}
	// Impersonation: without replica 1's key, a second copy of the lie
	// claiming to be from replica 1 must be rejected — otherwise one
	// attacker could forge the whole f+1 quorum over an
	// unauthenticated transport.
	impersonated := (&snapshotMsg{
		Signer: 1, Sig: liar.cfg.Signer.Sign(liar.lastSnap.Digest()), Snap: mustMarshal(liar.lastSnap),
	}).marshal()
	victim.handleSnapshot(1, impersonated)
	if victim.epoch != 0 || victim.fetch != nil {
		t.Fatal("impersonated signer forged the install quorum")
	}
	victim.handleSnapshot(2, signedSnap(nodes[2]))
	fetchChunks(t, victim, nodes[1:]...)
	if victim.epoch != 3 {
		t.Fatalf("honest quorum did not install (epoch %d)", victim.epoch)
	}
	v, _ := victim.cfg.Store.Get(workload.CheckingKey(workload.AccountName(0)))
	if got, _ := contract.DecodeInt64(v); got != 900 {
		t.Fatalf("lying server's state installed: balance %d", got)
	}
}

func TestSnapshotStaleOrMismatchedIgnored(t *testing.T) {
	nodes, _ := snapTestNodes(t, 4)
	donor := nodes[1]
	applyTestCommits(donor, 444)
	donor.captureSnapshot(1)

	victim := nodes[0]
	victim.epoch = 5 // pretend we are already past the snapshot
	victim.handleSnapshot(1, signedSnap(donor))
	if len(victim.snapFrom) != 0 {
		t.Fatal("stale snapshot retained as a candidate")
	}

	victim.epoch = 0
	bad := *donor.lastSnap
	bad.N = 7 // committee-size mismatch
	badBytes, _ := bad.MarshalBinary()
	var decoded types.Snapshot
	if err := decoded.UnmarshalBinary(badBytes); err != nil {
		t.Fatal(err)
	}
	payload := (&snapshotMsg{
		Signer: 1, Sig: donor.cfg.Signer.Sign(decoded.Digest()), Snap: badBytes,
	}).marshal()
	victim.handleSnapshot(1, payload)
	if len(victim.snapFrom) != 0 {
		t.Fatal("mismatched committee size retained as a candidate")
	}
}

// TestSnapshotSmallAndEmptyLedgers: manifest plus chunks covers the
// smallest ledgers too. A ledger smaller than one chunk is one chunk —
// two manifests and one fetched chunk install it; an empty ledger is a
// manifest of no chunks and installs on the manifest quorum alone,
// without a chunk request.
func TestSnapshotSmallAndEmptyLedgers(t *testing.T) {
	t.Run("smaller than one chunk", func(t *testing.T) {
		nodes, _ := snapTestNodes(t, 4)
		for _, nd := range nodes[1:3] {
			applyTestCommits(nd, 321)
			nd.captureSnapshot(1)
		}
		if s := nodes[1].lastSnap; s.RecordCount == 0 || s.RecordCount >= types.DefaultChunkRecords || len(s.ChunkDigests) != 1 {
			t.Fatalf("fixture broken: %d records in %d chunks", s.RecordCount, len(s.ChunkDigests))
		}
		victim := nodes[0]
		victim.handleSnapshot(1, signedSnap(nodes[1]))
		victim.handleSnapshot(2, signedSnap(nodes[2]))
		fetchChunks(t, victim, nodes[1], nodes[2])
		if st := victim.Stats(); st.Epoch != 1 || st.SnapChunksFetched != 1 || st.SnapChunksSkipped != 0 {
			t.Fatalf("epoch %d after %d fetched and %d skipped chunks, want epoch 1 from one fetched chunk",
				st.Epoch, st.SnapChunksFetched, st.SnapChunksSkipped)
		}
		v, _ := victim.cfg.Store.Get(workload.CheckingKey(workload.AccountName(0)))
		if got, err := contract.DecodeInt64(v); err != nil || got != 321 {
			t.Fatalf("ledger not installed: balance %d (%v)", got, err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		nodes, _ := snapTestNodesOf(t, 4, 0, 0)
		tx := snapTx(1)
		for _, nd := range nodes[1:3] {
			nd.dedup.Mark(tx)
			nd.nm.committedTxs.Add(1)
			nd.captureSnapshot(1)
		}
		if s := nodes[1].lastSnap; s.RecordCount != 0 || len(s.ChunkDigests) != 0 {
			t.Fatalf("fixture broken: %d records in %d chunks", s.RecordCount, len(s.ChunkDigests))
		}
		victim := nodes[0]
		victim.handleSnapshot(1, signedSnap(nodes[1]))
		if victim.epoch != 0 {
			t.Fatal("installed from a single signer")
		}
		victim.handleSnapshot(2, signedSnap(nodes[2]))
		if victim.epoch != 1 || victim.fetch != nil {
			t.Fatalf("empty ledger did not install on the manifest quorum (epoch %d)", victim.epoch)
		}
		if ss := victim.dedup.Sessions(); len(ss) != 1 || ss[0].Floor != 1 || victim.Stats().CommittedTxs != 1 {
			t.Fatal("dedup state not installed")
		}
		time.Sleep(20 * time.Millisecond)
		for _, nd := range nodes[1:] {
			if got := countInbox(nd, MsgSnapChunkReq); got != 0 {
				t.Fatalf("replica %d was asked for %d chunks of an empty ledger", nd.cfg.ID, got)
			}
		}
	})
}
