package node

import (
	"reflect"
	"testing"
	"time"

	"thunderbolt/internal/contract"
	"thunderbolt/internal/crypto"
	"thunderbolt/internal/storage"
	"thunderbolt/internal/transport"
	"thunderbolt/internal/tusk"
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
		st := storage.NewChunked(chunk, 0)
		workload.InitAccounts(st, accounts, 100, 100)
		nd, err := New(Config{
			ID: types.ReplicaID(i), N: n,
			Transport: net.Endpoint(types.ReplicaID(i)),
			Signer:    signers[i], Verifier: verifier,
			Registry: reg, Store: st,
			CommitLogCap: 1024,
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

// reconfigureTo moves nd into epoch e the way an in-band
// reconfiguration does — enterEpoch at end round 0, then the
// epoch-start capture — without the journal note, the proposal and the
// parked-message replay, so a fixture's network stays quiet. nd's
// lastSnap is then the snapshot of (e, EndRound 0) every honest replica
// with its committed state captures.
func reconfigureTo(nd *Node, e types.Epoch) {
	nd.enterEpoch(e, 0, nil)
	nd.capture()
}

// snapTx builds the nonce-th transaction of the snapshot tests' one
// client session.
func snapTx(nonce uint64) *types.Transaction { return sessTx(7, nonce, 0) }

// TestSnapshotCaptureDeterministic: replicas with the same committed
// state capture bit-identical snapshots, and a reconfiguration's
// capture is the new epoch's start — EndRound 0, no Shifts — whatever
// position the dying epoch had reached on each replica.
func TestSnapshotCaptureDeterministic(t *testing.T) {
	nodes, _ := snapTestNodes(t, 4)
	txs := []*types.Transaction{snapTx(1), snapTx(2)}
	for i, nd := range nodes[:2] {
		applyTestCommits(nd, 555, txs...)
		nd.commitCtx.Wave = types.Round(250 + 4*i)
		nd.committedShift[types.ReplicaID(i)] = true
		nd.reconfigure()
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
	if a.EndRound != 0 || len(a.Shifts) != 0 {
		t.Fatalf("epoch-start capture at end round %d with shifts %v, want 0 and none", a.EndRound, a.Shifts)
	}
	// The quiet fixture path captures the same snapshot.
	applyTestCommits(nodes[2], 555, txs...)
	reconfigureTo(nodes[2], 1)
	if nodes[2].lastSnap.Digest() != a.Digest() {
		t.Fatal("reconfigureTo captured a different epoch-start snapshot than reconfigure")
	}
}

// TestReconfigureMatchesEpochJump: an in-band reconfiguration and the
// install of its epoch-start capture are one way into the epoch. A
// replica that reconfigures and a stranded replica that installs the
// reconfigurer's capture from f+1 manifests land on the same entry
// position and nack the same claimed transactions.
func TestReconfigureMatchesEpochJump(t *testing.T) {
	nodes, _ := snapTestNodes(t, 4)
	mover, signer, jumper := nodes[0], nodes[1], nodes[3]
	committed := []*types.Transaction{snapTx(1), snapTx(2)}
	// The mover and a second signer end epoch 0 at the wave that
	// completed the Shift quorum; the jumper committed none of it.
	for _, nd := range []*Node{mover, signer} {
		applyTestCommits(nd, 555, committed...)
		nd.committer = tusk.NewCommitterAt(nd.dagStore, nd.n, 250)
		nd.commitCtx.Wave = 250
		for p := range 3 {
			nd.committedShift[types.ReplicaID(p)] = true
		}
	}
	// Mover and jumper hold the same claims, queued and in flight: one
	// committed (resolved after the install on the jumper), one both
	// queued and in flight.
	nacked := map[types.ReplicaID]map[types.Digest]bool{}
	for _, nd := range []*Node{mover, jumper} {
		set := map[types.Digest]bool{}
		nacked[nd.cfg.ID] = set
		nd.cfg.OnRejectTx = func(tx *types.Transaction) { set[tx.ID()] = true }
		nd.txQueue = []*types.Transaction{snapTx(2), snapTx(3), snapTx(4)}
		b := &types.Block{Epoch: 0, Round: 5, Proposer: nd.cfg.ID, Kind: types.NormalBlock,
			SingleTxs: []*types.Transaction{snapTx(4), snapTx(5)}}
		nd.trackPendingBlock(b)
		nd.ownPending[b.Round] = b.Digest()
	}

	mover.reconfigure()
	reconfigureTo(signer, 1)
	jumper.handleSnapshot(mover.cfg.ID, signedSnap(mover))
	jumper.handleSnapshot(signer.cfg.ID, signedSnap(signer))
	fetchChunks(t, jumper, mover, signer)

	if mover.lastSnap.EndRound != 0 || jumper.lastSnap.Digest() != mover.lastSnap.Digest() {
		t.Fatalf("jumper did not install the mover's epoch-start capture (end round %d)", mover.lastSnap.EndRound)
	}
	type entry struct {
		Epoch             types.Epoch
		NextRound, Base   types.Round
		Floor, LastLeader types.Round
		LastSnapAt        types.Round
		Shifts            int
		Queue             int
		DroppedAtReconfig uint64
	}
	view := func(nd *Node) entry {
		return entry{
			Epoch: nd.epoch, NextRound: nd.nextRound, Base: nd.dagStore.Base(),
			Floor: nd.dagStore.Floor(), LastLeader: nd.committer.DecidedRound(),
			LastSnapAt: nd.lastSnapAt, Shifts: len(nd.committedShift),
			Queue: len(nd.txQueue), DroppedAtReconfig: nd.Stats().DroppedAtReconfig,
		}
	}
	m, j := view(mover), view(jumper)
	if m != j {
		t.Fatalf("entry positions differ:\n reconfigure %+v\n install     %+v", m, j)
	}
	if m.Epoch != 1 || m.Base != 1 || m.LastLeader != 0 || m.Shifts != 0 {
		t.Fatalf("reconfiguration entered at %+v, want epoch 1 from round 1 with nothing ordered", m)
	}
	want := map[types.Digest]bool{snapTx(3).ID(): true, snapTx(4).ID(): true, snapTx(5).ID(): true}
	for id, set := range nacked {
		if !reflect.DeepEqual(set, want) {
			t.Fatalf("replica %d nacked %d transactions, want exactly the 3 uncommitted claims", id, len(set))
		}
	}
	if st := jumper.Stats(); st.EpochJumps != 1 || st.MidEpochInstalls != 0 || st.Reconfigurations != 0 {
		t.Fatalf("jumper counted %d jumps, %d mid-epoch installs, %d reconfigurations; want 1, 0, 0",
			st.EpochJumps, st.MidEpochInstalls, st.Reconfigurations)
	}
	if st := mover.Stats(); st.Reconfigurations != 1 || st.EpochJumps != 0 {
		t.Fatalf("mover counted %d reconfigurations, %d jumps; want 1, 0", st.Reconfigurations, st.EpochJumps)
	}
}

// TestInstallCountersAndClaims: an install from a later epoch is an
// epoch jump and only that, even when the snapshot is a mid-epoch
// capture of that epoch, and nacks the work the replica claimed; an
// install into the current epoch is a mid-epoch install and only that,
// requeues the claimed work and keeps the vote map.
func TestInstallCountersAndClaims(t *testing.T) {
	nodes, _ := snapTestNodes(t, 4)
	victim, donors := nodes[0], nodes[1:3]
	nacked := map[uint64]bool{}
	victim.cfg.OnRejectTx = func(tx *types.Transaction) { nacked[tx.Nonce] = true }
	// claim gives the victim a queued and an in-flight own transaction
	// on its current shard.
	claim := func(queued, inFlight uint64) {
		shard := victim.myShard()
		victim.txQueue = append(victim.txQueue, sessTx(7, queued, shard))
		b := &types.Block{Epoch: victim.epoch, Round: victim.nextRound, Proposer: victim.cfg.ID,
			Shard: shard, Kind: types.NormalBlock, SingleTxs: []*types.Transaction{sessTx(7, inFlight, shard)}}
		victim.trackPendingBlock(b)
		victim.ownPending[b.Round] = b.Digest()
	}
	install := func(endRound types.Round, balance int64, txs ...*types.Transaction) {
		t.Helper()
		for _, d := range donors {
			seedMidEpochDonor(d, endRound, balance, txs...)
		}
		victim.handleSnapshot(1, signedSnap(donors[0]))
		victim.handleSnapshot(2, signedSnap(donors[1]))
		fetchChunks(t, victim, donors...)
		if victim.lastSnap.Digest() != donors[0].lastSnap.Digest() || victim.committer.DecidedRound() != endRound {
			t.Fatalf("capture at end round %d not installed (last leader %d)", endRound, victim.committer.DecidedRound())
		}
	}
	for _, d := range donors {
		reconfigureTo(d, 1)
	}

	claim(10, 11)
	install(100, 555, snapTx(1))
	if st := victim.Stats(); st.Epoch != 1 || st.EpochJumps != 1 || st.MidEpochInstalls != 0 {
		t.Fatalf("cross-epoch mid-epoch install: epoch %d, %d jumps, %d mid-epoch installs; want 1, 1, 0",
			st.Epoch, st.EpochJumps, st.MidEpochInstalls)
	}
	if !reflect.DeepEqual(nacked, map[uint64]bool{10: true, 11: true}) {
		t.Fatalf("epoch jump nacked nonces %v, want the claimed 10 and 11", nacked)
	}

	claim(12, 13)
	signed := voteKey{round: 170, proposer: 2}
	victim.voted[signed] = types.Digest{1}
	install(200, 666, snapTx(2))
	if st := victim.Stats(); st.Epoch != 1 || st.EpochJumps != 1 || st.MidEpochInstalls != 1 {
		t.Fatalf("same-epoch install: epoch %d, %d jumps, %d mid-epoch installs; want 1, 1, 1",
			st.Epoch, st.EpochJumps, st.MidEpochInstalls)
	}
	if len(nacked) != 2 {
		t.Fatalf("same-epoch install nacked nonces %v", nacked)
	}
	// The claims are still this replica's: queued, or already proposed
	// again at the re-entry base.
	held := map[uint64]bool{}
	for _, tx := range victim.txQueue {
		held[tx.Nonce] = true
	}
	for _, d := range victim.ownPending {
		b := victim.pendingBlocks[d]
		for _, tx := range append(b.SingleTxs, b.CrossTxs...) {
			held[tx.Nonce] = true
		}
	}
	if !held[12] || !held[13] {
		t.Fatalf("same-epoch install dropped claimed work: holding nonces %v, want 12 and 13", held)
	}
	if victim.voted[signed] != (types.Digest{1}) {
		t.Fatal("same-epoch install forgot a slot this replica already voted for")
	}
}

func TestSnapshotInstallNeedsQuorum(t *testing.T) {
	nodes, _ := snapTestNodes(t, 4)
	txs := []*types.Transaction{snapTx(1)}
	for _, nd := range nodes[1:3] {
		applyTestCommits(nd, 777, txs...)
		reconfigureTo(nd, 2)
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
		reconfigureTo(nd, 3)
	}
	victim := nodes[0]

	// Replica 3 lies: a manifest properly signed with its own key whose
	// chunk carries a forged balance, and it would serve that chunk if
	// asked. Its digest differs, so it can never join the honest
	// candidates' count.
	liar := nodes[3]
	applyTestCommits(liar, 1_000_000)
	reconfigureTo(liar, 3)

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
	reconfigureTo(donor, 1)

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
			reconfigureTo(nd, 1)
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
			reconfigureTo(nd, 1)
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
