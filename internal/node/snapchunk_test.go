package node

import (
	"reflect"
	"testing"
	"time"

	"thunderbolt/internal/contract"
	"thunderbolt/internal/dag"
	"thunderbolt/internal/dag/dagtest"
	"thunderbolt/internal/transport"
	"thunderbolt/internal/tusk"
	"thunderbolt/internal/types"
	"thunderbolt/internal/workload"
)

// chunkTestNodes builds n unstarted nodes whose snapshot chunks are
// cut tiny, so every capture of a ledger of a few dozen accounts is a
// manifest over many chunks.
func chunkTestNodes(t *testing.T, n, accounts int) ([]*Node, *transport.SimNetwork) {
	return snapTestNodesOf(t, n, accounts, 8)
}

// countInbox counts queued (undrained) messages of one type.
func countInbox(nd *Node, mt transport.MsgType) int {
	nd.inboxMu.Lock()
	defer nd.inboxMu.Unlock()
	c := 0
	for _, m := range nd.inboxQ {
		if m.mt == mt {
			c++
		}
	}
	return c
}

// waitInbox polls until nd has at least want queued messages of type
// mt (SimNetwork delivery is asynchronous).
func waitInbox(t *testing.T, nd *Node, mt transport.MsgType, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for countInbox(nd, mt) < want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d messages of type %d (have %d)",
				want, mt, countInbox(nd, mt))
		}
		time.Sleep(time.Millisecond)
	}
}

// seedMidEpochDonor gives a donor committed state through the wave
// ordered at round endRound and a mid-epoch capture of it.
func seedMidEpochDonor(nd *Node, endRound types.Round, balance int64, txs ...*types.Transaction) {
	applyTestCommits(nd, balance, txs...)
	nd.committer = tusk.NewCommitterAt(nd.dagStore, nd.n, endRound)
	nd.commitCtx.Wave = endRound
	nd.capture(nd.epoch)
}

func TestMidEpochCaptureCadence(t *testing.T) {
	nodes, _ := snapTestNodes(t, 4)
	nd := nodes[0]
	iv := types.Round(nd.cfg.SnapshotInterval)

	nd.maybeCaptureMidEpoch(iv - 1)
	if nd.lastSnap != nil {
		t.Fatal("captured below the first interval boundary")
	}
	nd.maybeCaptureMidEpoch(iv + 1)
	if nd.lastSnap == nil {
		t.Fatal("no capture after crossing the interval boundary")
	}
	if s := nd.lastSnap; s.Epoch != s.PrevEpoch {
		t.Fatalf("mid-epoch capture not marked as such: epoch %d prev %d", s.Epoch, s.PrevEpoch)
	}
	if got := nd.Stats().MidEpochCaptures; got != 1 {
		t.Fatalf("MidEpochCaptures = %d, want 1", got)
	}
	// Later waves inside the same interval window must not re-capture.
	nd.maybeCaptureMidEpoch(iv + 3)
	if got := nd.Stats().MidEpochCaptures; got != 1 {
		t.Fatalf("re-captured within one interval window (%d captures)", got)
	}
	nd.maybeCaptureMidEpoch(2*iv + 1)
	if got := nd.Stats().MidEpochCaptures; got != 2 {
		t.Fatalf("MidEpochCaptures = %d after second boundary, want 2", got)
	}

	// Determinism: a second replica with the same committed state
	// captures the same mid-epoch digest.
	other := nodes[1]
	other.maybeCaptureMidEpoch(iv + 1)
	if other.lastSnap == nil || other.lastSnap.Digest() != nd.lastSnap.Digest() {
		t.Fatal("identical state captured different mid-epoch digests")
	}
}

func TestMidEpochChunkedInstall(t *testing.T) {
	nodes, _ := chunkTestNodes(t, 4, 64)
	victim := nodes[0]
	txs := []*types.Transaction{snapTx(1), snapTx(2)}
	for _, nd := range nodes[1:3] {
		seedMidEpochDonor(nd, 100, 555, txs...)
	}
	donor := nodes[1]
	wantChunks := len(donor.lastSnap.ChunkDigests)
	if wantChunks < 4 {
		t.Fatalf("fixture broken: only %d chunks", wantChunks)
	}

	// Two donors answer a manifest request; f+1 = 2 matching signers
	// start the chunked fetch.
	nodes[1].serveSnapshot(0, 0, 0)
	nodes[2].serveSnapshot(0, 0, 0)
	waitInbox(t, victim, MsgSnapManifest, 2)
	victim.drainInbox()
	if victim.fetch == nil {
		t.Fatal("manifest quorum did not start a chunk fetch")
	}

	fetchChunks(t, victim, nodes[1], nodes[2])

	st := victim.Stats()
	if st.MidEpochInstalls != 1 || st.EpochJumps != 0 {
		t.Fatalf("mid-epoch install counted as an epoch jump: %+v", st)
	}
	// Incremental rescue: genesis already matches most chunks — only
	// the chunk carrying the changed account should have been fetched.
	if st.SnapChunksSkipped == 0 {
		t.Fatal("no chunks skipped despite matching local state")
	}
	if st.SnapChunksFetched == 0 {
		t.Fatal("no chunks fetched")
	}
	if got := st.SnapChunksSkipped + st.SnapChunksFetched; got != uint64(wantChunks) {
		t.Fatalf("skipped %d + fetched %d != %d chunks", st.SnapChunksSkipped, st.SnapChunksFetched, wantChunks)
	}
	v, _ := victim.cfg.Store.Get(workload.CheckingKey(workload.AccountName(0)))
	if got, err := contract.DecodeInt64(v); err != nil || got != 555 {
		t.Fatalf("ledger not installed: balance %d (%v)", got, err)
	}
	if ss := victim.dedup.Sessions(); len(ss) != 1 || ss[0].Floor != uint64(len(txs)) {
		t.Fatalf("dedup state not installed: %+v", ss)
	}
	// Re-anchored mid-epoch: the DAG enters at EndRound − minGCHorizon,
	// and the committer resumes at EndRound, the committee's instance
	// boundary.
	wantBase := types.Round(100 - minGCHorizon)
	if victim.dagStore.Base() != wantBase || victim.committer.LastLeaderRound() != 100 {
		t.Fatalf("not re-anchored: base %d (want %d), last leader %d (want 100)",
			victim.dagStore.Base(), wantBase, victim.committer.LastLeaderRound())
	}
	if victim.epoch != 0 {
		t.Fatalf("mid-epoch install changed the epoch to %d", victim.epoch)
	}
	if victim.lastSnapAt != 100 {
		t.Fatalf("capture cadence not suppressed past the snapshot (lastSnapAt %d)", victim.lastSnapAt)
	}
	// The rescued replica serves the snapshot onward, chunks included.
	if victim.lastSnap == nil || victim.lastSnap.Digest() != donor.lastSnap.Digest() {
		t.Fatal("installed snapshot not retained for serving")
	}
	if len(victim.snapChunks) != wantChunks {
		t.Fatalf("retained %d chunk payloads, want %d", len(victim.snapChunks), wantChunks)
	}
	for i, c := range victim.snapChunks {
		if len(c) == 0 {
			t.Fatalf("chunk %d payload empty after install", i)
		}
	}
	start, log := victim.CommitLog()
	if start != donor.lastSnap.Commits || len(log) != 0 {
		t.Fatalf("commit log not re-anchored: start %d, %d entries", start, len(log))
	}
}

// A mid-epoch install must carry the epoch's committed Shift
// proposers: the installer's DAG enters above the early Shift blocks,
// so it can never re-derive them, and a replica that counts one Shift
// fewer reconfigures a wave after its peers — or never, committing on
// into the epoch they left.
func TestMidEpochInstallRestoresCommittedShifts(t *testing.T) {
	nodes, _ := chunkTestNodes(t, 4, 64)
	victim := nodes[0]
	for _, nd := range nodes[1:3] {
		nd.committedShift[1] = true // committed far below the snapshot's base
		seedMidEpochDonor(nd, 100, 555)
	}
	nodes[1].serveSnapshot(0, 0, 0)
	nodes[2].serveSnapshot(0, 0, 0)
	waitInbox(t, victim, MsgSnapManifest, 2)
	victim.drainInbox()
	if victim.fetch == nil {
		t.Fatal("manifest quorum did not start a chunk fetch")
	}
	fetchChunks(t, victim, nodes[1], nodes[2])
	if victim.Stats().MidEpochInstalls != 1 {
		t.Fatal("snapshot not installed")
	}
	if !reflect.DeepEqual(victim.committedShift, nodes[1].committedShift) {
		t.Fatalf("installer's committed Shifts %v, capturer's %v", victim.committedShift, nodes[1].committedShift)
	}

	// 2f more Shifts commit in one wave: it completes the 2f+1 quorum,
	// so capturer and installer both reconfigure on it.
	committee := dagtest.NewCommittee(4)
	var vs []*dag.Vertex
	for _, p := range []types.ReplicaID{2, 3} {
		vs = append(vs, committee.Vertex(&types.Block{Round: 101, Proposer: p, Shard: types.ShardID(p), Kind: types.ShiftBlock}))
	}
	wave := tusk.CommitWave{Leader: vs[len(vs)-1], Vertices: vs}
	for _, nd := range []*Node{nodes[1], victim} {
		nd.execQ = append(nd.execQ, execItem{wave: wave, committedAt: time.Now()})
		nd.drainExec()
		if nd.epoch != 1 || nd.Stats().Reconfigurations != 1 {
			t.Fatalf("replica %d did not reconfigure on the wave completing the Shift quorum (epoch %d)", nd.cfg.ID, nd.epoch)
		}
	}
}

func TestChunkFetchCorruptChunkRetried(t *testing.T) {
	nodes, _ := chunkTestNodes(t, 4, 64)
	victim := nodes[0]
	for _, nd := range nodes[1:3] {
		seedMidEpochDonor(nd, 100, 777)
	}
	nodes[1].serveSnapshot(0, 0, 0)
	nodes[2].serveSnapshot(0, 0, 0)
	waitInbox(t, victim, MsgSnapManifest, 2)
	victim.drainInbox()
	f := victim.fetch
	if f == nil {
		t.Fatal("fetch did not start")
	}
	idx := -1
	for i, done := range f.done {
		if !done {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("fixture broken: nothing left to fetch")
	}

	// A corrupt payload is rejected, charged as one retry, and leaves
	// the chunk outstanding.
	victim.handleSnapChunk(1, &snapChunk{Snap: f.dig, Index: uint32(idx), Payload: []byte("garbage")})
	if f.done[idx] {
		t.Fatal("corrupt chunk accepted")
	}
	if got := victim.Stats().SnapChunkRetries; got != 1 {
		t.Fatalf("SnapChunkRetries = %d, want 1", got)
	}
	// A chunk for some other snapshot digest is ignored outright.
	other := types.HashBytes([]byte("not-the-snapshot"))
	victim.handleSnapChunk(1, &snapChunk{Snap: other, Index: uint32(idx), Payload: []byte("whatever")})
	if got := victim.Stats().SnapChunkRetries; got != 1 {
		t.Fatalf("foreign-digest chunk charged a retry (%d)", got)
	}
	// The genuine payload then completes the chunk.
	victim.handleSnapChunk(2, &snapChunk{Snap: f.dig, Index: uint32(idx), Payload: nodes[1].snapChunks[idx]})
	if !f.done[idx] {
		t.Fatal("verified chunk not accepted after the corrupt one")
	}
}

func TestChunkFetchTimeoutRotatesServers(t *testing.T) {
	nodes, _ := chunkTestNodes(t, 4, 64)
	victim := nodes[0]
	for _, nd := range nodes[1:3] {
		seedMidEpochDonor(nd, 888, 888)
	}
	nodes[1].serveSnapshot(0, 0, 0)
	nodes[2].serveSnapshot(0, 0, 0)
	waitInbox(t, victim, MsgSnapManifest, 2)
	victim.drainInbox()
	f := victim.fetch
	if f == nil {
		t.Fatal("fetch did not start")
	}
	if len(f.inflight) == 0 {
		t.Fatal("no requests in flight")
	}
	var idx int
	var first chunkReqState
	for i, st := range f.inflight {
		idx, first = i, st
		break
	}
	// Age the request past the timeout; the pump must charge a retry
	// and re-issue to the next server in the rotation.
	f.inflight[idx] = chunkReqState{peer: first.peer, at: time.Now().Add(-time.Hour)}
	before := victim.Stats().SnapChunkRetries
	victim.pumpChunkFetch()
	if got := victim.Stats().SnapChunkRetries; got != before+1 {
		t.Fatalf("timeout not charged as a retry (%d -> %d)", before, got)
	}
	second, ok := f.inflight[idx]
	if !ok {
		t.Fatal("timed-out chunk not re-requested")
	}
	if second.peer == first.peer {
		t.Fatalf("re-request did not rotate servers (still peer %d)", first.peer)
	}
}

func TestServeSnapshotRoundGate(t *testing.T) {
	nodes, _ := chunkTestNodes(t, 4, 64)
	victim := nodes[0]
	seedMidEpochDonor(nodes[1], 100, 222)

	// Same-epoch serve refuses when the requester is too close for a
	// re-entry margin: installing would move it backwards.
	nodes[1].serveSnapshot(0, 0, 100-minGCHorizon+1)
	time.Sleep(20 * time.Millisecond)
	if got := countInbox(victim, MsgSnapManifest); got != 0 {
		t.Fatalf("served a snapshot inside the re-entry margin (%d msgs)", got)
	}
	nodes[1].serveSnapshot(0, 0, 10)
	waitInbox(t, victim, MsgSnapManifest, 1)

	// A transition snapshot must not answer a same-epoch request: it
	// would restart the requester at a position it already passed.
	donor2 := nodes[2]
	applyTestCommits(donor2, 333)
	donor2.captureSnapshot(1) // transition capture into epoch 1
	donor2.serveSnapshot(0, 1, 5)
	time.Sleep(20 * time.Millisecond)
	if got := countInbox(victim, MsgSnapManifest); got != 1 {
		t.Fatalf("transition snapshot served to a same-epoch request (%d msgs)", got)
	}
	// ...but it does answer a requester from the epoch before it.
	donor2.serveSnapshot(0, 0, 0)
	waitInbox(t, victim, MsgSnapManifest, 2)
}
