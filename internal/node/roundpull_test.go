package node

import (
	"bytes"
	"testing"
	"time"

	"thunderbolt/internal/dag"
	"thunderbolt/internal/dag/dagtest"
	"thunderbolt/internal/transport"
	"thunderbolt/internal/types"
)

// takeInbox waits until nd has want messages queued (batch frames
// unpacked), lets stragglers land, then empties the inbox and returns
// the count per message type and in all.
func takeInbox(t *testing.T, nd *Node, want int) (map[transport.MsgType]int, int) {
	t.Helper()
	count := func() (map[transport.MsgType]int, int) {
		nd.inboxMu.Lock()
		defer nd.inboxMu.Unlock()
		got, total := make(map[transport.MsgType]int), 0
		add := func(mt transport.MsgType, _ []byte) { got[mt]++; total++ }
		for _, m := range nd.inboxQ {
			if m.mt == MsgBatch {
				_ = forEachBatched(m.payload, add)
			} else {
				add(m.mt, nil)
			}
		}
		return got, total
	}
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		got, total := count()
		if total >= want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d messages (have %v)", want, got)
		}
	}
	time.Sleep(20 * time.Millisecond)
	got, total := count()
	nd.inboxMu.Lock()
	nd.inboxQ = nil
	nd.inboxMu.Unlock()
	return got, total
}

// TestRoundPullAnswers: the answer to a round pull depends on where the
// requester stands. Within the server's horizon it is the round's block
// + certificate pairs, from the archive or the decoded DAG alike; past
// the server's frontier it is nothing; from a stale epoch or below the
// archive, where round-by-round history no longer exists, it is the
// signed snapshot manifest. A routine stall pull never draws a
// manifest, though the server holds one.
func TestRoundPullAnswers(t *testing.T) {
	nodes, _ := snapTestNodes(t, 4)
	victim, server, moved := nodes[0], nodes[1], nodes[2]
	// server: epoch 0, rounds 149-150 archived and 151-152 decoded, and
	// a mid-epoch capture at 152.
	b := dagtest.NewBuilderAt(dagtest.NewCommittee(4), 0, 149)
	for range 4 {
		b.NextRound(nil, nil)
	}
	server.dagStore = b.Store
	seedMidEpochDonor(server, 152, 222)
	server.pruneBelow(151)
	if server.archive.rounds() != 2 || server.dagStore.Floor() != 151 {
		t.Fatalf("archive holds %d rounds below decoded floor %d, want 2 below 151", server.archive.rounds(), server.dagStore.Floor())
	}
	// moved: already in epoch 1, with the epoch-start capture of it.
	applyTestCommits(moved, 333)
	reconfigureTo(moved, 1)

	for _, tc := range []struct {
		name                     string
		server                   *Node
		req                      roundReq
		blocks, certs, manifests int
	}{
		{"oldest retained round", server, roundReq{Epoch: 0, Round: 149}, 4, 4, 0},
		{"archived round", server, roundReq{Epoch: 0, Round: 150}, 4, 4, 0},
		{"oldest decoded round", server, roundReq{Epoch: 0, Round: 151}, 4, 4, 0},
		{"routine stall at the frontier", server, roundReq{Epoch: 0, Round: 152}, 4, 4, 0},
		{"past the server's frontier", server, roundReq{Epoch: 0, Round: 153}, 0, 0, 0},
		{"from a later epoch", server, roundReq{Epoch: 1, Round: 5}, 0, 0, 0},
		{"below the archive", server, roundReq{Epoch: 0, Round: 10}, 0, 0, 1},
		{"from a stale epoch", moved, roundReq{Epoch: 0, Round: 5}, 0, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.server.handleRoundReq(victim.cfg.ID, &tc.req)
			tc.server.flushOutbox()
			want := tc.blocks + tc.certs + tc.manifests
			got, total := takeInbox(t, victim, want)
			if got[MsgBlock] != tc.blocks || got[MsgCert] != tc.certs || got[MsgSnapManifest] != tc.manifests || total != want {
				t.Fatalf("answer %v, want %d blocks, %d certificates, %d manifests", got, tc.blocks, tc.certs, tc.manifests)
			}
		})
	}
}

// TestArchivedRoundServedAsDecoded: once a round leaves the decoded
// window, its round-pull answer from the archive is byte-identical to
// the one the decoded tier marshalled for it — blocks as they arrived,
// certificates encoded once, in proposer order — and serving it again
// allocates nothing beyond the outbox.
func TestArchivedRoundServedAsDecoded(t *testing.T) {
	n := relayedRounds(t)
	const to = 2
	req := roundReq{Epoch: 0, Round: 1}
	answer := func() []outMsg {
		n.handleRoundReq(to, &req)
		out := append([]outMsg(nil), n.outDirect[to]...)
		n.outDirect[to] = n.outDirect[to][:0]
		return out
	}
	decoded := answer()
	n.pruneBelow(2)
	if n.archive.rounds() != 1 || n.dagStore.CountAtRound(1) != 0 {
		t.Fatalf("round 1 not moved to the archive (%d archived rounds)", n.archive.rounds())
	}
	archived := answer()
	if len(decoded) != 8 || len(archived) != len(decoded) {
		t.Fatalf("decoded answer has %d messages, archived %d; want 8 each", len(decoded), len(archived))
	}
	for i := range decoded {
		if archived[i].mt != decoded[i].mt || !bytes.Equal(archived[i].payload, decoded[i].payload) {
			t.Fatalf("message %d differs: archived type %d (%d bytes), decoded type %d (%d bytes)",
				i, archived[i].mt, len(archived[i].payload), decoded[i].mt, len(decoded[i].payload))
		}
	}
	if allocs := testing.AllocsPerRun(20, func() {
		n.handleRoundReq(to, &req)
		n.outDirect[to] = n.outDirect[to][:0]
	}); allocs != 0 {
		t.Fatalf("serving an archived round allocates %.1f times, want 0", allocs)
	}
}

// TestDecodedRoundServedFromWire: inside the decoded window a round
// pull's blocks go out as the bytes they arrived in — identical to a
// fresh encoding, and no block encoded to answer.
func TestDecodedRoundServedFromWire(t *testing.T) {
	n := relayedRounds(t)
	const to = 2
	n.handleRoundReq(to, &roundReq{Epoch: 0, Round: 1})
	out := n.outDirect[to]
	if len(out) != 8 {
		t.Fatalf("answer has %d messages, want 8", len(out))
	}
	for p := 0; p < 4; p++ {
		v, _ := n.dagStore.Get(1, types.ReplicaID(p))
		m, wire := out[2*p], v.Block.Wire()
		if m.mt != MsgBlock || !bytes.Equal(m.payload, mustMarshal(v.Block)) {
			t.Fatalf("proposer %d: the block answer is not the block's encoding", p)
		}
		if &m.payload[0] != &wire[0] {
			t.Fatalf("proposer %d: the block was encoded again to answer", p)
		}
	}
}

// relayedRounds is replica 0 holding rounds 1-3 of a committee of four,
// each vertex received off the wire, relayed, as a recovery reply does:
// the decoded blocks hold the bytes they came in, and carry
// transactions so an encoding is not trivially small.
func relayedRounds(t *testing.T) *Node {
	t.Helper()
	committee := dagtest.NewCommittee(4)
	n, _ := voteTestNode(t, committee, 0)
	b := dagtest.NewBuilder(committee, 0)
	withTxs := func(blk *types.Block) {
		for i := range 3 {
			tx := &types.Transaction{
				Client: uint64(blk.Proposer) + 1, Nonce: uint64(blk.Round)*10 + uint64(i),
				Kind: types.SingleShard, Shards: []types.ShardID{blk.Shard},
				Contract: "transfer", Args: [][]byte{[]byte("from"), []byte("to")},
			}
			blk.SingleTxs = append(blk.SingleTxs, tx)
			blk.Results = append(blk.Results, types.TxResult{TxID: tx.ID(),
				WriteSet: []types.RWRecord{{Key: "from", Value: []byte{byte(i)}}}})
		}
	}
	// Every vertex arrives off the wire, relayed, as a recovery reply
	// does: the decoded blocks hold the bytes they came in.
	for range 3 {
		for p, v := range b.NextRound(nil, withTxs) {
			from := (p + 1) % 4
			n.handle(inboundMsg{from: from, mt: MsgBlock, payload: mustMarshal(v.Block)})
			n.handle(inboundMsg{from: from, mt: MsgCert, payload: mustMarshal(v.Cert)})
		}
	}
	if got := n.dagStore.CountAtRound(1); got != 4 {
		t.Fatalf("round 1 holds %d vertices, want 4", got)
	}
	return n
}

// TestStallPullRescuesPastWithholdingServer: a stranded replica sends
// no rescue request of its own — its ordinary stall pull goes to every
// peer, and peers that pruned the round answer with their manifest. So
// one donor that never answers cannot keep it from the f+1 manifests
// the install needs, nor from the chunks.
func TestStallPullRescuesPastWithholdingServer(t *testing.T) {
	nodes, _ := chunkTestNodes(t, 4, 64)
	victim, withholder := nodes[0], nodes[1]
	committee := dagtest.NewCommittee(4)
	for _, d := range nodes[1:] {
		b := dagtest.NewBuilderAt(committee, 0, 150)
		b.NextRound(nil, nil)
		d.dagStore = b.Store
		seedMidEpochDonor(d, 150, 444, snapTx(1))
	}
	victim.nextRound = 5
	victim.lastProgress = time.Now().Add(-time.Hour)
	victim.housekeeping()
	victim.flushOutbox()
	for _, d := range nodes[1:] {
		waitInbox(t, d, MsgRoundReq, 1)
	}
	// The withholder received the pull too; it never reads its inbox.
	for _, d := range nodes[2:] {
		d.drainInbox()
	}
	waitInbox(t, victim, MsgSnapManifest, 2)
	victim.drainInbox()
	if victim.fetch == nil {
		t.Fatalf("manifests from %d signers started no fetch", len(victim.snapFrom))
	}
	if _, ok := victim.snapFrom[withholder.cfg.ID]; ok {
		t.Fatal("the withholding server's manifest arrived")
	}
	fetchChunks(t, victim, nodes[2:]...)
	if st := victim.Stats(); st.MidEpochInstalls != 1 || victim.committer.DecidedRound() != 150 {
		t.Fatalf("not rescued: %d mid-epoch installs, last leader %d", st.MidEpochInstalls, victim.committer.DecidedRound())
	}
}

// TestOrphanPullsItsParentRound: a certified vertex whose parents are
// unknown pulls the one round they live in — a single MsgRoundReq, no
// per-parent request — and a second orphan of that round asks nothing
// more before the re-ask interval. The round's block + certificate
// pairs land both.
func TestOrphanPullsItsParentRound(t *testing.T) {
	committee := dagtest.NewCommittee(4)
	n, _ := voteTestNode(t, committee, 0)
	b := dagtest.NewBuilder(committee, 0)
	r1, r2, r3 := b.NextRound(nil, nil), b.NextRound(nil, nil), b.NextRound(nil, nil)
	for _, v := range r1 {
		n.trackPendingBlock(v.Block, v.Proposer())
		if !n.insertVertex(v) {
			t.Fatal("round-1 vertex rejected")
		}
	}
	n.flushOutbox()
	// deliver hands over a vertex the way a recovery reply does: block
	// then certificate, relayed by a replica other than its proposer.
	deliver := func(v *dag.Vertex) {
		from := (v.Proposer() + 1) % 4
		n.handle(inboundMsg{from: from, mt: MsgBlock, payload: mustMarshal(v.Block)})
		n.handle(inboundMsg{from: from, mt: MsgCert, payload: mustMarshal(v.Cert)})
	}
	queued := func() (out []outMsg, mts []transport.MsgType) {
		out = append(out, n.outBcast...)
		for _, q := range n.outDirect {
			out = append(out, q...)
		}
		for _, m := range out {
			mts = append(mts, m.mt)
		}
		return out, mts
	}

	deliver(r3[1])
	out, mts := queued()
	if len(out) != 1 || out[0].mt != MsgRoundReq {
		t.Fatalf("orphan queued message types %v, want one MsgRoundReq (%d)", mts, MsgRoundReq)
	}
	var req roundReq
	if err := req.unmarshal(out[0].payload); err != nil || req != (roundReq{Epoch: 0, Round: 2}) {
		t.Fatalf("orphan pulled %+v (%v), want epoch 0 round 2", req, err)
	}
	deliver(r3[2])
	if out, mts := queued(); len(out) != 1 {
		t.Fatalf("a second orphan of the round left message types %v queued, want the first pull alone", mts)
	}
	if n.table.orphans != 2 {
		t.Fatalf("%d orphans parked, want 2", n.table.orphans)
	}
	for p := types.ReplicaID(0); p < 4; p++ {
		deliver(r2[p])
	}
	for _, v := range []*dag.Vertex{r3[1], r3[2]} {
		if _, ok := n.dagStore.Get(3, v.Proposer()); !ok {
			t.Fatalf("orphan of proposer %d did not land", v.Proposer())
		}
	}
	if n.table.orphans != 0 {
		t.Fatalf("%d orphans left", n.table.orphans)
	}
}

// TestRelayedBlockSpeaksNotForItsProposer: a block relayed by another
// replica says nothing about its proposer's progress. One Byzantine
// peer forging blocks that name two honest proposers at a far round —
// still under the block ceiling, so the slot table keeps them — must
// neither send this replica pulling the rounds in between nor hide a
// silent proposer from Shift condition (1).
func TestRelayedBlockSpeaksNotForItsProposer(t *testing.T) {
	committee := dagtest.NewCommittee(4)
	n, _ := voteTestNode(t, committee, 0)
	n.cfg.K = 5
	n.lastProgress = time.Now() // not stalled: housekeeping sends no stall pull
	// Proposers 1 and 2 are heard from at round 9; proposer 3 is silent.
	for _, p := range []types.ReplicaID{1, 2} {
		n.handleBlock(p, testBlock(9, p), nil)
	}
	for _, p := range []types.ReplicaID{2, 3} {
		n.handleBlock(1, testBlock(200, p), nil)
	}
	if got := counter(n, "blocks_dropped"); got != 0 {
		t.Fatalf("fixture: %d forged blocks refused, want them kept", got)
	}
	before := counter(n, mRoundPulls)
	n.housekeeping()
	if got := counter(n, mRoundPulls) - before; got != 0 {
		t.Errorf("relayed forged blocks set off %d round pulls", got)
	}
	if !n.shouldShift(10) {
		t.Fatal("a relayed forged block hid silent proposer 3 from Shift condition (1)")
	}
}
