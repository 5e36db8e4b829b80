package node

import (
	"sync"
	"testing"
	"time"

	"thunderbolt/internal/contract"
	"thunderbolt/internal/crypto"
	"thunderbolt/internal/dag"
	"thunderbolt/internal/dag/dagtest"
	"thunderbolt/internal/storage"
	"thunderbolt/internal/transport"
	"thunderbolt/internal/tusk"
	"thunderbolt/internal/types"
)

// recTransport records what a node sends; tests drive the node's
// handlers directly on the test goroutine, no event loop running.
type recTransport struct {
	id types.ReplicaID
	mu sync.Mutex
	to map[types.ReplicaID][]transport.MsgType
	// bundles holds every MsgVote sent, decoded, by receiver.
	bundles map[types.ReplicaID][]voteBundle
}

func (t *recTransport) Self() types.ReplicaID { return t.id }
func (t *recTransport) Send(to types.ReplicaID, mt transport.MsgType, p []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	record := func(sub transport.MsgType, payload []byte) {
		t.to[to] = append(t.to[to], sub)
		if sub == MsgVote {
			var vb voteBundle
			if vb.unmarshal(append([]byte(nil), payload...)) == nil {
				t.bundles[to] = append(t.bundles[to], vb)
			}
		}
	}
	if mt == MsgBatch {
		return forEachBatched(p, record)
	}
	record(mt, p)
	return nil
}
func (t *recTransport) Broadcast(transport.MsgType, []byte) error { return nil }
func (t *recTransport) SetHandler(transport.Handler)              {}
func (t *recTransport) Close() error                              { return nil }

func (t *recTransport) sent(to types.ReplicaID, mt transport.MsgType) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := 0
	for _, m := range t.to[to] {
		if m == mt {
			c++
		}
	}
	return c
}

// voteTestNode builds an unstarted replica id of a 4-committee.
func voteTestNode(t testing.TB, committee *dagtest.Committee, id types.ReplicaID) (*Node, *recTransport) {
	t.Helper()
	tr := &recTransport{id: id,
		to:      make(map[types.ReplicaID][]transport.MsgType),
		bundles: make(map[types.ReplicaID][]voteBundle)}
	n, err := New(Config{
		ID: id, N: committee.N, Transport: tr,
		Signer:   &countingSigner{Signer: committee.Signers[id]},
		Verifier: &countingVerifier{Verifier: committee.Ver},
		Registry: contract.NewRegistry(), Store: storage.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return n, tr
}

// countingSigner and countingVerifier count the signatures a test node
// produces and checks.
type countingSigner struct {
	crypto.Signer
	n int
}

func (s *countingSigner) Sign(d types.Digest) []byte { s.n++; return s.Signer.Sign(d) }

type countingVerifier struct {
	crypto.Verifier
	n int
}

func (v *countingVerifier) Verify(r types.ReplicaID, d types.Digest, sig []byte) bool {
	v.n++
	return v.Verifier.Verify(r, d, sig)
}

func signs(n *Node) int    { return n.cfg.Signer.(*countingSigner).n }
func verifies(n *Node) int { return n.cfg.Verifier.(*countingVerifier).n }

// peerBundle is replica voter's wire bundle voting for blocks, in
// order: one signature over the root of their digests.
func peerBundle(committee *dagtest.Committee, voter types.ReplicaID, blocks ...*types.Block) []byte {
	vb := voteBundle{Epoch: blocks[0].Epoch}
	var leaves []types.Digest
	for _, b := range blocks {
		vb.Entries = append(vb.Entries, voteEntry{Round: b.Round, Proposer: b.Proposer, Digest: b.Digest()})
		leaves = append(leaves, b.Digest())
	}
	var tree types.MerkleTree
	vb.Sig = committee.Signers[voter].Sign(tree.Build(leaves))
	return vb.marshal()
}

// peerVote is replica voter's wire vote for b alone: a bundle of one.
func peerVote(committee *dagtest.Committee, voter types.ReplicaID, b *types.Block) []byte {
	return peerBundle(committee, voter, b)
}

// deliverVote hands n a wire bundle the way the event loop does.
func deliverVote(t testing.TB, n *Node, from types.ReplicaID, raw []byte) {
	t.Helper()
	if err := n.inVotes.unmarshal(raw); err != nil {
		t.Fatal(err)
	}
	n.handleVote(from, &n.inVotes, raw)
}

func counter(n *Node, name string) uint64 { return n.Metrics().Snapshot().Counters[name] }

// voted returns the digest the replica journaled a vote for in slot k.
func (t *slotTable) vote(k voteKey) (types.Digest, bool) {
	if s := t.find(k); s != nil && !s.vote.IsZero() {
		return s.vote, true
	}
	return types.Digest{}, false
}

// census returns the slot table's counts, as DebugView reports them.
func census(n *Node) (v DebugView) {
	n.table.census(&v)
	return v
}

// collector returns slot k's live vote collector, or nil.
func (t *slotTable) collector(k voteKey) *slotVotes {
	if s := t.find(k); s != nil && s.votes != nil {
		return &s.slotVotes
	}
	return nil
}

// slotHoldFixture is replica 2 standing at the end of round 1 (leader:
// replica 0): a certificate quorum of round 1 in its DAG — the
// leader's and its own among them — and replica 1's vertex not.
func slotHoldFixture(t *testing.T, blockSeen bool) (n *Node, late *dag.Vertex) {
	t.Helper()
	committee := dagtest.NewCommittee(4)
	n, _ = voteTestNode(t, committee, 2)
	if got := tusk.LeaderOf(0, 1, 4); got != 0 {
		t.Fatalf("fixture assumes replica 0 leads round 1, got %d", got)
	}
	vs := dagtest.NewBuilder(committee, 0).NextRound(nil, nil)
	for p, v := range vs {
		if p == 1 {
			continue
		}
		n.trackPendingBlock(v.Block, p)
		if !n.insertVertex(v) {
			t.Fatalf("vertex of %d rejected", p)
		}
	}
	if blockSeen {
		n.trackPendingBlock(vs[1].Block, 1)
	}
	n.nextRound = 2
	return n, vs[1]
}

// A proposal waits for a non-leader block of its round that is here
// uncertified, and leaves the moment its vertex lands, referencing it.
func TestSlotHoldReleasedOnArrival(t *testing.T) {
	n, late := slotHoldFixture(t, true)
	n.certLatency = time.Second // the bound (2 s) is not what ends this hold
	n.maybeAdvance()
	if n.nextRound != 2 {
		t.Fatalf("proposed round %d past a block that is here and whose certificate is not", n.nextRound-1)
	}
	if got := counter(n, mSlotWaits); got != 1 {
		t.Fatalf("slot_waits = %d, want 1", got)
	}
	n.maybeAdvance() // the pace ticker keeps asking; still held, still one wait
	if n.nextRound != 2 || counter(n, mSlotWaits) != 1 {
		t.Fatalf("hold did not persist: next round %d, waits %d", n.nextRound, counter(n, mSlotWaits))
	}
	n.addVertex(late)
	if n.nextRound != 3 {
		t.Fatalf("the awaited vertex landed but round 2 was not proposed (next round %d)", n.nextRound)
	}
	if got := counter(n, mSlotWaitTimeouts); got != 0 {
		t.Fatalf("slot_wait_timeouts = %d, want 0", got)
	}
	if got := n.Metrics().Snapshot().Histograms[mSlotWaitNs].Count; got != 1 {
		t.Fatalf("slot_wait_ns holds %d samples, want 1", got)
	}
	// The round-2 block references the vertex it waited for.
	found := false
	for _, p := range n.lastBlock.Parents {
		found = found || p == late.Cert.Digest()
	}
	if !found {
		t.Fatal("round-2 proposal does not reference the awaited vertex")
	}
}

func TestSlotHoldReleasedAtBound(t *testing.T) {
	n, _ := slotHoldFixture(t, true)
	n.certLatency = 2 * time.Millisecond // bound: 4 ms
	n.maybeAdvance()
	if n.nextRound != 2 {
		t.Fatal("no hold")
	}
	time.Sleep(6 * time.Millisecond)
	n.maybeAdvance()
	if n.nextRound != 3 {
		t.Fatalf("hold outlived its bound (next round %d)", n.nextRound)
	}
	if w, to := counter(n, mSlotWaits), counter(n, mSlotWaitTimeouts); w != 1 || to != 1 {
		t.Fatalf("slot_waits=%d slot_wait_timeouts=%d, want 1 and 1", w, to)
	}
}

func TestNoHoldForUnseenBlock(t *testing.T) {
	n, _ := slotHoldFixture(t, false)
	n.certLatency = time.Second
	n.maybeAdvance()
	if n.nextRound != 3 {
		t.Fatalf("a slot whose block never arrived held the proposal (next round %d)", n.nextRound)
	}
	if got := counter(n, mSlotWaits); got != 0 {
		t.Fatalf("slot_waits = %d, want 0", got)
	}
}

// TestCertificateBeforeBlock: votes alone certify a slot whose block
// this replica has not received (its proposer equivocated, or the block
// is simply late); the certificate parks, the proposer is asked for the
// block, and the vertex lands when it comes.
func TestCertificateBeforeBlock(t *testing.T) {
	committee := dagtest.NewCommittee(4)
	n, tr := voteTestNode(t, committee, 0)
	b := &types.Block{Epoch: 0, Round: 1, Proposer: 1, Shard: 1, Kind: types.NormalBlock, ProposedUnixNano: 1}
	for _, voter := range []types.ReplicaID{1, 2, 3} {
		deliverVote(t, n, voter, peerVote(committee, voter, b))
	}
	n.flushOutbox()
	if got := counter(n, mVotesEarly); got != 3 {
		t.Fatalf("votes_early = %d, want 3", got)
	}
	if s := n.table.find(voteKey{round: 1, proposer: 1}); s == nil || s.cert == nil || s.cert.BlockDigest != b.Digest() {
		t.Fatal("2f+1 votes for an unknown block did not park a certificate")
	}
	if got := tr.sent(1, MsgBlockReq); got != 1 {
		t.Fatalf("%d MsgBlockReq to the proposer, want 1", got)
	}
	// The block arrives; this replica's own vote, cast now, is the
	// fourth — late, not a second certificate.
	n.handleBlock(1, b, nil)
	if _, ok := n.dagStore.Get(1, 1); !ok {
		t.Fatal("block arrived but the vertex did not land")
	}
	if c := census(n); c.CertWait != 0 || c.Collectors != 0 {
		t.Fatalf("landed slot left state behind: certWait=%d collectors=%d", c.CertWait, c.Collectors)
	}
	v, _ := n.dagStore.Get(1, 1)
	if len(v.Cert.Sigs) != 3 {
		t.Fatalf("certificate carries %d signatures, want the 3 counted votes", len(v.Cert.Sigs))
	}
}

// TestVoteRules: what a replica refuses to count.
func TestVoteRules(t *testing.T) {
	committee := dagtest.NewCommittee(4)
	n, _ := voteTestNode(t, committee, 0)
	b := &types.Block{Epoch: 0, Round: 1, Proposer: 1, Shard: 1, Kind: types.NormalBlock, ProposedUnixNano: 1}
	other := &types.Block{Epoch: 0, Round: 1, Proposer: 1, Shard: 1, Kind: types.NormalBlock, ProposedUnixNano: 2}
	k := voteKey{round: 1, proposer: 1}

	// Another replica's signature under the sender's id.
	deliverVote(t, n, 3, peerVote(committee, 2, b))
	if s := n.table.collector(k); s != nil && s.n != 0 {
		t.Fatal("a replayed signature was counted")
	}
	// One vote per voter per slot: the second, for a different digest,
	// neither replaces nor adds.
	deliverVote(t, n, 2, peerVote(committee, 2, b))
	deliverVote(t, n, 2, peerVote(committee, 2, other))
	if s := n.table.collector(k); s.n != 1 || s.votes[2].digest != b.Digest() {
		t.Fatalf("conflicting second vote changed the slot: n=%d", s.n)
	}
	// Beyond the window.
	far := &types.Block{Epoch: 0, Round: n.voteCeiling() + 1, Proposer: 1, Kind: types.NormalBlock}
	deliverVote(t, n, 2, peerVote(committee, 2, far))
	if n.table.collector(voteKey{round: far.Round, proposer: 1}) != nil {
		t.Fatal("a vote beyond the window opened a collector")
	}
	// An epoch reset reclaims every collector.
	n.resetEpochState(1, 1)
	if c := census(n); c.Collectors != 0 || len(n.table.rounds) != 0 || len(n.table.votesFree) == 0 {
		t.Fatalf("epoch reset left %d collectors live in %d round records, %d free", c.Collectors, len(n.table.rounds), len(n.table.votesFree))
	}
}

// TestVotePathAllocs pins the per-vote cost of the two-hop flow, where
// a replica handles n votes per slot instead of one certificate:
// counting a vote in a live collector allocates nothing beyond the
// delivered message, and a completed slot's collector array goes back
// to the slot table for the next slot.
func TestVotePathAllocs(t *testing.T) {
	committee := dagtest.NewCommittee(4)
	n, _ := voteTestNode(t, committee, 0)
	b := &types.Block{Epoch: 0, Round: 1, Proposer: 1, Shard: 1, Kind: types.NormalBlock, ProposedUnixNano: 1}
	n.handleBlock(1, b, nil)
	n.flushOutbox() // own vote sealed and counted: the collector is live
	k := voteKey{round: 1, proposer: 1}
	s := n.table.collector(k)
	if s == nil || s.n != 1 {
		t.Fatal("own vote did not open the slot's collector")
	}
	votes := s.votes
	raw := peerVote(committee, 2, b)
	allocs := testing.AllocsPerRun(200, func() {
		if err := n.inVotes.unmarshal(raw); err != nil {
			t.Fatal(err)
		}
		n.handleVote(2, &n.inVotes, raw)
		// Undo, so every run counts a first vote from replica 2.
		s.votes[2] = slotVote{}
		s.n--
		s.leadN--
	})
	t.Logf("a vote for a live collector costs %.1f allocs", allocs)
	if allocs > 1 {
		t.Fatalf("a vote for a live collector costs %.1f allocs, want <= 1", allocs)
	}
	deliverVote(t, n, 2, raw)
	deliverVote(t, n, 3, peerVote(committee, 3, b))
	if _, ok := n.dagStore.Get(1, 1); !ok {
		t.Fatal("quorum of votes did not land the vertex")
	}
	if free := n.table.votesFree; n.table.collector(k) != nil || len(free) != 1 || &free[0][0] != &votes[0] {
		t.Fatalf("completed slot's collector not returned: live=%d free=%d", census(n).Collectors, len(free))
	}
	b2 := &types.Block{Epoch: 0, Round: 1, Proposer: 2, Shard: 2, Kind: types.NormalBlock, ProposedUnixNano: 1}
	n.handleBlock(2, b2, nil)
	n.flushOutbox()
	if got := n.table.collector(voteKey{round: 1, proposer: 2}); got == nil || &got.votes[0] != &votes[0] || len(n.table.votesFree) != 0 {
		t.Fatal("next slot did not reuse the freed collector")
	}
	if votes[2].sig != nil || votes[3].sig != nil {
		t.Fatal("recycled collector kept the previous slot's votes")
	}
}

// TestBehindNonQuorateFrontierStillAdvances: a replica fastForwardGap
// rounds behind a frontier that is not quorate — two peers stand there
// and the third that got them there is down — is the vote that
// frontier is waiting for. It must keep proposing its own rounds, not
// wait for a quorum that cannot form without it (this deadlocked the
// committee in the crash-across-reconfiguration chaos scenario).
func TestBehindNonQuorateFrontierStillAdvances(t *testing.T) {
	committee := dagtest.NewCommittee(4)
	n, _ := voteTestNode(t, committee, 0)
	bld := dagtest.NewBuilder(committee, 0)
	rounds := []map[types.ReplicaID]*dag.Vertex{
		bld.NextRound(nil, nil), // round 1: everyone, this replica included
	}
	for i := 1; i < fastForwardGap; i++ {
		rounds = append(rounds, bld.NextRound([]types.ReplicaID{1, 2, 3}, nil))
	}
	rounds = append(rounds, bld.NextRound([]types.ReplicaID{2, 3}, nil)) // replica 1 went down
	n.nextRound = 2
	for _, vs := range rounds {
		for _, v := range vs {
			n.trackPendingBlock(v.Block, v.Proposer())
			if !n.insertVertex(v) {
				t.Fatalf("vertex (%d,%d) rejected", v.Round(), v.Proposer())
			}
		}
	}
	hi := n.dagStore.HighestRound()
	if hi != n.nextRound-1+fastForwardGap || n.dagStore.CountAtRound(hi) >= 3 {
		t.Fatalf("fixture: frontier %d holds %d vertices", hi, n.dagStore.CountAtRound(hi))
	}
	n.maybeAdvance()
	if n.nextRound != 3 {
		t.Fatalf("replica behind a non-quorate frontier did not propose (next round %d)", n.nextRound)
	}
	if got := counter(n, mFastForwards); got != 0 {
		t.Fatalf("fast-forwarded onto a non-quorate round (%d)", got)
	}
}

func testBlock(r types.Round, p types.ReplicaID) *types.Block {
	return &types.Block{Epoch: 0, Round: r, Proposer: p, Shard: types.ShardID(p), Kind: types.NormalBlock, ProposedUnixNano: int64(r)*1000 + int64(p)}
}

// TestOnePassOneSignature: four blocks delivered in one inbox pass cost
// one signature and one MsgVote per peer, carrying four entries — and
// that bundle is what a peer accepts, with one verification. The replica
// has not proposed, so none of its votes is for its current round and
// nothing waits for a round quorum (TestSealAtRoundQuorum).
func TestOnePassOneSignature(t *testing.T) {
	committee := dagtest.NewCommittee(4)
	n, tr := voteTestNode(t, committee, 0)
	blocks := []*types.Block{testBlock(1, 1), testBlock(1, 2), testBlock(1, 3), testBlock(2, 1)}
	for _, b := range blocks {
		n.inboxQ = append(n.inboxQ, inboundMsg{from: b.Proposer, mt: MsgBlock, payload: mustMarshal(b)})
	}
	n.drainInbox()
	for _, b := range blocks {
		if d, _ := n.table.vote(voteKey{round: b.Round, proposer: b.Proposer}); d != b.Digest() {
			t.Fatal("a vote was not recorded when it was cast")
		}
	}
	if c := census(n); signs(n) != 0 || c.Collectors != 0 {
		t.Fatalf("before the flush: %d signatures, %d collectors — votes are sealed at the flush", signs(n), c.Collectors)
	}
	n.flushOutbox()
	if got := signs(n); got != 1 {
		t.Fatalf("%d signatures for one pass, want 1", got)
	}
	if s, e := counter(n, mVoteSigsSigned), counter(n, mVoteBundleEntries); s != 1 || e != 4 {
		t.Fatalf("vote_sigs_signed=%d vote_bundle_entries=%d, want 1 and 4", s, e)
	}
	for _, peer := range []types.ReplicaID{1, 2, 3} {
		if got := tr.sent(peer, MsgVote); got != 1 {
			t.Fatalf("%d MsgVote to replica %d, want 1", got, peer)
		}
		if got := len(tr.bundles[peer][0].Entries); got != 4 {
			t.Fatalf("bundle to replica %d carries %d entries, want 4", peer, got)
		}
	}
	// Its own votes are counted, each with the path to the signed root.
	var tree types.MerkleTree
	var leaves []types.Digest
	for _, b := range blocks {
		leaves = append(leaves, b.Digest())
	}
	root := tree.Build(leaves)
	for _, b := range blocks {
		own := n.table.collector(voteKey{round: b.Round, proposer: b.Proposer}).votes[0]
		if own.sig == nil || len(own.path.Sibs) != 2 || own.path.Fold(b.Digest()) != root {
			t.Fatalf("own vote for (%d,%d) not counted with a path to the bundle root", b.Round, b.Proposer)
		}
	}
	// A peer takes the bundle as sent: one verification, four votes.
	peer, _ := voteTestNode(t, committee, 1)
	deliverVote(t, peer, 0, tr.bundles[1][0].marshal())
	if got := verifies(peer); got != 1 {
		t.Fatalf("peer verified %d signatures for one bundle, want 1", got)
	}
	for _, b := range blocks {
		s := peer.table.collector(voteKey{round: b.Round, proposer: b.Proposer})
		if s == nil || s.votes[0].digest != b.Digest() || s.votes[0].path.Fold(b.Digest()) != root {
			t.Fatalf("peer did not count the vote for (%d,%d)", b.Round, b.Proposer)
		}
	}
	// A vote off the replica's current round leaves in the pass that
	// cast it, a bundle of its own, even where a vote for that round
	// would wait: here the replica stands in round 3, where it has voted
	// for nobody.
	n.nextRound = 4
	n.handleBlock(2, testBlock(2, 2), nil)
	n.flushOutbox()
	if signs(n) != 2 || len(tr.bundles[1]) != 2 || len(tr.bundles[1][1].Entries) != 1 {
		t.Fatalf("second pass: %d signatures, %d bundles", signs(n), len(tr.bundles[1]))
	}
	if got := counter(n, mVoteSealHolds); got != 0 {
		t.Fatalf("vote_seal_holds = %d for votes off the current round, want 0", got)
	}
	if own := n.table.collector(voteKey{round: 2, proposer: 2}).votes[0]; len(own.path.Sibs) != 0 {
		t.Fatal("a bundle of one has a path")
	}
}

// TestSealAtRoundQuorum pins when a replica's ballot is sealed. Votes
// for its current round wait until it has voted for 2f+1 of the round's
// proposers, and then leave under one signature: its own vote and its
// first 2f peer votes. A straggler of that round, and a vote for any
// other round, leave in the pass that cast them; a stall seals what is
// still held.
func TestSealAtRoundQuorum(t *testing.T) {
	committee := dagtest.NewCommittee(4)
	n, tr := voteTestNode(t, committee, 0)
	peers := []types.ReplicaID{1, 2, 3}
	bundles := func(want int) {
		t.Helper()
		for _, peer := range peers {
			if got := tr.sent(peer, MsgVote); got != want {
				t.Fatalf("%d MsgVote to replica %d, want %d", got, peer, want)
			}
		}
	}
	entries := func(i int, want ...types.Digest) {
		t.Helper()
		for _, peer := range peers {
			var got []types.Digest
			for _, e := range tr.bundles[peer][i].Entries {
				got = append(got, e.Digest)
			}
			if len(got) != len(want) {
				t.Fatalf("bundle %d to replica %d carries %d entries, want %d", i, peer, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("bundle %d to replica %d: entry %d is not the expected vote", i, peer, j)
				}
			}
		}
	}

	// Round 1: its own block and one peer's — two of the three votes a
	// quorum needs. The flush sends the block, and no vote.
	n.propose()
	own := n.lastBlock
	p, q, late := testBlock(1, 1), testBlock(1, 2), testBlock(1, 3)
	n.handleBlock(1, p, nil)
	n.flushOutbox()
	bundles(0)
	if signs(n) != 0 || counter(n, mVoteSealHolds) != 1 {
		t.Fatalf("held ballot: %d signatures, vote_seal_holds = %d; want 0 and 1", signs(n), counter(n, mVoteSealHolds))
	}
	if n.table.collector(voteKey{round: 1, proposer: 0}) != nil {
		t.Fatal("the held own vote was counted before it was signed")
	}

	// The second peer block reaches 2f+1: one bundle {own, p, q} to each
	// peer under one signature, and the own votes are counted.
	n.handleBlock(2, q, nil)
	n.flushOutbox()
	bundles(1)
	entries(0, own.Digest(), p.Digest(), q.Digest())
	if got := signs(n); got != 1 {
		t.Fatalf("%d signatures at the round quorum, want 1", got)
	}
	for _, b := range []*types.Block{own, p, q} {
		s := n.table.collector(voteKey{round: b.Round, proposer: b.Proposer})
		if s == nil || s.votes[0].digest != b.Digest() || len(s.votes[0].path.Sibs) == 0 {
			t.Fatalf("own vote for (%d,%d) not counted with its path", b.Round, b.Proposer)
		}
	}

	// The round's fourth block is a straggler: its vote leaves alone, in
	// its own pass.
	n.handleBlock(3, late, nil)
	n.flushOutbox()
	bundles(2)
	entries(1, late.Digest())

	// A vote for a block of the next round leaves at once.
	ahead := testBlock(2, 1)
	n.handleBlock(1, ahead, nil)
	n.flushOutbox()
	bundles(3)
	entries(2, ahead.Digest())
	if got := counter(n, mVoteSealHolds); got != 1 {
		t.Fatalf("vote_seal_holds = %d, want 1: nothing was held after the quorum", got)
	}

	// Round 2: its own block makes two votes of the round; held again,
	// until a stalled tick seals it.
	n.propose()
	n.flushOutbox()
	bundles(3)
	if got := counter(n, mVoteSealHolds); got != 2 {
		t.Fatalf("vote_seal_holds = %d, want 2", got)
	}
	n.housekeeping()
	n.flushOutbox()
	bundles(3)
	n.lastProgress = time.Now().Add(-time.Hour)
	n.housekeeping()
	n.flushOutbox()
	bundles(4)
	entries(3, n.lastBlock.Digest())
	if got := counter(n, mVoteSealsOnStall); got != 1 {
		t.Fatalf("vote_seals_on_stall = %d, want 1", got)
	}
	if got := signs(n); got != 4 {
		t.Fatalf("%d signatures in all, want 4: one per bundle", got)
	}
}

// TestBundleVerifiedOnlyWhenItCanMatter: a bundle whose slots are all
// decided is dropped without touching the verifier; one open slot among
// decided ones costs exactly one verification.
func TestBundleVerifiedOnlyWhenItCanMatter(t *testing.T) {
	committee := dagtest.NewCommittee(4)
	n, _ := voteTestNode(t, committee, 0)
	// Round 1 of proposers 1 and 2 is decided here before replica 3's
	// votes arrive; proposer 3's slot is not.
	b1, b2, b3 := testBlock(1, 1), testBlock(1, 2), testBlock(1, 3)
	n.trackPendingBlock(b3, b3.Proposer)
	voters := []types.ReplicaID{1, 2}
	for _, b := range []*types.Block{b1, b2} {
		n.handleBlock(b.Proposer, b, nil)
	}
	n.flushOutbox()
	for _, b := range []*types.Block{b1, b2} {
		for _, voter := range voters {
			deliverVote(t, n, voter, peerVote(committee, voter, b))
		}
		if _, ok := n.dagStore.Get(1, b.Proposer); !ok {
			t.Fatalf("fixture: (1,%d) did not land", b.Proposer)
		}
	}
	before, late := verifies(n), counter(n, mVotesDroppedLate)
	deliverVote(t, n, 3, peerBundle(committee, 3, b1, b2))
	if got := verifies(n) - before; got != 0 {
		t.Fatalf("%d verifications for a bundle of decided slots, want 0", got)
	}
	if got := counter(n, mVotesDroppedLate) - late; got != 2 {
		t.Fatalf("votes_dropped_late grew by %d, want 2 (one per entry)", got)
	}
	if got := counter(n, mVoteSigsVerified); got != uint64(before) {
		t.Fatalf("vote_sigs_verified = %d, verifier saw %d", got, before)
	}
	deliverVote(t, n, 3, peerBundle(committee, 3, b1, b3, b2))
	if got := verifies(n) - before; got != 1 {
		t.Fatalf("%d verifications for a bundle with one open slot, want 1", got)
	}
	if got := counter(n, mVotesDroppedLate) - late; got != 4 {
		t.Fatalf("votes_dropped_late grew by %d in all, want 4", got)
	}
	s := n.table.collector(voteKey{round: 1, proposer: 3})
	if s == nil || s.votes[3].digest != b3.Digest() || len(s.votes[3].path.Sibs) == 0 {
		t.Fatal("the open slot's vote was not counted with its path")
	}
	// vote_verify_ns times every verification and nothing else.
	if got, want := n.Metrics().Snapshot().Histograms[mVoteVerifyNs].Count, counter(n, mVoteSigsVerified); got != want {
		t.Fatalf("vote_verify_ns holds %d samples, vote_sigs_verified = %d", got, want)
	}
}

// TestBundleRules: what a replica refuses in a bundle, and what a
// wrong neighbour must not cost a good entry.
func TestBundleRules(t *testing.T) {
	committee := dagtest.NewCommittee(4)
	n, _ := voteTestNode(t, committee, 0)
	sign := func(blocks ...*types.Block) []byte {
		var vb voteBundle
		if err := vb.unmarshal(peerBundle(committee, 2, blocks...)); err != nil {
			t.Fatal(err)
		}
		return vb.Sig
	}
	wire := func(sig []byte, blocks ...*types.Block) []byte {
		vb := voteBundle{Sig: sig}
		for _, b := range blocks {
			vb.Entries = append(vb.Entries, voteEntry{Round: b.Round, Proposer: b.Proposer, Digest: b.Digest()})
		}
		return vb.marshal()
	}
	voteOf := func(r types.Round, p types.ReplicaID) *slotVote {
		if s := n.table.collector(voteKey{round: r, proposer: p}); s != nil && s.votes[2].sig != nil {
			return &s.votes[2]
		}
		return nil
	}
	a, b, c := testBlock(1, 1), testBlock(1, 3), testBlock(2, 1)

	// A signature that is not one.
	deliverVote(t, n, 2, wire([]byte("not a signature"), a, b))
	// A good signature, over another entry list: same first entry.
	deliverVote(t, n, 2, wire(sign(a, c), a, b))
	// The right entries in another order are another tree.
	deliverVote(t, n, 2, wire(sign(b, a), a, b))
	// A plain signature over one digest does not cover a bundle that
	// merely contains it.
	deliverVote(t, n, 2, wire(sign(a), a, b))
	if voteOf(1, 1) != nil || voteOf(1, 3) != nil {
		t.Fatal("a bundle whose signature does not cover its entries was counted")
	}
	if got := verifies(n); got != 4 {
		t.Fatalf("%d verifications, want 4: each bad bundle had open slots and is checked", got)
	}

	// More entries than a bundle may hold: dropped unverified, honest
	// signature or not.
	var many []*types.Block
	for i := 0; i <= n.maxBundle(); i++ {
		many = append(many, testBlock(types.Round(1+i%voteWindow), types.ReplicaID(1+i%3)))
		many[i].ProposedUnixNano = int64(i)
	}
	deliverVote(t, n, 2, peerBundle(committee, 2, many...))
	if got := verifies(n); got != 4 {
		t.Fatal("an over-cap bundle reached the verifier")
	}
	for _, m := range many {
		if voteOf(m.Round, m.Proposer) != nil {
			t.Fatal("an over-cap bundle was counted")
		}
	}
	// Exactly at the cap is a bundle like any other.
	deliverVote(t, n, 2, peerBundle(committee, 2, many[:n.maxBundle()]...))
	if got := verifies(n); got != 5 {
		t.Fatalf("a bundle at the cap was not verified (%d)", got)
	}
	n.resetEpochState(0, 1)

	// Two digests for one slot in one bundle: the first counts, once.
	a2 := testBlock(1, 1)
	a2.ProposedUnixNano = 77
	deliverVote(t, n, 2, peerBundle(committee, 2, a, a2, b))
	if v := voteOf(1, 1); v == nil || v.digest != a.Digest() {
		t.Fatal("first entry for the slot was not the one counted")
	}
	if s := n.table.collector(voteKey{round: 1, proposer: 1}); s.n != 1 {
		t.Fatalf("slot holds %d votes from one voter's bundle, want 1", s.n)
	}
	if voteOf(1, 3) == nil {
		t.Fatal("an entry after the duplicate was not counted")
	}

	// One in-window entry among entries beyond the window and from
	// outside the committee: the padding is ignored, its digests still
	// part of the root, and the good entry counts.
	far1, far2 := testBlock(n.voteCeiling()+1, 1), testBlock(n.voteCeiling()+500, 2)
	alien := testBlock(1, 9)
	deliverVote(t, n, 2, peerBundle(committee, 2, far1, alien, c, far2))
	if v := voteOf(2, 1); v == nil || v.digest != c.Digest() || len(v.path.Sibs) != 2 {
		t.Fatal("a valid entry was censored by the padding around it")
	}
	for _, far := range []*types.Block{far1, far2, alien} {
		if n.table.collector(voteKey{round: far.Round, proposer: far.Proposer}) != nil {
			t.Fatal("padding opened a collector")
		}
	}
}

// TestBundledCertificateIsTransferable: a certificate a replica
// assembles from bundled votes — every signature with a non-empty path
// — is served to, and verified whole by, a replica that saw none of the
// bundles; with one path bit flipped it is refused.
func TestBundledCertificateIsTransferable(t *testing.T) {
	committee := dagtest.NewCommittee(4)
	a, _ := voteTestNode(t, committee, 0)
	b1, b2 := testBlock(1, 1), testBlock(1, 2)
	a.handleBlock(1, b1, nil)
	a.handleBlock(2, b2, nil)
	a.flushOutbox() // own votes: one bundle of two
	deliverVote(t, a, 1, peerBundle(committee, 1, b1, b2))
	deliverVote(t, a, 2, peerBundle(committee, 2, b2, b1))
	var raws [][]byte
	for _, b := range []*types.Block{b1, b2} {
		v, ok := a.dagStore.Get(1, b.Proposer)
		if !ok {
			t.Fatalf("(1,%d) was not certified from bundled votes", b.Proposer)
		}
		for _, s := range v.Cert.Sigs {
			if len(s.Path.Sibs) == 0 {
				t.Fatal("fixture: certificate carries a plain signature")
			}
		}
		raws = append(raws, mustMarshal(v.Cert))
	}
	if got := signs(a) + verifies(a); got != 3 {
		t.Fatalf("two slots certified with %d signature operations, want 3 (one sign, two verifies)", got)
	}

	fresh, _ := voteTestNode(t, committee, 3)
	for i, b := range []*types.Block{b1, b2} {
		fresh.handle(inboundMsg{from: 0, mt: MsgBlock, payload: mustMarshal(b)})
		fresh.handle(inboundMsg{from: 0, mt: MsgCert, payload: raws[i]})
		if _, ok := fresh.dagStore.Get(1, b.Proposer); !ok {
			t.Fatalf("certificate for (1,%d) refused by a replica that saw no bundle", b.Proposer)
		}
	}
	// Each voter's signature is one signature over one root: the second
	// certificate was checked against the memo.
	if got := verifies(fresh); got != 3 {
		t.Fatalf("fresh replica verified %d signatures for two certificates of three bundle roots, want 3", got)
	}

	var c types.Certificate
	if err := c.UnmarshalBinary(raws[0]); err != nil {
		t.Fatal(err)
	}
	c.Sigs[1].Path.Sibs[0][5] ^= 4
	strict, _ := voteTestNode(t, committee, 3)
	strict.handle(inboundMsg{from: 0, mt: MsgBlock, payload: mustMarshal(b1)})
	strict.handle(inboundMsg{from: 0, mt: MsgCert, payload: mustMarshal(&c)})
	if _, ok := strict.dagStore.Get(1, 1); ok {
		t.Fatal("a certificate with a tampered path was accepted")
	}
	if census(strict).CertWait != 0 {
		t.Fatal("a refused certificate was parked")
	}
}

// TestFutureMsgsBoundedPerSender: messages stamped with the next epoch
// are parked per sender up to a bound, the oldest making room; anything
// further ahead, or from outside the committee, is not parked at all;
// and the reconfiguration replays what was kept.
func TestFutureMsgsBoundedPerSender(t *testing.T) {
	committee := dagtest.NewCommittee(4)
	n, _ := voteTestNode(t, committee, 0)
	limit := n.maxBundle()
	junk := func(epoch types.Epoch, i int) []byte {
		return (&voteBundle{Epoch: epoch, Entries: []voteEntry{{Round: types.Round(i), Proposer: 1}}, Sig: []byte("junk")}).marshal()
	}
	for i := 0; i < 3*limit; i++ {
		n.handle(inboundMsg{from: 3, mt: MsgVote, payload: junk(1, i)})
	}
	if got := len(n.futureMsgs[3]); got != limit {
		t.Fatalf("%d messages parked for one sender, want the bound %d", got, limit)
	}
	if got := counter(n, mFutureMsgsDropped); got != uint64(2*limit) {
		t.Fatalf("future_msgs_dropped = %d, want %d", got, 2*limit)
	}
	// The newest survive: the oldest were dropped.
	var first voteBundle
	if err := first.unmarshal(n.futureMsgs[3][0].payload); err != nil || first.Entries[0].Round != types.Round(2*limit) {
		t.Fatalf("oldest parked message is round %d, want %d", first.Entries[0].Round, 2*limit)
	}
	// One sender's flood costs the others nothing.
	blk := &types.Block{Epoch: 1, Round: 1, Proposer: 1, Shard: 2, Kind: types.NormalBlock}
	n.handle(inboundMsg{from: 1, mt: MsgBlock, payload: mustMarshal(blk)})
	if len(n.futureMsgs[1]) != 1 {
		t.Fatal("a peer's next-epoch block was not parked beside another sender's flood")
	}
	// Two epochs ahead, outside the committee, from itself: never
	// parked.
	n.handle(inboundMsg{from: 2, mt: MsgVote, payload: junk(2, 0)})
	n.handle(inboundMsg{from: 9, mt: MsgVote, payload: junk(1, 0)})
	n.handle(inboundMsg{from: 0, mt: MsgVote, payload: junk(1, 0)})
	if got := n.futureLen(); got != limit+1 {
		t.Fatalf("%d messages parked, want %d", got, limit+1)
	}
	// The reconfiguration replays: the block is voted for, the junk
	// dies at the verifier, nothing stays parked.
	n.reconfigure()
	n.flushOutbox()
	if n.futureLen() != 0 {
		t.Fatalf("%d messages still parked after the reconfiguration", n.futureLen())
	}
	if d, _ := n.table.vote(voteKey{round: 1, proposer: 1}); d != blk.Digest() {
		t.Fatal("the parked block was not replayed into the new epoch")
	}
}
