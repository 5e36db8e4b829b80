package node

import (
	"sync"
	"testing"
	"time"

	"thunderbolt/internal/contract"
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
}

func (t *recTransport) Self() types.ReplicaID { return t.id }
func (t *recTransport) Send(to types.ReplicaID, mt transport.MsgType, p []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if mt == MsgBatch {
		return forEachBatched(p, func(sub transport.MsgType, _ []byte) { t.to[to] = append(t.to[to], sub) })
	}
	t.to[to] = append(t.to[to], mt)
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
	tr := &recTransport{id: id, to: make(map[types.ReplicaID][]transport.MsgType)}
	n, err := New(Config{
		ID: id, N: committee.N, Transport: tr,
		Signer: committee.Signers[id], Verifier: committee.Ver,
		Registry: contract.NewRegistry(), Store: storage.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return n, tr
}

// peerVote is replica voter's wire vote for b.
func peerVote(committee *dagtest.Committee, voter types.ReplicaID, b *types.Block) []byte {
	d := b.Digest()
	return (&vote{Epoch: b.Epoch, Round: b.Round, Proposer: b.Proposer,
		BlockDigest: d, Sig: committee.Signers[voter].Sign(d)}).marshal()
}

func deliverVote(t testing.TB, n *Node, from types.ReplicaID, raw []byte) {
	t.Helper()
	var v vote
	if err := v.unmarshal(raw); err != nil {
		t.Fatal(err)
	}
	n.handleVote(from, &v, raw)
}

func counter(n *Node, name string) uint64 { return n.Metrics().Snapshot().Counters[name] }

// leaderHoldFixture is replica 2 standing at the end of leader round 1
// (leader: replica 0): a certificate quorum of round 1 in its DAG, its
// own included, the leader's vertex not among them.
func leaderHoldFixture(t *testing.T, leaderBlockSeen bool) (n *Node, leader *dag.Vertex) {
	t.Helper()
	committee := dagtest.NewCommittee(4)
	n, _ = voteTestNode(t, committee, 2)
	if got := tusk.LeaderOf(0, 1, 4); got != 0 {
		t.Fatalf("fixture assumes replica 0 leads round 1, got %d", got)
	}
	vs := dagtest.NewBuilder(committee, 0).NextRound(nil, nil)
	for p, v := range vs {
		if p == 0 {
			continue
		}
		n.trackPendingBlock(v.Block)
		if !n.insertVertex(v) {
			t.Fatalf("vertex of %d rejected", p)
		}
	}
	if leaderBlockSeen {
		n.trackPendingBlock(vs[0].Block)
	}
	n.nextRound = 2
	return n, vs[0]
}

func TestLeaderHoldReleasedOnArrival(t *testing.T) {
	n, leader := leaderHoldFixture(t, true)
	n.certLatency = time.Second // the bound (2 s) is not what ends this hold
	n.maybeAdvance()
	if n.nextRound != 2 {
		t.Fatalf("proposed round %d past a leader whose block is here and whose certificate is not", n.nextRound-1)
	}
	if got := counter(n, mLeaderWaits); got != 1 {
		t.Fatalf("leader_waits = %d, want 1", got)
	}
	n.maybeAdvance() // the pace ticker keeps asking; still held, still one wait
	if n.nextRound != 2 || counter(n, mLeaderWaits) != 1 {
		t.Fatalf("hold did not persist: next round %d, waits %d", n.nextRound, counter(n, mLeaderWaits))
	}
	n.addVertex(leader)
	if n.nextRound != 3 {
		t.Fatalf("leader vertex landed but round 2 was not proposed (next round %d)", n.nextRound)
	}
	if got := counter(n, mLeaderWaitTimeouts); got != 0 {
		t.Fatalf("leader_wait_timeouts = %d, want 0", got)
	}
	if got := n.Metrics().Snapshot().Histograms[mLeaderWaitNs].Count; got != 1 {
		t.Fatalf("leader_wait_ns holds %d samples, want 1", got)
	}
	// The round-2 block references the leader it waited for.
	b := n.lastBlock
	found := false
	for _, p := range b.Parents {
		found = found || p == leader.Cert.Digest()
	}
	if !found {
		t.Fatal("round-2 proposal does not reference the leader vertex")
	}
}

func TestLeaderHoldReleasedAtBound(t *testing.T) {
	n, _ := leaderHoldFixture(t, true)
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
	if w, to := counter(n, mLeaderWaits), counter(n, mLeaderWaitTimeouts); w != 1 || to != 1 {
		t.Fatalf("leader_waits=%d leader_wait_timeouts=%d, want 1 and 1", w, to)
	}
}

func TestNoHoldForUnseenLeader(t *testing.T) {
	n, _ := leaderHoldFixture(t, false)
	n.certLatency = time.Second
	n.maybeAdvance()
	if n.nextRound != 3 {
		t.Fatalf("a leader whose block never arrived held the proposal (next round %d)", n.nextRound)
	}
	if got := counter(n, mLeaderWaits); got != 0 {
		t.Fatalf("leader_waits = %d, want 0", got)
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
	if _, ok := n.certWait[b.Digest()]; !ok {
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
	if len(n.certWait) != 0 || len(n.slots) != 0 {
		t.Fatalf("landed slot left state behind: certWait=%d collectors=%d", len(n.certWait), len(n.slots))
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
	if s, ok := n.slots[k]; ok && s.n != 0 {
		t.Fatal("a replayed signature was counted")
	}
	// One vote per voter per slot: the second, for a different digest,
	// neither replaces nor adds.
	deliverVote(t, n, 2, peerVote(committee, 2, b))
	deliverVote(t, n, 2, peerVote(committee, 2, other))
	if s := n.slots[k]; s.n != 1 || s.votes[2].digest != b.Digest() {
		t.Fatalf("conflicting second vote changed the slot: n=%d", s.n)
	}
	// Beyond the window.
	far := &types.Block{Epoch: 0, Round: n.voteCeiling() + 1, Proposer: 1, Kind: types.NormalBlock}
	deliverVote(t, n, 2, peerVote(committee, 2, far))
	if _, ok := n.slots[voteKey{round: far.Round, proposer: 1}]; ok {
		t.Fatal("a vote beyond the window opened a collector")
	}
	// An epoch reset reclaims every collector.
	n.resetEpochState(1)
	if len(n.slots) != 0 || len(n.slotFree) == 0 {
		t.Fatalf("epoch reset left %d collectors live, %d free", len(n.slots), len(n.slotFree))
	}
}

// TestVotePathAllocs pins the per-vote cost of the two-hop flow, where
// a replica handles n votes per slot instead of one certificate:
// counting a vote in a live collector allocates nothing beyond the
// delivered message, and a completed slot's collector goes back to the
// free list for the next slot.
func TestVotePathAllocs(t *testing.T) {
	committee := dagtest.NewCommittee(4)
	n, _ := voteTestNode(t, committee, 0)
	b := &types.Block{Epoch: 0, Round: 1, Proposer: 1, Shard: 1, Kind: types.NormalBlock, ProposedUnixNano: 1}
	n.handleBlock(1, b, nil) // own vote counted: the collector is live
	k := voteKey{round: 1, proposer: 1}
	s := n.slots[k]
	if s == nil || s.n != 1 {
		t.Fatal("own vote did not open the slot's collector")
	}
	raw := peerVote(committee, 2, b)
	allocs := testing.AllocsPerRun(200, func() {
		var v vote
		if err := v.unmarshal(raw); err != nil {
			t.Fatal(err)
		}
		n.handleVote(2, &v, raw)
		// Undo, so every run counts a first vote from replica 2.
		s.votes[2] = slotVote{}
		s.n--
		s.leadN--
	})
	if allocs > 1 {
		t.Fatalf("a vote for a live collector costs %.1f allocs, want <= 1", allocs)
	}
	deliverVote(t, n, 2, raw)
	deliverVote(t, n, 3, peerVote(committee, 3, b))
	if _, ok := n.dagStore.Get(1, 1); !ok {
		t.Fatal("quorum of votes did not land the vertex")
	}
	if len(n.slots) != 0 || len(n.slotFree) != 1 || n.slotFree[0] != s {
		t.Fatalf("completed slot's collector not returned: live=%d free=%d", len(n.slots), len(n.slotFree))
	}
	b2 := &types.Block{Epoch: 0, Round: 1, Proposer: 2, Shard: 2, Kind: types.NormalBlock, ProposedUnixNano: 1}
	n.handleBlock(2, b2, nil)
	if got := n.slots[voteKey{round: 1, proposer: 2}]; got != s || len(n.slotFree) != 0 {
		t.Fatal("next slot did not reuse the freed collector")
	}
	if s.votes[2].sig != nil || s.votes[3].sig != nil {
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
			n.trackPendingBlock(v.Block)
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
