package tusk

import (
	"fmt"
	"testing"

	"thunderbolt/internal/dag"
	"thunderbolt/internal/dag/dagtest"
	"thunderbolt/internal/types"
)

func TestLeaderRoundAndRotation(t *testing.T) {
	if LeaderRound(0) || !LeaderRound(1) || !LeaderRound(2) || !LeaderRound(3) {
		t.Fatal("every round from 1 carries a leader")
	}
	n := 4
	if LeaderOf(0, 1, n) != 0 {
		t.Fatal("round 1 of epoch 0 is led by replica 0")
	}
	// Round-robin across consecutive rounds.
	seen := map[types.ReplicaID]bool{}
	for r := types.Round(1); r <= 4; r++ {
		seen[LeaderOf(0, r, n)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("rotation over 4 rounds covered %d replicas, want 4", len(seen))
	}
	// Epoch offsets rotation.
	if LeaderOf(0, 1, n) == LeaderOf(1, 1, n) {
		t.Fatal("epoch should shift the leader schedule")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("round 0 should panic")
		}
	}()
	LeaderOf(0, 0, n)
}

func TestCommitFirstLeader(t *testing.T) {
	c := dagtest.NewCommittee(4)
	b := dagtest.NewBuilder(c, 0)
	cm := NewCommitter(b.Store, 4)

	b.NextRound(nil, nil) // round 1
	if waves := cm.Advance(); len(waves) != 0 {
		t.Fatal("committed without support round")
	}
	b.NextRound(nil, nil) // round 2 references all of round 1
	waves := cm.Advance()
	// Every slot of round 1 has its own support: four waves, in slot
	// order from the leader.
	if len(waves) != 4 {
		t.Fatalf("waves=%d want 4", len(waves))
	}
	for i, w := range waves {
		if want := SlotProposer(0, 1, 4, i); w.Leader.Proposer() != want || w.Leader.Round() != 1 || !w.Direct {
			t.Fatalf("wave %d: slot (%d,%d) direct=%v, want (1,%d) direct", i, w.Leader.Round(), w.Leader.Proposer(), w.Direct, want)
		}
		// Round-1 vertices have no parents: each wave is just its slot.
		if len(w.Vertices) != 1 || w.Vertices[0] != w.Leader {
			t.Fatalf("wave %d should contain exactly its slot vertex, got %d", i, len(w.Vertices))
		}
		if !cm.Committed(w.Leader.Cert.Digest()) {
			t.Fatalf("wave %d: slot vertex not marked committed", i)
		}
	}
	if waves[0].Leader.Proposer() != LeaderOf(0, 1, 4) {
		t.Fatal("the leader's slot is not first")
	}
	if r, p := cm.Next(); cm.DecidedRound() != 1 || r != 2 || p != LeaderOf(0, 2, 4) {
		t.Fatalf("after round 1: decided %d, next (%d,%d)", cm.DecidedRound(), r, p)
	}
}

// A skipped slot's vertex commits inside the history of a later slot
// that references it.
func TestSecondWaveSweepsHistory(t *testing.T) {
	c := dagtest.NewCommittee(4)
	b := dagtest.NewBuilder(c, 0)
	cm := NewCommitter(b.Store, 4)
	const x = types.ReplicaID(2) // not round 1's leader
	r1 := b.NextRound(nil, nil)
	// Round 2: only x's own block references x's round-1 vertex.
	var others []types.Digest
	for _, p := range othersThan(x) {
		others = append(others, r1[p].Cert.Digest())
	}
	b.NextRound(nil, func(blk *types.Block) {
		if blk.Proposer != x {
			blk.Parents = append([]types.Digest(nil), others...)
		}
	})
	b.NextRound(nil, nil) // 3
	var waves []CommitWave
	waves = append(waves, cm.Advance()...)
	// Round 1: three slots commit, x's is skipped on three
	// non-references. Round 2: four slots commit.
	if len(waves) != 7 {
		t.Fatalf("waves=%d want 7", len(waves))
	}
	var skipped []SkippedSlot
	for _, w := range waves {
		skipped = append(skipped, w.Skipped...)
	}
	if len(skipped) != 1 || skipped[0] != (SkippedSlot{Round: 1, Proposer: x}) {
		t.Fatalf("skipped %+v, want slot (1,%d) only", skipped, x)
	}
	// x's round-2 slot sweeps its skipped round-1 vertex along.
	for _, w := range waves {
		if w.Leader.Round() == 2 && w.Leader.Proposer() == x {
			if len(w.Vertices) != 2 || w.Vertices[0] != r1[x] {
				t.Fatalf("slot (2,%d) wave carries %d vertices, want the skipped (1,%d) first and itself", x, len(w.Vertices), x)
			}
			return
		}
	}
	t.Fatalf("slot (2,%d) never committed", x)
}

// othersThan returns the 4-replica committee without p.
func othersThan(p types.ReplicaID) []types.ReplicaID {
	var out []types.ReplicaID
	for q := types.ReplicaID(0); q < 4; q++ {
		if q != p {
			out = append(out, q)
		}
	}
	return out
}

// A missing slot is skipped directly as soon as the round above it
// holds a quorum, and the slots behind it commit at once.
func TestMissingLeaderSkipped(t *testing.T) {
	c := dagtest.NewCommittee(4)
	b := dagtest.NewBuilder(c, 0)
	cm := NewCommitter(b.Store, 4)
	b.NextRound(nil, nil)                           // 1
	b.NextRound(nil, nil)                           // 2
	b.NextRound(othersThan(LeaderOf(0, 3, 4)), nil) // 3 without its leader
	b.NextRound(nil, nil)                           // 4
	waves := cm.Advance()
	// Rounds 1 and 2 order every slot, round 3 the three present ones.
	if len(waves) != 11 {
		t.Fatalf("waves=%d want 11", len(waves))
	}
	w := waves[8]
	if w.Leader.Round() != 3 || w.Leader.Proposer() != SlotProposer(0, 3, 4, 1) {
		t.Fatalf("ninth wave is slot (%d,%d), want round 3's second slot", w.Leader.Round(), w.Leader.Proposer())
	}
	if got := w.Skipped; len(got) != 1 || got[0] != (SkippedSlot{Round: 3, Proposer: LeaderOf(0, 3, 4), Missing: true}) {
		t.Fatalf("ninth wave skipped %+v, want round 3's leader, missing", got)
	}
	total := 0
	for _, w := range waves {
		total += len(w.Vertices)
	}
	if total != 11 {
		t.Fatalf("committed %d vertices, want 11", total)
	}
}

// A slot that cannot be committed — absent, or present but referenced
// by no one — is skipped on its own, and costs no other slot anything:
// every other slot of the run commits directly, in order.
func TestMissingSlotDelaysNoOtherSlot(t *testing.T) {
	leader3 := LeaderOf(0, 3, 4)
	for _, tc := range []struct {
		name    string
		round3  []types.ReplicaID
		round4  func(r3 map[types.ReplicaID]*dag.Vertex) func(*types.Block)
		missing bool
	}{
		{name: "absent", round3: othersThan(leader3), missing: true},
		{name: "unsupported", round4: func(r3 map[types.ReplicaID]*dag.Vertex) func(*types.Block) {
			var keep []types.Digest
			for _, p := range othersThan(leader3) {
				keep = append(keep, r3[p].Cert.Digest())
			}
			return func(blk *types.Block) { blk.Parents = append([]types.Digest(nil), keep...) }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := dagtest.NewCommittee(4)
			b := dagtest.NewBuilder(c, 0)
			cm := NewCommitter(b.Store, 4)
			b.NextRound(nil, nil)
			b.NextRound(nil, nil)
			r3 := b.NextRound(tc.round3, nil)
			var customize func(*types.Block)
			if tc.round4 != nil {
				customize = tc.round4(r3)
			}
			b.NextRound(nil, customize)
			var got []slot
			var skipped []SkippedSlot
			for r := 5; r <= 10; r++ {
				b.NextRound(nil, nil)
				for _, w := range cm.Advance() {
					if !w.Direct {
						t.Fatalf("slot (%d,%d) committed indirectly", w.Leader.Round(), w.Leader.Proposer())
					}
					got = append(got, slot{w.Leader.Round(), w.Leader.Proposer()})
					skipped = append(skipped, w.Skipped...)
				}
			}
			var want []slot
			for r := types.Round(1); r <= 9; r++ {
				for i := 0; i < 4; i++ {
					if p := SlotProposer(0, r, 4, i); r != 3 || p != leader3 {
						want = append(want, slot{r, p})
					}
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("ordered slots %v, want %v", got, want)
			}
			if len(skipped) != 1 || skipped[0] != (SkippedSlot{Round: 3, Proposer: leader3, Missing: tc.missing}) {
				t.Fatalf("skipped %+v, want (3,%d) (missing=%v) only", skipped, leader3, tc.missing)
			}
		})
	}
}

// A slot short of both direct thresholds waits, and so does every slot
// behind it, until an anchor two rounds up decides it: committed when
// the anchor's history holds f+1 of its referencers, skipped when it
// holds fewer.
func TestInsufficientSupportDefersCommit(t *testing.T) {
	leader1 := LeaderOf(0, 1, 4)
	for _, tc := range []struct {
		name  string
		refs  []types.ReplicaID // round-2 proposers referencing leader 1
		round []types.ReplicaID // round-2 proposers (nil = all)
		want  bool              // leader 1's slot commits
	}{
		{name: "two of four refer", refs: []types.ReplicaID{0, 1}, want: true},
		{name: "one of three refers", refs: []types.ReplicaID{1}, round: []types.ReplicaID{1, 2, 3}, want: false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := dagtest.NewCommittee(4)
			b := dagtest.NewBuilder(c, 0)
			cm := NewCommitter(b.Store, 4)
			r1 := b.NextRound(nil, nil)
			var all, without []types.Digest
			for p := types.ReplicaID(0); p < 4; p++ {
				all = append(all, r1[p].Cert.Digest())
				if p != leader1 {
					without = append(without, r1[p].Cert.Digest())
				}
			}
			b.NextRound(tc.round, func(blk *types.Block) {
				blk.Parents = append([]types.Digest(nil), without...)
				for _, p := range tc.refs {
					if blk.Proposer == p {
						blk.Parents = append([]types.Digest(nil), all...)
					}
				}
			})
			if waves := cm.Advance(); len(waves) != 0 {
				t.Fatalf("ordered %d waves with the first slot undecided", len(waves))
			}
			b.NextRound(tc.round, nil) // 3
			if waves := cm.Advance(); len(waves) != 0 {
				t.Fatalf("ordered %d waves before any anchor two rounds up is decided", len(waves))
			}
			b.NextRound(tc.round, nil) // 4 commits round 3's slots directly
			waves := cm.Advance()
			if len(waves) == 0 {
				t.Fatal("nothing ordered once the anchor committed")
			}
			first := waves[0]
			committed := first.Leader.Round() == 1 && first.Leader.Proposer() == leader1
			if committed != tc.want {
				t.Fatalf("leader 1's slot committed=%v, want %v (first wave (%d,%d))", committed, tc.want, first.Leader.Round(), first.Leader.Proposer())
			}
			if committed && first.Direct {
				t.Fatal("leader 1's slot reported as a direct commit")
			}
			if !committed && (len(first.Skipped) != 1 || first.Skipped[0] != (SkippedSlot{Round: 1, Proposer: leader1})) {
				t.Fatalf("skipped %+v, want leader 1's slot", first.Skipped)
			}
		})
	}
}

func TestDeterministicAcrossReplicas(t *testing.T) {
	// Two committers over independently built but identical DAGs must
	// produce identical wave sequences.
	run := func() []string {
		c := dagtest.NewCommittee(4)
		b := dagtest.NewBuilder(c, 0)
		cm := NewCommitter(b.Store, 4)
		var log []string
		for r := 0; r < 8; r++ {
			b.NextRound(nil, nil)
			for _, w := range cm.Advance() {
				for _, v := range w.Vertices {
					log = append(log, v.Block.Digest().String())
				}
			}
		}
		return log
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("commit order diverged at %d", i)
		}
	}
}

// A committer seeded at a fully decided round, over a store entered
// below it (the mid-epoch install shape), reproduces every later wave of
// a committer that ran from round 1: the same slots, and the same
// vertices apart from ones the full committer had already committed.
func TestCommitterSeededAt(t *testing.T) {
	c := dagtest.NewCommittee(4)
	b := dagtest.NewBuilder(c, 0)
	for r := types.Round(1); r <= 14; r++ {
		var include []types.ReplicaID
		if r == 5 {
			include = othersThan(LeaderOf(0, 5, 4)) // a skipped slot below the seed
		}
		b.NextRound(include, nil)
	}
	full := NewCommitter(b.Store, 4)
	waves := full.Advance()
	const seed = 6
	committedIn := map[*dag.Vertex]int{} // wave index that committed each vertex
	next := -1                           // the first wave above the seed
	for i, w := range waves {
		for _, v := range w.Vertices {
			committedIn[v] = i
		}
		if next < 0 && w.Leader.Round() > seed {
			next = i
		}
	}
	if next < 0 || waves[next].Leader.Round() != seed+1 {
		t.Fatalf("fixture: no wave ordered above the seed")
	}

	base := types.Round(seed - 4)
	store := dag.NewStoreAt(0, 4, base)
	for r := base; r <= b.Store.HighestRound(); r++ {
		for _, v := range b.Store.AtRound(r) {
			if err := store.Add(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	seeded := NewCommitterAt(store, 4, seed)
	if r, p := seeded.Next(); seeded.DecidedRound() != seed || r != seed+1 || p != LeaderOf(0, seed+1, 4) {
		t.Fatalf("seed not applied: decided %d, next (%d,%d)", seeded.DecidedRound(), r, p)
	}
	got, want := seeded.Advance(), waves[next:]
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("seeded committer ordered %d waves, full committer %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Leader != want[i].Leader {
			t.Fatalf("wave %d: seeded slot (%d,%d), full slot (%d,%d)", i,
				got[i].Leader.Round(), got[i].Leader.Proposer(), want[i].Leader.Round(), want[i].Leader.Proposer())
		}
		var kept []*dag.Vertex
		for _, v := range got[i].Vertices {
			if j, ok := committedIn[v]; ok && j < next+i {
				continue // the full committer had committed it already
			}
			kept = append(kept, v)
		}
		if !sameVertexList(kept, want[i].Vertices) {
			t.Fatalf("wave %d: seeded committer's new vertices differ from the full committer's", i)
		}
	}
	// The first seeded wave re-derives history back to the base, which
	// the installer's dedup state suppresses at execution, exactly like
	// a WAL-restart replay.
	if len(got[0].Vertices) <= len(want[0].Vertices) {
		t.Fatalf("first seeded wave carries %d vertices, full %d: nothing re-derived", len(got[0].Vertices), len(want[0].Vertices))
	}
}

func TestPredictWaveMatchesCommit(t *testing.T) {
	c := dagtest.NewCommittee(4)
	b := dagtest.NewBuilder(c, 0)
	cm := NewCommitter(b.Store, 4)
	claimed := map[types.Digest]bool{}
	var preds []CommitWave
	// predict stacks the waves of round r's slots, in slot order, on top
	// of the claimed (but uncommitted) earlier predictions, as the
	// node's queue does.
	predict := func(r types.Round) {
		for i := 0; i < 4; i++ {
			v, ok := b.Store.Get(r, SlotProposer(0, r, 4, i))
			if !ok {
				t.Fatalf("slot (%d,%d) missing", r, i)
			}
			p := cm.PredictWave(v, func(d types.Digest) bool { return claimed[d] })
			for _, v := range p.Vertices {
				claimed[v.Cert.Digest()] = true
			}
			preds = append(preds, p)
		}
	}

	b.NextRound(nil, nil) // 1
	predict(1)
	if cm.CommittedLen() != 0 {
		t.Fatal("PredictWave must not mark anything committed")
	}
	b.NextRound(nil, nil) // 2
	predict(2)
	b.NextRound(nil, nil) // 3 gives round 2's slots support
	waves := cm.Advance()
	if len(waves) != len(preds) {
		t.Fatalf("waves=%d want %d", len(waves), len(preds))
	}
	for wi, got := range waves {
		pred := preds[wi]
		if pred.Leader != got.Leader {
			t.Fatalf("wave %d: predicted slot differs", wi)
		}
		if !sameVertexList(pred.Vertices, got.Vertices) {
			t.Fatalf("wave %d: predicted %d vertices, committed %d, or in another order", wi, len(pred.Vertices), len(got.Vertices))
		}
	}
}

func TestAdvanceIdempotent(t *testing.T) {
	c := dagtest.NewCommittee(4)
	b := dagtest.NewBuilder(c, 0)
	cm := NewCommitter(b.Store, 4)
	b.NextRound(nil, nil)
	b.NextRound(nil, nil)
	if waves := cm.Advance(); len(waves) != 4 {
		t.Fatal("first advance should commit round 1's four slots")
	}
	if waves := cm.Advance(); len(waves) != 0 {
		t.Fatal("second advance recommitted")
	}
}

func TestForgetDropsCommittedFlags(t *testing.T) {
	c := dagtest.NewCommittee(4)
	b := dagtest.NewBuilder(c, 0)
	committer := NewCommitter(b.Store, 4)
	for r := 0; r < 6; r++ {
		b.NextRound(nil, nil)
	}
	waves := committer.Advance()
	if len(waves) == 0 {
		t.Fatal("no waves committed")
	}
	before := committer.CommittedLen()
	if before == 0 {
		t.Fatal("no committed flags retained")
	}
	// Prune the first rounds out of the store and forget their flags.
	removed := b.Store.PruneBelow(3)
	committer.Forget(removed)
	if got := committer.CommittedLen(); got != before-len(removed) {
		t.Fatalf("committed flags %d after forgetting %d of %d", got, len(removed), before)
	}
	// Commit progress is unaffected: the DAG keeps extending and new
	// waves keep committing past the pruned prefix.
	for r := 0; r < 4; r++ {
		b.NextRound(nil, nil)
	}
	if more := committer.Advance(); len(more) == 0 {
		t.Fatal("no waves committed after pruning")
	}
}
