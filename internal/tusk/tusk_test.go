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
	if len(waves) != 1 {
		t.Fatalf("waves=%d want 1", len(waves))
	}
	w := waves[0]
	leader := LeaderOf(0, 1, 4)
	if w.Leader.Proposer() != leader || w.Leader.Round() != 1 {
		t.Fatalf("wrong leader committed: (%d,%d)", w.Leader.Round(), w.Leader.Proposer())
	}
	// Leader of round 1 has no parents: wave is just itself.
	if len(w.Vertices) != 1 || w.Vertices[0] != w.Leader {
		t.Fatalf("wave should contain exactly the leader, got %d", len(w.Vertices))
	}
	if !cm.Committed(w.Leader.Cert.Digest()) {
		t.Fatal("leader not marked committed")
	}
}

func TestSecondWaveSweepsHistory(t *testing.T) {
	c := dagtest.NewCommittee(4)
	b := dagtest.NewBuilder(c, 0)
	cm := NewCommitter(b.Store, 4)
	b.NextRound(nil, nil) // 1
	b.NextRound(nil, nil) // 2
	b.NextRound(nil, nil) // 3
	b.NextRound(nil, nil) // 4
	waves := cm.Advance()
	// Every round is an anchor: leaders 1, 2 and 3 (round 4 supports 3).
	if len(waves) != 3 {
		t.Fatalf("waves=%d want 3", len(waves))
	}
	for i, w := range waves {
		if w.Leader.Round() != types.Round(i+1) || len(w.Skipped) != 0 {
			t.Fatalf("wave %d: leader round %d, %d skipped; want round %d, none", i, w.Leader.Round(), len(w.Skipped), i+1)
		}
	}
	// Wave 2 commits leader 2 plus everything uncommitted in its
	// history: the 3 siblings of round-1's leader, itself = 4.
	if len(waves[1].Vertices) != 4 {
		t.Fatalf("wave 2 carries %d vertices, want 4", len(waves[1].Vertices))
	}
	total := 0
	for _, w := range waves {
		total += len(w.Vertices)
	}
	if total != 9 {
		t.Fatalf("committed %d vertices, want 9", total)
	}
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

func TestMissingLeaderSkipped(t *testing.T) {
	c := dagtest.NewCommittee(4)
	b := dagtest.NewBuilder(c, 0)
	cm := NewCommitter(b.Store, 4)
	b.NextRound(nil, nil)                           // 1
	b.NextRound(nil, nil)                           // 2
	b.NextRound(othersThan(LeaderOf(0, 3, 4)), nil) // 3 without its leader
	b.NextRound(nil, nil)                           // 4
	b.NextRound(nil, nil)                           // 5
	b.NextRound(nil, nil)                           // 6
	waves := cm.Advance()
	// Anchors 1 and 2 order; the instance starting at 3 finds its first
	// candidate absent forever and orders 5, the next one with support.
	if len(waves) != 3 {
		t.Fatalf("waves=%d want 3", len(waves))
	}
	if waves[2].Leader.Round() != 5 {
		t.Fatalf("third wave leader round %d want 5", waves[2].Leader.Round())
	}
	if got := waves[2].Skipped; len(got) != 1 || got[0] != (SkippedAnchor{Round: 3, Missing: true}) {
		t.Fatalf("third wave skipped %+v, want round 3 missing", got)
	}
	// Committed: rounds 1-4 fully (4+4+3+4) plus leader 5 itself; the
	// round-5 siblings await the next anchor.
	total := 0
	for _, w := range waves {
		total += len(w.Vertices)
	}
	if total != 16 {
		t.Fatalf("committed %d vertices, want 16", total)
	}
}

// A candidate that cannot be ordered — absent, or present but without
// support — costs its instance two rounds: the instance orders the
// candidate two rounds later, and the round between them gets no
// anchor. The instances after it are back to one anchor per round.
func TestMissingLeaderCostsOneInstanceTwoRounds(t *testing.T) {
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
			var leaders []types.Round
			var skipped []SkippedAnchor
			for r := 5; r <= 10; r++ {
				b.NextRound(nil, nil)
				for _, w := range cm.Advance() {
					leaders = append(leaders, w.Leader.Round())
					skipped = append(skipped, w.Skipped...)
				}
			}
			want := []types.Round{1, 2, 5, 6, 7, 8, 9}
			if fmt.Sprint(leaders) != fmt.Sprint(want) {
				t.Fatalf("ordered anchors %v, want %v", leaders, want)
			}
			if len(skipped) != 1 || skipped[0] != (SkippedAnchor{Round: 3, Missing: tc.missing}) {
				t.Fatalf("skipped %+v, want round 3 (missing=%v) only", skipped, tc.missing)
			}
		})
	}
}

func TestInsufficientSupportDefersCommit(t *testing.T) {
	c := dagtest.NewCommittee(4)
	b := dagtest.NewBuilder(c, 0)
	cm := NewCommitter(b.Store, 4)
	leader1 := LeaderOf(0, 1, 4)
	r1 := b.NextRound(nil, nil)
	_ = r1
	// Round 2 vertices reference only the non-leader vertices: build
	// manually with pruned parents.
	var keep []types.Digest
	for p, v := range r1 {
		if p != leader1 {
			keep = append(keep, v.Cert.Digest())
		}
	}
	b.NextRound(nil, func(blk *types.Block) {
		blk.Parents = append([]types.Digest(nil), keep...)
	})
	if waves := cm.Advance(); len(waves) != 0 {
		t.Fatal("leader committed with zero support")
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

// A committer seeded at an ordered anchor's round, over a store entered
// below it (the mid-epoch install shape), reproduces every later wave of
// a committer that ran from round 1: the same anchors, and the same
// vertices apart from ones the full committer had already committed.
func TestCommitterSeededAt(t *testing.T) {
	c := dagtest.NewCommittee(4)
	b := dagtest.NewBuilder(c, 0)
	for r := types.Round(1); r <= 14; r++ {
		var include []types.ReplicaID
		if r == 5 {
			include = othersThan(LeaderOf(0, 5, 4)) // a skipped candidate below the seed
		}
		b.NextRound(include, nil)
	}
	full := NewCommitter(b.Store, 4)
	waves := full.Advance()
	committedIn := map[*dag.Vertex]int{} // wave index that committed each vertex
	seedWave := -1
	for i, w := range waves {
		for _, v := range w.Vertices {
			committedIn[v] = i
		}
		if seedWave < 0 && len(w.Skipped) > 0 {
			seedWave = i
		}
	}
	if seedWave < 0 || waves[seedWave].Leader.Round() != 7 {
		t.Fatalf("fixture: no wave ordered past the missing round-5 leader")
	}
	seed := waves[seedWave].Leader.Round()

	base := seed - 4
	store := dag.NewStoreAt(0, 4, base)
	for r := base; r <= b.Store.HighestRound(); r++ {
		for _, v := range b.Store.AtRound(r) {
			if err := store.Add(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	seeded := NewCommitterAt(store, 4, seed)
	if seeded.LastLeaderRound() != seed {
		t.Fatalf("seed not applied: last leader round %d", seeded.LastLeaderRound())
	}
	got, want := seeded.Advance(), waves[seedWave+1:]
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("seeded committer ordered %d waves, full committer %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Leader != want[i].Leader {
			t.Fatalf("wave %d: seeded anchor (%d,%d), full anchor (%d,%d)", i,
				got[i].Leader.Round(), got[i].Leader.Proposer(), want[i].Leader.Round(), want[i].Leader.Proposer())
		}
		var kept []*dag.Vertex
		for _, v := range got[i].Vertices {
			if j, ok := committedIn[v]; ok && j < seedWave+1+i {
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
	// predict stacks leader r's wave on top of the claimed (but
	// uncommitted) earlier predictions, as the node's queue does.
	predict := func(r types.Round) {
		l, ok := b.Store.Get(r, LeaderOf(0, r, 4))
		if !ok {
			t.Fatalf("leader %d missing", r)
		}
		p := cm.PredictWave(l, func(d types.Digest) bool { return claimed[d] })
		for _, v := range p.Vertices {
			claimed[v.Cert.Digest()] = true
		}
		preds = append(preds, p)
	}

	b.NextRound(nil, nil) // 1
	b.NextRound(nil, nil) // 2
	predict(1)
	if cm.CommittedLen() != 0 {
		t.Fatal("PredictWave must not mark anything committed")
	}
	b.NextRound(nil, nil) // 3
	predict(2)
	b.NextRound(nil, nil) // 4 gives leader 3 support
	predict(3)
	waves := cm.Advance()
	if len(waves) != 3 {
		t.Fatalf("waves=%d want 3", len(waves))
	}
	for wi, got := range waves {
		pred := preds[wi]
		if pred.Leader != got.Leader {
			t.Fatalf("wave %d: predicted leader differs", wi)
		}
		if len(pred.Vertices) != len(got.Vertices) {
			t.Fatalf("wave %d: predicted %d vertices, committed %d", wi, len(pred.Vertices), len(got.Vertices))
		}
		for i := range pred.Vertices {
			if pred.Vertices[i] != got.Vertices[i] {
				t.Fatalf("wave %d: vertex order diverged at %d", wi, i)
			}
		}
	}
}

func TestAdvanceIdempotent(t *testing.T) {
	c := dagtest.NewCommittee(4)
	b := dagtest.NewBuilder(c, 0)
	cm := NewCommitter(b.Store, 4)
	b.NextRound(nil, nil)
	b.NextRound(nil, nil)
	if waves := cm.Advance(); len(waves) != 1 {
		t.Fatal("first advance should commit")
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
