package tusk

import (
	"math/rand"
	"os"
	"strconv"
	"testing"

	"thunderbolt/internal/crypto"
	"thunderbolt/internal/dag"
	"thunderbolt/internal/types"
)

// propertyTrials is how many random DAGs TestCommitRuleProperty checks
// per committee size.
const propertyTrials = 2000

// TestCommitRuleProperty checks that the commit rule is a function of
// the DAG and not of the order vertices arrive in: over random DAGs,
// committers fed different causally valid arrival orders, each calling
// Advance after every insertion, must decide every slot alike — the
// same slots committed, linearizing the same vertices, and the same
// slots skipped between them. A committer seeded at a fully decided
// round must then reproduce every later wave, which is what makes a
// snapshot's round boundary safe to resume from.
//
// Each trial replays from its seed alone:
//
//	TUSK_SEED=<seed> go test -run TestCommitRuleProperty ./internal/tusk
func TestCommitRuleProperty(t *testing.T) {
	for _, n := range []int{4, 7} {
		t.Run("n="+strconv.Itoa(n), func(t *testing.T) {
			if s := os.Getenv("TUSK_SEED"); s != "" {
				seed, err := strconv.ParseInt(s, 10, 64)
				if err != nil {
					t.Fatalf("TUSK_SEED: %v", err)
				}
				checkCommitRule(t, n, seed, &ruleTally{})
				return
			}
			var tally ruleTally
			for trial := 0; trial < propertyTrials; trial++ {
				checkCommitRule(t, n, int64(n)*1_000_000+int64(trial), &tally)
				if t.Failed() {
					return
				}
			}
			// The DAGs must exercise every rule, or agreement shows little.
			if tally.direct == 0 || tally.indirect == 0 || tally.skipped == 0 {
				t.Fatalf("rules exercised: %+v", tally)
			}
		})
	}
}

// ruleTally counts the reference committers' decisions by rule.
type ruleTally struct{ direct, indirect, skipped int }

// checkCommitRule runs one trial: a random DAG over n replicas, fed to
// one committer round by round and to several in random arrival orders.
func checkCommitRule(t *testing.T, n int, seed int64, tally *ruleTally) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vs := randomDAG(rng, n, 10+rng.Intn(10))
	ref, decided := runCommitter(t, n, vs, 0)
	for _, w := range ref {
		if w.Direct {
			tally.direct++
		} else {
			tally.indirect++
		}
		tally.skipped += len(w.Skipped)
	}
	for k := 0; k < 4; k++ {
		got, _ := runCommitter(t, n, arrivalOrder(rng, vs), 0)
		if i := firstDifference(ref, got); i >= 0 {
			t.Errorf("seed %d (n=%d): arrival order %d diverges from round order at wave %d: %s vs %s",
				seed, n, k, i, describe(ref, i), describe(got, i))
			return
		}
	}
	// Resume at a random fully decided round s, the way a mid-epoch
	// snapshot install does: the waves ref[:at] lie at or below it and
	// every later one above it. The later waves must be the reference's,
	// and each may only add vertices the reference committed earlier.
	var seeds [][2]int // (at, s)
	for at := 0; at <= len(ref); at++ {
		lo, hi := 1, int(decided)
		if at > 0 {
			lo = int(ref[at-1].Leader.Round())
		}
		if at < len(ref) {
			hi = int(ref[at].Leader.Round()) - 1
		}
		for s := lo; s <= hi; s++ {
			seeds = append(seeds, [2]int{at, s})
		}
	}
	if len(seeds) == 0 {
		return
	}
	pick := seeds[rng.Intn(len(seeds))]
	at, s := pick[0], types.Round(pick[1])
	seeded, _ := runCommitter(t, n, arrivalOrder(rng, vs), s)
	want := ref[at:]
	earlier := map[*dag.Vertex]bool{}
	for _, w := range ref[:at] {
		for _, v := range w.Vertices {
			earlier[v] = true
		}
	}
	if len(seeded) != len(want) {
		t.Errorf("seed %d (n=%d): committer seeded at round %d ordered %d waves, want %d",
			seed, n, s, len(seeded), len(want))
		return
	}
	for i, w := range seeded {
		var fresh []*dag.Vertex
		for _, v := range w.Vertices {
			if !earlier[v] {
				fresh = append(fresh, v)
			}
		}
		if w.Leader != want[i].Leader || !sameVertexList(fresh, want[i].Vertices) ||
			!sameSkips(skipsAbove(w.Skipped, s), skipsAbove(want[i].Skipped, s)) {
			t.Errorf("seed %d (n=%d): committer seeded at round %d diverges at wave %d: %s vs %s",
				seed, n, s, i, describe(want, i), describe(seeded, i))
			return
		}
		for _, v := range want[i].Vertices {
			earlier[v] = true
		}
	}
}

// randomDAG builds a DAG of the given number of rounds: every round
// holds a random subset of at least 2f+1 proposers, and every vertex
// takes at least 2f+1 of the previous round's vertices as parents. Each
// vertex draws how likely the next round is to reference it, so every
// count of referencers occurs — the counts the slot rule's thresholds
// split on — and a vertex is topped up with random parents to reach the
// quorum. Certificates carry no signatures: the store checks that they
// cover their block, not who signed them.
func randomDAG(rng *rand.Rand, n, rounds int) []*dag.Vertex {
	q := crypto.QuorumSize(n)
	var all, prev []*dag.Vertex
	var pull []float64 // per vertex of prev: how likely it is referenced
	for r := types.Round(1); r <= types.Round(rounds); r++ {
		proposers := rng.Perm(n)[:q+rng.Intn(n-q+1)]
		cur := make([]*dag.Vertex, 0, len(proposers))
		for _, p := range proposers {
			var parents []types.Digest
			if r > 1 {
				take := make([]bool, len(prev))
				k := 0
				for i := range prev {
					if rng.Float64() < pull[i] {
						take[i] = true
						k++
					}
				}
				for _, i := range rng.Perm(len(prev)) {
					if k >= q {
						break
					}
					if !take[i] {
						take[i] = true
						k++
					}
				}
				for i, v := range prev {
					if take[i] {
						parents = append(parents, v.Cert.Digest())
					}
				}
			}
			b := &types.Block{Round: r, Proposer: types.ReplicaID(p), Shard: types.ShardID(p), Kind: types.NormalBlock, Parents: parents}
			cur = append(cur, &dag.Vertex{Block: b, Cert: &types.Certificate{BlockDigest: b.Digest(), Round: r, Proposer: b.Proposer}})
		}
		all = append(all, cur...)
		prev = cur
		pull = pull[:0]
		for range cur {
			pull = append(pull, rng.Float64())
		}
	}
	return all
}

// arrivalOrder returns a random causally valid order of vs: a vertex
// comes after all of its parents, and otherwise anything goes — a
// replica may hold round r+2 before the rest of round r arrives. Each
// vertex is due at its round plus, for about one in five, a lag of up
// to eight rounds, and the earliest due of the ready vertices arrives
// next (ties at random): a late vertex lets the rounds above it, and
// the decisions they carry, land first.
func arrivalOrder(rng *rand.Rand, vs []*dag.Vertex) []*dag.Vertex {
	waiting := make(map[types.Digest]int, len(vs))            // vertex → parents not yet arrived
	children := make(map[types.Digest][]*dag.Vertex, len(vs)) // parent → vertices waiting on it
	due := make(map[*dag.Vertex]int, len(vs))
	var ready []*dag.Vertex
	for _, v := range vs {
		waiting[v.Cert.Digest()] = len(v.Block.Parents)
		for _, p := range v.Block.Parents {
			children[p] = append(children[p], v)
		}
		due[v] = int(v.Round())
		if rng.Intn(5) == 0 {
			due[v] += 1 + rng.Intn(8)
		}
		if len(v.Block.Parents) == 0 {
			ready = append(ready, v)
		}
	}
	out := make([]*dag.Vertex, 0, len(vs))
	for len(ready) > 0 {
		rng.Shuffle(len(ready), func(i, j int) { ready[i], ready[j] = ready[j], ready[i] })
		i := 0
		for j := range ready {
			if due[ready[j]] < due[ready[i]] {
				i = j
			}
		}
		v := ready[i]
		ready[i] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		out = append(out, v)
		for _, c := range children[v.Cert.Digest()] {
			if waiting[c.Cert.Digest()]--; waiting[c.Cert.Digest()] == 0 {
				ready = append(ready, c)
			}
		}
	}
	return out
}

// runCommitter inserts vs in order into a fresh store, calling Advance
// after every insertion, with the committer seeded at seed. It returns
// the waves and the last fully decided round.
func runCommitter(t *testing.T, n int, vs []*dag.Vertex, seed types.Round) ([]CommitWave, types.Round) {
	t.Helper()
	store := dag.NewStore(0, n)
	cm := NewCommitterAt(store, n, seed)
	var waves []CommitWave
	for _, v := range vs {
		if err := store.Add(v); err != nil {
			t.Fatalf("insert (%d,%d): %v", v.Round(), v.Proposer(), err)
		}
		waves = append(waves, cm.Advance()...)
	}
	return waves, cm.DecidedRound()
}

// firstDifference returns the index of the first wave where a and b
// differ in slot, vertex list or the slots skipped before it, or -1
// when the sequences are equal. Whether a slot was decided directly,
// and whether a skipped slot's vertex had arrived, may differ.
func firstDifference(a, b []CommitWave) int {
	for i := 0; i < len(a) || i < len(b); i++ {
		if i >= len(a) || i >= len(b) || a[i].Leader != b[i].Leader ||
			!sameVertexList(a[i].Vertices, b[i].Vertices) || !sameSkips(a[i].Skipped, b[i].Skipped) {
			return i
		}
	}
	return -1
}

// sameSkips compares skipped slots by position.
func sameSkips(a, b []SkippedSlot) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Round != b[i].Round || a[i].Proposer != b[i].Proposer {
			return false
		}
	}
	return true
}

// skipsAbove keeps the skipped slots above round s.
func skipsAbove(ss []SkippedSlot, s types.Round) []SkippedSlot {
	var out []SkippedSlot
	for _, x := range ss {
		if x.Round > s {
			out = append(out, x)
		}
	}
	return out
}

func sameVertexList(a, b []*dag.Vertex) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// describe renders wave i of ws for a failure message.
func describe(ws []CommitWave, i int) string {
	if i >= len(ws) {
		return "no wave"
	}
	w := ws[i]
	return "slot r" + strconv.Itoa(int(w.Leader.Round())) + "/p" + strconv.Itoa(int(w.Leader.Proposer())) +
		" with " + strconv.Itoa(len(w.Vertices)) + " vertices after " + strconv.Itoa(len(w.Skipped)) + " skips"
}
