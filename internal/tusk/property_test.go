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
// Advance after every insertion, must emit identical wave sequences —
// the same anchors, linearizing the same vertices. A committer seeded
// at one of the ordered anchors must then reproduce every later anchor,
// which is what makes instance boundaries safe to resume from.
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
				checkCommitRule(t, n, seed)
				return
			}
			for trial := 0; trial < propertyTrials; trial++ {
				checkCommitRule(t, n, int64(n)*1_000_000+int64(trial))
				if t.Failed() {
					return
				}
			}
		})
	}
}

// checkCommitRule runs one trial: a random DAG over n replicas, fed to
// one committer round by round and to several in random arrival orders.
func checkCommitRule(t *testing.T, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vs := randomDAG(rng, n, 10+rng.Intn(10))
	ref := runCommitter(t, n, vs, 0)
	for k := 0; k < 4; k++ {
		got := runCommitter(t, n, arrivalOrder(rng, vs), 0)
		if i := firstDifference(ref, got); i >= 0 {
			t.Errorf("seed %d (n=%d): arrival order %d diverges from round order at wave %d: %s vs %s",
				seed, n, k, i, describe(ref, i), describe(got, i))
			return
		}
	}
	if len(ref) == 0 {
		return
	}
	// Resume at a random ordered anchor, the way a mid-epoch snapshot
	// install does: the later anchors must be the reference's, and each
	// wave may only add vertices the reference committed earlier.
	at := rng.Intn(len(ref))
	seeded := runCommitter(t, n, arrivalOrder(rng, vs), ref[at].Leader.Round())
	want := ref[at+1:]
	earlier := map[*dag.Vertex]bool{}
	for _, w := range ref[:at+1] {
		for _, v := range w.Vertices {
			earlier[v] = true
		}
	}
	if len(seeded) != len(want) {
		t.Errorf("seed %d (n=%d): committer seeded at round %d ordered %d waves, want %d",
			seed, n, ref[at].Leader.Round(), len(seeded), len(want))
		return
	}
	for i, w := range seeded {
		var fresh []*dag.Vertex
		for _, v := range w.Vertices {
			if !earlier[v] {
				fresh = append(fresh, v)
			}
		}
		if w.Leader != want[i].Leader || !sameVertexList(fresh, want[i].Vertices) {
			t.Errorf("seed %d (n=%d): committer seeded at round %d diverges at wave %d: %s vs %s",
				seed, n, ref[at].Leader.Round(), i, describe(want, i), describe(seeded, i))
			return
		}
		for _, v := range want[i].Vertices {
			earlier[v] = true
		}
	}
}

// randomDAG builds a DAG of the given number of rounds: every round
// holds a random subset of at least 2f+1 proposers, and every vertex
// takes a random subset of at least 2f+1 of the previous round's
// vertices as parents. Certificates carry no signatures: the store
// checks that they cover their block, not who signed them.
func randomDAG(rng *rand.Rand, n, rounds int) []*dag.Vertex {
	q := crypto.QuorumSize(n)
	var all, prev []*dag.Vertex
	for r := types.Round(1); r <= types.Round(rounds); r++ {
		proposers := rng.Perm(n)[:q+rng.Intn(n-q+1)]
		cur := make([]*dag.Vertex, 0, len(proposers))
		for _, p := range proposers {
			var parents []types.Digest
			if r > 1 {
				for _, i := range rng.Perm(len(prev))[:q+rng.Intn(len(prev)-q+1)] {
					parents = append(parents, prev[i].Cert.Digest())
				}
			}
			b := &types.Block{Round: r, Proposer: types.ReplicaID(p), Shard: types.ShardID(p), Kind: types.NormalBlock, Parents: parents}
			cur = append(cur, &dag.Vertex{Block: b, Cert: &types.Certificate{BlockDigest: b.Digest(), Round: r, Proposer: b.Proposer}})
		}
		all = append(all, cur...)
		prev = cur
	}
	return all
}

// arrivalOrder returns a random causally valid order of vs: a vertex
// comes after all of its parents, and otherwise anything goes — a
// replica may hold round r+2 before the rest of round r arrives.
func arrivalOrder(rng *rand.Rand, vs []*dag.Vertex) []*dag.Vertex {
	waiting := make(map[types.Digest]int, len(vs))            // vertex → parents not yet arrived
	children := make(map[types.Digest][]*dag.Vertex, len(vs)) // parent → vertices waiting on it
	var ready []*dag.Vertex
	for _, v := range vs {
		waiting[v.Cert.Digest()] = len(v.Block.Parents)
		for _, p := range v.Block.Parents {
			children[p] = append(children[p], v)
		}
		if len(v.Block.Parents) == 0 {
			ready = append(ready, v)
		}
	}
	out := make([]*dag.Vertex, 0, len(vs))
	for len(ready) > 0 {
		i := rng.Intn(len(ready))
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
// after every insertion, with the committer seeded at seed.
func runCommitter(t *testing.T, n int, vs []*dag.Vertex, seed types.Round) []CommitWave {
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
	return waves
}

// firstDifference returns the index of the first wave where a and b
// differ in anchor or vertex list, or -1 when the sequences are equal.
func firstDifference(a, b []CommitWave) int {
	for i := 0; i < len(a) || i < len(b); i++ {
		if i >= len(a) || i >= len(b) || a[i].Leader != b[i].Leader || !sameVertexList(a[i].Vertices, b[i].Vertices) {
			return i
		}
	}
	return -1
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
	return "anchor r" + strconv.Itoa(int(w.Leader.Round())) + "/p" + strconv.Itoa(int(w.Leader.Proposer())) +
		" with " + strconv.Itoa(len(w.Vertices)) + " vertices"
}
