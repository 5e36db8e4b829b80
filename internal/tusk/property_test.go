package tusk

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
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
// slots skipped between them. Committers that also read blocks received
// from their proposers — uncertified ones, and either block of an
// equivocating proposer's pair, the two naming different parents — may
// decide slots sooner through the fast rule, but never otherwise: each
// one's waves extend the DAG-only committer's, and any two agree where
// both decided. A committer seeded at a fully decided round must then
// reproduce every later wave, which is what makes a snapshot's round
// boundary safe to resume from.
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
				if msg := checkCommitRule(t, n, seed, &ruleTally{}, 0); msg != "" {
					t.Error(msg)
				}
				return
			}
			var tally ruleTally
			for trial := 0; trial < propertyTrials; trial++ {
				if msg := checkCommitRule(t, n, int64(n)*1_000_000+int64(trial), &tally, 0); msg != "" {
					t.Error(msg)
					return
				}
			}
			// The DAGs must exercise every rule, or agreement shows little.
			if tally.direct == 0 || tally.fast == 0 || tally.indirect == 0 || tally.skipped == 0 {
				t.Fatalf("rules exercised: %+v", tally)
			}
		})
	}
}

// TestCommitRulePropertyCatchesQuorumFastCommit plants the unsafe fast
// rule — commit on q received references, not 3f+1 — and requires the
// property check to catch it: an equivocating proposer's referencing
// block lets one replica commit a slot that an anchor's history, short
// of referencers, skips for the others.
func TestCommitRulePropertyCatchesQuorumFastCommit(t *testing.T) {
	for _, n := range []int{4, 7} {
		t.Run("n="+strconv.Itoa(n), func(t *testing.T) {
			q := crypto.QuorumSize(n)
			for trial := 0; trial < propertyTrials; trial++ {
				if checkCommitRule(t, n, int64(n)*1_000_000+int64(trial), &ruleTally{}, q) != "" {
					t.Logf("caught at trial %d", trial)
					return
				}
			}
			t.Fatalf("a fast commit on %d received references passed %d trials", q, propertyTrials)
		})
	}
}

// ruleTally counts the reference committers' decisions by rule, and the
// fast commits of the committers that read received blocks.
type ruleTally struct{ direct, fast, indirect, skipped int }

// checkCommitRule runs one trial: a random DAG over n replicas, fed to
// one committer round by round and to several in random arrival orders,
// some also reading received blocks. It returns what diverged, or "".
// fastQuorum, when not 0, replaces the fast rule's threshold.
func checkCommitRule(t *testing.T, n int, seed int64, tally *ruleTally, fastQuorum int) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vs, blocks := randomDAG(rng, n, 10+rng.Intn(10))
	ref, decided := runCommitter(t, n, vs, 0, nil, 0)
	for _, w := range ref {
		if w.Direct {
			tally.direct++
		} else {
			tally.indirect++
		}
		tally.skipped += len(w.Skipped)
	}
	for k := 0; k < 4; k++ {
		got, _ := runCommitter(t, n, arrivalOrder(rng, vs), 0, nil, 0)
		if i := firstDifference(ref, got); i >= 0 {
			return fmt.Sprintf("seed %d (n=%d): arrival order %d diverges from round order at wave %d: %s vs %s",
				seed, n, k, i, describe(ref, i), describe(got, i))
		}
	}
	var fast [][]CommitWave
	for k := 0; k < 4; k++ {
		order := arrivalOrder(rng, vs)
		got, _ := runCommitter(t, n, order, 0, receipts(rng, blocks, len(order)), fastQuorum)
		i := firstConflict(ref, got)
		if i < 0 && len(got) < len(ref) {
			i = len(got)
		}
		if i >= 0 {
			return fmt.Sprintf("seed %d (n=%d): committer reading received blocks %d diverges from the DAG's order at wave %d: %s vs %s",
				seed, n, k, i, describe(ref, i), describe(got, i))
		}
		for j, other := range fast {
			if i := firstConflict(other, got); i >= 0 {
				return fmt.Sprintf("seed %d (n=%d): committers reading received blocks %d and %d diverge at wave %d: %s vs %s",
					seed, n, j, k, i, describe(other, i), describe(got, i))
			}
		}
		fast = append(fast, got)
		for _, w := range got {
			if w.Fast {
				tally.fast++
			}
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
		return ""
	}
	pick := seeds[rng.Intn(len(seeds))]
	at, s := pick[0], types.Round(pick[1])
	seeded, _ := runCommitter(t, n, arrivalOrder(rng, vs), s, nil, 0)
	want := ref[at:]
	earlier := map[*dag.Vertex]bool{}
	for _, w := range ref[:at] {
		for _, v := range w.Vertices {
			earlier[v] = true
		}
	}
	if len(seeded) != len(want) {
		return fmt.Sprintf("seed %d (n=%d): committer seeded at round %d ordered %d waves, want %d",
			seed, n, s, len(seeded), len(want))
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
			return fmt.Sprintf("seed %d (n=%d): committer seeded at round %d diverges at wave %d: %s vs %s",
				seed, n, s, i, describe(want, i), describe(seeded, i))
		}
		for _, v := range want[i].Vertices {
			earlier[v] = true
		}
	}
	return ""
}

// slotKey names a slot in the tests' block maps.
type slotKey struct {
	round    types.Round
	proposer types.ReplicaID
}

// randomDAG builds a DAG of the given number of rounds, and the blocks
// proposed for every slot. Every proposer proposes every round, naming
// at least 2f+1 of the previous round's vertices; a random subset of at
// least 2f+1 blocks is certified into the round's vertices, and the
// others stay uncertified. Each vertex draws how likely the next round
// is to reference it, so every count of referencers occurs — the
// counts the slot rule's thresholds split on — and a block is topped up
// with random parents to reach the quorum. Up to f proposers
// equivocate: their slot holds a second block, which names the
// previous round's vertices the first omits (topped up to the quorum),
// and either may be the one certified. blocks maps each slot to its
// block(s). Certificates carry no signatures: the store checks that
// they cover their block, not who signed them.
func randomDAG(rng *rand.Rand, n, rounds int) ([]*dag.Vertex, map[slotKey][]*types.Block) {
	q := crypto.QuorumSize(n)
	byz := rng.Perm(n)[:rng.Intn(crypto.FaultBound(n)+1)]
	blocks := make(map[slotKey][]*types.Block, n*rounds)
	var all, prev []*dag.Vertex
	var pull []float64 // per vertex of prev: how likely it is referenced
	// pick chooses a parent set from prev: want reports the wanted
	// parents, and random others top the set up to the quorum.
	pick := func(r types.Round, want func(i int) bool) []types.Digest {
		if r == 1 {
			return nil
		}
		take := make([]bool, len(prev))
		k := 0
		for i := range prev {
			if want(i) {
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
		var parents []types.Digest
		for i, v := range prev {
			if take[i] {
				parents = append(parents, v.Cert.Digest())
			}
		}
		return parents
	}
	for r := types.Round(1); r <= types.Round(rounds); r++ {
		for p := 0; p < n; p++ {
			b := &types.Block{Round: r, Proposer: types.ReplicaID(p), Shard: types.ShardID(p), Kind: types.NormalBlock,
				Parents: pick(r, func(i int) bool { return rng.Float64() < pull[i] })}
			blocks[slotKey{r, b.Proposer}] = []*types.Block{b}
		}
		for _, p := range byz {
			k := slotKey{r, types.ReplicaID(p)}
			first := blocks[k][0]
			alt := &types.Block{Round: r, Proposer: k.proposer, Shard: types.ShardID(p), Kind: types.NormalBlock,
				ProposedUnixNano: 1,
				Parents:          pick(r, func(i int) bool { return !slices.Contains(first.Parents, prev[i].Cert.Digest()) })}
			blocks[k] = append(blocks[k], alt)
			if rng.Intn(2) == 0 {
				blocks[k][0], blocks[k][1] = alt, first
			}
		}
		certified := rng.Perm(n)[:q+rng.Intn(n-q+1)]
		cur := make([]*dag.Vertex, 0, len(certified))
		for _, p := range certified {
			b := blocks[slotKey{r, types.ReplicaID(p)}][0]
			cur = append(cur, &dag.Vertex{Block: b, Cert: &types.Certificate{BlockDigest: b.Digest(), Round: r, Proposer: b.Proposer}})
		}
		all = append(all, cur...)
		prev = cur
		pull = pull[:0]
		for range cur {
			pull = append(pull, rng.Float64())
		}
	}
	return all, blocks
}

// receipt is a block one replica received from its proposer, held from
// the at-th vertex insertion on.
type receipt struct {
	b  *types.Block
	at int
}

// receipts draws what one replica receives from the proposers over
// `arrivals` vertex insertions: most slots' blocks — of an equivocating
// proposer's pair, either one — each at a random point of the run.
func receipts(rng *rand.Rand, blocks map[slotKey][]*types.Block, arrivals int) map[slotKey]receipt {
	out := make(map[slotKey]receipt, len(blocks))
	for k, bs := range blocks {
		if rng.Intn(10) == 0 {
			continue
		}
		out[k] = receipt{b: bs[rng.Intn(len(bs))], at: rng.Intn(arrivals + 1)}
	}
	return out
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
// after every insertion, with the committer seeded at seed. With got
// non-nil the committer reads the blocks received so far (the fast
// rule), with fastQuorum, when not 0, as that rule's threshold. It
// returns the waves and the last fully decided round.
func runCommitter(t *testing.T, n int, vs []*dag.Vertex, seed types.Round, got map[slotKey]receipt, fastQuorum int) ([]CommitWave, types.Round) {
	t.Helper()
	store := dag.NewStore(0, n)
	cm := NewCommitterAt(store, n, seed)
	inserted := 0
	if got != nil {
		cm.Receive(func(r types.Round, p types.ReplicaID) *types.Block {
			if rc, ok := got[slotKey{r, p}]; ok && rc.at <= inserted {
				return rc.b
			}
			return nil
		})
	}
	if fastQuorum != 0 {
		cm.fastQuorum = fastQuorum
	}
	var waves []CommitWave
	for _, v := range vs {
		if err := store.Add(v); err != nil {
			t.Fatalf("insert (%d,%d): %v", v.Round(), v.Proposer(), err)
		}
		inserted++
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

// firstConflict is firstDifference over the waves both a and b hold:
// one may have decided further than the other.
func firstConflict(a, b []CommitWave) int {
	m := min(len(a), len(b))
	if i := firstDifference(a[:m], b[:m]); i >= 0 {
		return i
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
