// Package tusk implements the commit rule over a DAG store (paper §2,
// after Danezis et al.'s Tusk), with every vertex an anchor candidate
// that is decided on its own (after Shoal++, Arun et al., and
// Mysticeti, Babel et al.).
//
// Every round r has n slots, one per proposer, in a fixed order that
// starts at the round's designated leader (LeaderOf, round-robin with
// an epoch offset — the paper's predetermined-leader property that
// Thunderbolt's proposal rules lean on) and rotates from there. The
// commit sequence is the slots in that order, round after round; each
// slot is decided commit or skip, and a slot is ordered only once
// every slot before it is decided. Let q = n − f be the quorum (2f+1
// at n = 3f+1). Slot (r, p) holding vertex v — or nothing, if no
// vertex for it is in the store — is decided by the first rule that
// applies:
//
//   - direct commit: q round-(r+1) vertices reference v;
//   - direct skip: q round-(r+1) vertices do not reference it (a
//     missing v is referenced by no vertex in the store, so a crashed
//     proposer's slot is skipped as soon as its next round holds a
//     quorum, and never stalls the slots behind it);
//   - indirect: otherwise, take the anchor: the first slot, in order
//     from round r+2 on, that is not decided skip. While the anchor is
//     undecided so is this slot; once it is decided commit, commit this
//     slot if the anchor vertex's causal history holds more than f of
//     v's round-(r+1) referencers, and skip it otherwise.
//
// A committed slot orders its vertex's uncommitted causal history as
// one commit wave; a skipped slot's vertex still commits inside a later
// wave's history, as every non-anchor vertex does.
//
// Safety — every honest replica decides every slot it decides the same
// way, so all of them order the same wave sequence. The argument needs
// two facts about the store: one certified vertex per slot (two blocks
// of one slot cannot both gather q votes when each honest replica
// votes once per slot), and every vertex above the store's base naming
// at least q distinct parents of the round below it, all present
// (dag.Store.Add refuses a vertex with fewer, and keeps one out until
// its parents are in). References are a property of the vertices
// alone, so every count below is a property of the DAG, not of when a
// replica saw it.
//
//  1. Direct decisions never conflict. Round r+1 has at most n slots; q
//     referencers and q non-referencers would need 2q > n of them.
//  2. A direct commit forces indirect commit. With q referencers, any
//     round-(r+2) vertex has q parents at r+1, which meet the
//     referencers in at least 2q − n = n − 2f ≥ f+1 vertices. Every
//     vertex at round ≥ r+2 has a round-(r+2) vertex in its history, so
//     any anchor's history holds more than f referencers.
//  3. A direct skip forces indirect skip. With q non-referencers, at
//     most n − q = f vertices reference v anywhere, so no anchor's
//     history holds more than f.
//  4. Two indirect decisions agree. By induction on the depth of the
//     decisions' derivations: the slots from round r+2 up to either
//     replica's anchor are decided by shallower derivations, so both
//     agree on them, hence on which slot is the first not skipped — the
//     same anchor, decided commit by both. Its causal history is a
//     fixed set, so the count of v's referencers in it is the same.
//
// Decisions are also final: a direct count only ever grows toward its
// threshold and the other side can never reach its own (1), and an
// anchor's decision and history do not change. So a slot decided once
// stays decided, and the slot order makes the wave sequence a function
// of the DAG. Each committed slot commits its whole uncommitted causal
// history, so the committed set stays causally closed — the invariant
// the pruning walk in dag.Store.Linearize relies on.
//
// Three shortcuts look tempting and are unsafe; the property test in
// this package catches each. Skipping on f+1 non-references lets one
// replica skip a slot that another, seeing a different f+1 first,
// commits through an anchor. Committing indirectly because the anchor
// reaches v at all (reachability alone, as the old per-round chain walk
// did) contradicts a direct skip, where f referencers may still exist.
// And ordering a slot while an earlier one is undecided lets that
// earlier slot's later commit land behind it on one replica and in
// front of it on another.
package tusk

import (
	"thunderbolt/internal/crypto"
	"thunderbolt/internal/dag"
	"thunderbolt/internal/types"
)

// LeaderRound reports whether r carries a leader: every round from 1
// does.
func LeaderRound(r types.Round) bool { return r >= 1 }

// LeaderOf returns the leader replica of round r: its first slot. The
// epoch offsets the rotation so shard reconfigurations also rotate
// leader duty; round 1 of epoch 0 is led by replica 0.
func LeaderOf(epoch types.Epoch, r types.Round, n int) types.ReplicaID {
	if !LeaderRound(r) {
		panic("tusk: leader requested for round 0")
	}
	idx := (uint64(r) - 1 + uint64(epoch)) % uint64(n)
	return types.ReplicaID(idx)
}

// SlotProposer returns the proposer of round r's i-th slot in the
// commit order, 0 ≤ i < n: the leader first, then on around the
// committee.
func SlotProposer(epoch types.Epoch, r types.Round, n, i int) types.ReplicaID {
	return types.ReplicaID((int(LeaderOf(epoch, r, n)) + i) % n)
}

// SlotIndex is SlotProposer's inverse: p's position in round r's order.
func SlotIndex(epoch types.Epoch, r types.Round, n int, p types.ReplicaID) int {
	return (int(p) - int(LeaderOf(epoch, r, n)) + n) % n
}

// CommitWave is the outcome of one committed slot: the slot's vertex
// (Leader), the newly committed vertices of its causal history (the
// slot's vertex included, deterministic order), whether the slot was
// committed on its own support (Direct) or through a later anchor, and
// the slots decided skip since the previous wave.
type CommitWave struct {
	Leader   *dag.Vertex
	Vertices []*dag.Vertex
	Direct   bool
	Skipped  []SkippedSlot
}

// SkippedSlot is one slot decided skip: its round and proposer, and
// whether its vertex was missing from the local DAG when it was decided
// (otherwise it was short of support).
type SkippedSlot struct {
	Round    types.Round
	Proposer types.ReplicaID
	Missing  bool
}

// decision is a slot's verdict.
type decision uint8

const (
	undecided decision = iota
	commitDirect
	commitIndirect
	skip
)

type slot struct {
	round    types.Round
	proposer types.ReplicaID
}

// Committer applies the commit rule incrementally as vertices arrive.
// It is not safe for concurrent use; the node's event loop owns it.
type Committer struct {
	store *dag.Store
	n     int
	f     int

	committed map[types.Digest]bool // by certificate digest
	// decided is the last round whose slots are all decided, and next
	// how many slots of round decided+1 are: the next slot to decide.
	decided types.Round
	next    int
	// skipped holds the slots decided skip since the last wave.
	skipped []SkippedSlot
	// memo keeps the final decisions of slots above the next one, made
	// while they served as anchors; an anchor search can revisit them on
	// every Advance until the slot below them is decided.
	memo map[slot]decision
}

// NewCommitter builds a committer for one epoch's store.
func NewCommitter(store *dag.Store, n int) *Committer {
	return NewCommitterAt(store, n, 0)
}

// NewCommitterAt builds a committer whose first slot is round seed+1's
// first — the mid-epoch snapshot install case, where seed is a round
// the committee had fully decided at the snapshot and the snapshot
// state already contains every wave up to it. seed must be such a
// round: started inside a partly decided round, the committer would
// order slots of it the committee ordered differently. The store may
// be entered lower than seed; the first wave then also linearizes
// history the committee committed at or below seed, which
// deduplicates against restored state exactly like a WAL-restart
// replay. seed 0 is an ordinary epoch committer.
func NewCommitterAt(store *dag.Store, n int, seed types.Round) *Committer {
	return &Committer{
		store:     store,
		n:         n,
		f:         crypto.FaultBound(n),
		committed: make(map[types.Digest]bool),
		decided:   seed,
	}
}

// Committed reports whether the vertex with certificate digest d has
// been committed.
func (c *Committer) Committed(d types.Digest) bool { return c.committed[d] }

// Forget drops commit bookkeeping for vertices the DAG store has
// pruned (committed-wave GC). Once a vertex is out of the store no
// linearization can reach it, so its committed flag is dead weight;
// forgetting it keeps the map's size proportional to the retention
// horizon instead of the epoch's full history.
func (c *Committer) Forget(ds []types.Digest) {
	for _, d := range ds {
		delete(c.committed, d)
	}
}

// CommittedLen returns the number of retained committed-vertex flags
// (observability for GC tests).
func (c *Committer) CommittedLen() int { return len(c.committed) }

// DecidedRound returns the last round whose slots are all decided.
func (c *Committer) DecidedRound() types.Round { return c.decided }

// Next returns the next slot to decide.
func (c *Committer) Next() (types.Round, types.ReplicaID) {
	r := c.decided + 1
	return r, SlotProposer(c.store.Epoch(), r, c.n, c.next)
}

// Advance re-evaluates the commit rule after new vertices landed in
// the store, returning zero or more commit waves in order: one per
// slot decided commit, until a slot cannot be decided yet.
func (c *Committer) Advance() []CommitWave {
	var waves []CommitWave
	for {
		r, p := c.Next()
		d, v := c.decide(r, p)
		switch d {
		case undecided:
			return waves
		case skip:
			c.skipped = append(c.skipped, SkippedSlot{Round: r, Proposer: p, Missing: v == nil})
		default:
			w := c.commitSlot(v)
			w.Direct = d == commitDirect
			w.Skipped, c.skipped = c.skipped, nil
			waves = append(waves, w)
		}
		if c.next++; c.next == c.n {
			c.next = 0
			c.decided = r
			for s := range c.memo {
				if s.round <= r {
					delete(c.memo, s)
				}
			}
		}
	}
}

// decide applies the slot rule to (r, p) and returns the verdict with
// the slot's vertex, nil when the store has none.
func (c *Committer) decide(r types.Round, p types.ReplicaID) (decision, *dag.Vertex) {
	v, _ := c.store.Get(r, p)
	if d, ok := c.memo[slot{r, p}]; ok {
		return d, v
	}
	q := c.n - c.f
	refs := 0
	if v != nil {
		refs = c.store.SupportFor(v)
	}
	switch {
	case refs >= q:
		return commitDirect, v
	case c.store.CountAtRound(r+1)-refs >= q:
		return skip, v
	}
	anchor := c.anchorAbove(r)
	if anchor == nil {
		return undecided, v
	}
	d := skip
	if v != nil && c.referencersIn(anchor, v) > c.f {
		d = commitIndirect
	}
	if c.memo == nil {
		c.memo = make(map[slot]decision)
	}
	c.memo[slot{r, p}] = d
	return d, v
}

// anchorAbove returns the vertex of the first slot from round r+2 on
// that is not decided skip, when that slot is decided commit, and nil
// while it is undecided.
func (c *Committer) anchorAbove(r types.Round) *dag.Vertex {
	epoch := c.store.Epoch()
	// A slot of the highest round cannot be decided: both direct rules
	// need the round above it.
	for a := r + 2; a < c.store.HighestRound(); a++ {
		for i := 0; i < c.n; i++ {
			switch d, v := c.decide(a, SlotProposer(epoch, a, c.n, i)); d {
			case undecided:
				return nil
			case commitDirect, commitIndirect:
				return v
			}
		}
	}
	return nil
}

// referencersIn counts the round-(r+1) vertices that reference v (of
// round r) and lie in anchor's causal history. Only indirect decisions
// ask, so the walk per referencer is not worth sharing.
func (c *Committer) referencersIn(anchor, v *dag.Vertex) int {
	target := v.Cert.Digest()
	count := 0
	for _, w := range c.store.AtRound(v.Round() + 1) {
		for _, p := range w.Block.Parents {
			if p == target {
				if c.store.InCausalHistory(anchor, w) {
					count++
				}
				break
			}
		}
	}
	return count
}

// PredictWave linearizes what a commit of slot vertex leader would
// commit if it were the next wave, treating digests accepted by
// claimed as already committed, without marking anything — the
// speculative execution prediction. The caller supplies claimed to
// cover waves it has predicted but not yet committed, so stacked
// predictions compose exactly like consecutive commits. Linearize is
// stable once a vertex is in the store (ancestors insert first), so the
// prediction for a slot can only be wrong when a slot before it, or the
// slot itself, is decided skip — the misprediction case the speculation
// layer detects by comparing vertex lists at commit time.
func (c *Committer) PredictWave(leader *dag.Vertex, claimed func(types.Digest) bool) CommitWave {
	vs := c.store.Linearize(leader, func(d types.Digest) bool { return c.committed[d] || claimed(d) })
	return CommitWave{Leader: leader, Vertices: vs}
}

// commitSlot linearizes one committed slot vertex's uncommitted causal
// history.
func (c *Committer) commitSlot(v *dag.Vertex) CommitWave {
	vs := c.store.Linearize(v, func(d types.Digest) bool { return c.committed[d] })
	for _, x := range vs {
		c.committed[x.Cert.Digest()] = true
	}
	return CommitWave{Leader: v, Vertices: vs}
}
