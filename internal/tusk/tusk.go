// Package tusk implements the Tusk commit rule over a DAG store
// (paper §2, after Danezis et al.), pipelined so that every round
// carries an anchor (after Shoal, Spiegelman et al.).
//
// Every round has a designated leader, chosen round-robin with an
// epoch offset (the paper's predetermined-leader property that
// Thunderbolt's proposal rules lean on). The commit sequence is built
// one instance at a time. An instance starts at round s, one past the
// last ordered anchor, and its anchor candidates are the leaders of
// rounds s, s+2, s+4, …. The first candidate whose vertex has f+1
// support in the next round is committed directly; from it a backward
// chain walk in steps of two rounds collects every earlier candidate
// (down to s) that the current chain element causally references. The
// earliest element of that chain is the one anchor the instance
// orders: its uncommitted causal history is linearized into one commit
// wave, and the next instance starts one round above it. With no
// faults the leader of round s has support and is its own chain, so
// every round orders an anchor.
//
// Safety — why all honest replicas order the same anchor sequence:
//
//   - Within one instance, candidates are two rounds apart, so
//     Bullshark's argument holds unchanged: a leader vertex with f+1
//     support at round r+1 is in the causal history of every vertex at
//     round ≥ r+2 (each such vertex has 2f+1 parents at r+1, which
//     intersect the f+1 supporters), so it lies on every chain walked
//     from a later candidate of the same instance.
//   - Hence two replicas that directly commit different candidates of
//     one instance agree on the chain below the lower of the two, and in
//     particular on its earliest element — the anchor the instance
//     orders. The chain is a pure graph property of vertices already in
//     the store, so it does not depend on when support became visible
//     locally.
//   - So every instance boundary (the ordered anchor's round + 1) is
//     the same everywhere, and induction over instances gives one
//     anchor sequence.
//   - Each ordered anchor commits its whole uncommitted causal history,
//     so the committed set stays causally closed — the invariant the
//     pruning walk in dag.Store.Linearize relies on.
//
// Making every round a candidate of one instance (a chain walk in steps
// of one) is not safe: f+1 support at r+1 does not put a leader into
// the history of round r+1's leader, so replicas can walk different
// chains. The property test in this package catches that rule.
package tusk

import (
	"thunderbolt/internal/crypto"
	"thunderbolt/internal/dag"
	"thunderbolt/internal/types"
)

// LeaderRound reports whether r carries a leader: every round from 1
// does.
func LeaderRound(r types.Round) bool { return r >= 1 }

// LeaderOf returns the leader replica of round r. The epoch offsets
// the rotation so shard reconfigurations also rotate leader duty;
// round 1 of epoch 0 is led by replica 0.
func LeaderOf(epoch types.Epoch, r types.Round, n int) types.ReplicaID {
	if !LeaderRound(r) {
		panic("tusk: leader requested for round 0")
	}
	idx := (uint64(r) - 1 + uint64(epoch)) % uint64(n)
	return types.ReplicaID(idx)
}

// CommitWave is the outcome of one ordered anchor: the leader vertex,
// the newly committed vertices of its causal history (leader included,
// deterministic order), and the candidates of its instance that were
// passed over on the way to it.
type CommitWave struct {
	Leader   *dag.Vertex
	Vertices []*dag.Vertex
	Skipped  []SkippedAnchor
}

// SkippedAnchor is one anchor candidate an instance passed over: its
// round, and whether its leader vertex was missing from the local DAG
// (otherwise it was short of support and off the committed chain).
type SkippedAnchor struct {
	Round   types.Round
	Missing bool
}

// Committer applies the commit rule incrementally as vertices arrive.
// It is not safe for concurrent use; the node's event loop owns it.
type Committer struct {
	store *dag.Store
	n     int
	f     int

	committed map[types.Digest]bool // by certificate digest
	// lastLeaderRound is the round of the last ordered anchor; the
	// current instance starts one above it.
	lastLeaderRound types.Round
}

// NewCommitter builds a committer for one epoch's store.
func NewCommitter(store *dag.Store, n int) *Committer {
	return NewCommitterAt(store, n, 0)
}

// NewCommitterAt builds a committer whose first instance starts at
// round seed+1 — the mid-epoch snapshot install case, where seed is
// the snapshot's last ordered anchor and the snapshot state already
// contains every wave up to it. seed must be an anchor the committee
// ordered: an instance started anywhere else could order an anchor
// nobody else did. The store may be entered lower than seed; the first
// wave then also linearizes history the committee committed at or
// below seed, which deduplicates against restored state exactly like a
// WAL-restart replay. seed 0 is an ordinary epoch committer.
func NewCommitterAt(store *dag.Store, n int, seed types.Round) *Committer {
	return &Committer{
		store:           store,
		n:               n,
		f:               crypto.FaultBound(n),
		committed:       make(map[types.Digest]bool),
		lastLeaderRound: seed,
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

// LastLeaderRound returns the round of the last ordered anchor.
func (c *Committer) LastLeaderRound() types.Round { return c.lastLeaderRound }

// Advance re-evaluates the commit rule after new vertices landed in
// the store, returning zero or more commit waves in order: one per
// instance that can order its anchor, until one cannot.
func (c *Committer) Advance() []CommitWave {
	var waves []CommitWave
	for {
		w, ok := c.order()
		if !ok {
			return waves
		}
		waves = append(waves, w)
	}
}

// order runs the current instance: it finds the first candidate with
// f+1 support, walks the anchor chain from it down to the instance's
// start, and commits the chain's earliest element.
func (c *Committer) order() (CommitWave, bool) {
	s := c.lastLeaderRound + 1
	epoch := c.store.Epoch()
	for r := s; r+1 <= c.store.HighestRound(); r += 2 {
		leader, ok := c.store.Get(r, LeaderOf(epoch, r, c.n))
		if !ok || c.store.SupportFor(leader) < c.f+1 {
			continue
		}
		anchor := leader
		for j := r; j >= s+2; {
			j -= 2
			if lv, ok := c.store.Get(j, LeaderOf(epoch, j, c.n)); ok && c.store.InCausalHistory(anchor, lv) {
				anchor = lv
			}
		}
		w := c.commitLeader(anchor)
		for j := s; j < anchor.Round(); j += 2 {
			_, ok := c.store.Get(j, LeaderOf(epoch, j, c.n))
			w.Skipped = append(w.Skipped, SkippedAnchor{Round: j, Missing: !ok})
		}
		c.lastLeaderRound = anchor.Round()
		return w, true
	}
	return CommitWave{}, false
}

// PredictWave linearizes what commitLeader would commit for leader if
// it were the next anchor, treating digests accepted by claimed as
// already committed, without marking anything — the speculative
// execution prediction. The caller supplies claimed to cover waves it
// has predicted but not yet committed, so stacked predictions compose
// exactly like consecutive commits. Linearize is stable once a vertex
// is in the store (ancestors insert first), so the prediction for a
// leader can only be wrong when its instance orders a different
// anchor — a skipped candidate, or a later chain element routed in
// front of it — the misprediction case the speculation layer detects
// by comparing vertex lists at commit time.
func (c *Committer) PredictWave(leader *dag.Vertex, claimed func(types.Digest) bool) CommitWave {
	vs := c.store.Linearize(leader, func(d types.Digest) bool { return c.committed[d] || claimed(d) })
	return CommitWave{Leader: leader, Vertices: vs}
}

// commitLeader linearizes one leader's uncommitted causal history.
func (c *Committer) commitLeader(leader *dag.Vertex) CommitWave {
	vs := c.store.Linearize(leader, func(d types.Digest) bool { return c.committed[d] })
	for _, v := range vs {
		c.committed[v.Cert.Digest()] = true
	}
	return CommitWave{Leader: leader, Vertices: vs}
}
