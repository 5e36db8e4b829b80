// Package dag maintains one epoch's directed acyclic graph of
// certified blocks (paper §2).
//
// Each vertex pairs a block with its 2f+1-signature certificate.
// Parent references point at certificate digests of the previous
// round, so holding a vertex transitively guarantees availability of
// its entire causal history (the DAG Validity property). The store
// answers the queries the Tusk commit rule needs: quorum detection per
// round, leader support counting, and deterministic linearization of
// causal histories.
package dag

import (
	"fmt"
	"sort"

	"thunderbolt/internal/types"
)

// Vertex is one certified DAG position.
type Vertex struct {
	Block *types.Block
	Cert  *types.Certificate
}

// Round returns the vertex's round.
func (v *Vertex) Round() types.Round { return v.Block.Round }

// Proposer returns the vertex's proposing replica.
func (v *Vertex) Proposer() types.ReplicaID { return v.Block.Proposer }

// Store holds one epoch's DAG. It is not safe for concurrent use; the
// node serializes access on its event loop.
type Store struct {
	epoch types.Epoch
	n     int

	byCert  map[types.Digest]*Vertex
	byBlock map[types.Digest]*Vertex
	rounds  map[types.Round]map[types.ReplicaID]*Vertex
	// highest caches the largest round holding any vertex, so the
	// node's per-tick frontier checks are O(1) instead of a scan over
	// every round of the epoch.
	highest types.Round
	// floor is the committed-wave GC boundary: rounds below it have
	// been pruned and can never be re-added (see PruneBelow).
	floor types.Round
	// base is the re-entry round: vertices at rounds ≤ base are
	// admitted without their parents being present. A fresh epoch has
	// base 1 (round-1 blocks have no parents); a store rebuilt from a
	// mid-epoch snapshot sets base to the snapshot's resume round,
	// whose parents predate everything the installer retained.
	base types.Round

	// parentSeen is Add's scratch: the proposers a vertex's parents
	// were seen from, one flag per committee member.
	parentSeen []bool

	// walkSeen/walkStack are scratch for Linearize, reused across
	// commit waves so the per-wave walk allocates nothing but its
	// result slice. Store is event-loop-owned, so plain fields are
	// safe.
	walkSeen  map[types.Digest]bool
	walkStack []*Vertex

	// support memoizes SupportFor per vertex (by certificate digest).
	// A memo entry is valid while the supporting round's vote set is
	// unchanged; roundVer increments on every insertion into a round,
	// so a cached count from a now-stale vote set misses and recounts.
	// Once a round stops receiving vertices (it seals at n), its
	// version freezes and every later SupportFor is a map hit — the
	// committer re-asks on every Advance until the f+1 threshold lands.
	support  map[types.Digest]supportMemo
	roundVer map[types.Round]uint64
}

type supportMemo struct {
	count int
	ver   uint64
}

// NewStore creates an empty DAG for one epoch and committee size n,
// entered at round 1.
func NewStore(epoch types.Epoch, n int) *Store {
	return NewStoreAt(epoch, n, 1)
}

// NewStoreAt creates an empty DAG entered at round base: vertices of
// rounds below base are rejected outright, and vertices at base need
// no parents — the shape a mid-epoch snapshot install requires, where
// history below the resume round lives only inside the snapshot.
// base 1 is an ordinary epoch store.
func NewStoreAt(epoch types.Epoch, n int, base types.Round) *Store {
	if base < 1 {
		base = 1
	}
	return &Store{
		epoch:      epoch,
		n:          n,
		byCert:     make(map[types.Digest]*Vertex),
		byBlock:    make(map[types.Digest]*Vertex),
		rounds:     make(map[types.Round]map[types.ReplicaID]*Vertex),
		floor:      base,
		base:       base,
		parentSeen: make([]bool, n),
		support:    make(map[types.Digest]supportMemo),
		roundVer:   make(map[types.Round]uint64),
	}
}

// Base returns the re-entry round the store was created at.
func (s *Store) Base() types.Round { return s.base }

// Epoch returns the epoch this DAG belongs to.
func (s *Store) Epoch() types.Epoch { return s.epoch }

// Add inserts a certified vertex. It rejects epoch mismatches,
// duplicate (round, proposer) slots with different blocks (Byzantine
// equivocation caught at certification), vertices naming a parent
// outside the previous round or fewer than a quorum of distinct
// parents, and vertices whose parents are not yet present — callers
// buffer those until the causal history arrives (Validity property).
func (s *Store) Add(v *Vertex) error {
	b := v.Block
	if b.Epoch != s.epoch {
		return fmt.Errorf("dag: vertex epoch %d, store epoch %d", b.Epoch, s.epoch)
	}
	if int(b.Proposer) >= s.n {
		return fmt.Errorf("dag: proposer %d outside a committee of %d", b.Proposer, s.n)
	}
	if b.Round < s.floor {
		// The round was garbage-collected: every vertex that can still
		// reach committed history lies at or above the floor, so a
		// late arrival here is dead weight (see PruneBelow).
		return fmt.Errorf("dag: round %d below GC floor %d", b.Round, s.floor)
	}
	// The slot fields of a certificate are not what its signatures
	// cover — those sign the block digest — so a certificate naming
	// another slot than its block's would file one block under a second
	// identity (certificate digests hash the slot).
	if c := v.Cert; c.BlockDigest != b.Digest() || c.Epoch != b.Epoch || c.Round != b.Round || c.Proposer != b.Proposer {
		return fmt.Errorf("dag: certificate does not cover block")
	}
	if existing, ok := s.rounds[b.Round][b.Proposer]; ok {
		if existing.Block.Digest() == b.Digest() {
			return nil // idempotent
		}
		return fmt.Errorf("dag: slot (%d,%d) already filled with a different block", b.Round, b.Proposer)
	}
	// Parents name certificates of round Round-1 (types.Block), and
	// catch-up pulls exactly that round for an orphan. A parent from any
	// other round is refused outright: that pull would never fetch it,
	// so replicas that happen to hold it would insert a vertex the
	// others cannot. The verdict is the same everywhere — a replica
	// without the parent keeps the vertex orphaned, never inserted.
	//
	// The commit rule's quorum intersection (see package tusk) needs
	// every vertex above the base to name a quorum of distinct parents:
	// certification checks signatures, not parents, so a Byzantine
	// proposer's thin block can be certified, and is refused here, by
	// every replica alike. One certified vertex per slot makes distinct
	// parents distinct proposers.
	if b.Round > s.base {
		if q := s.n - (s.n-1)/3; len(b.Parents) < q {
			return fmt.Errorf("dag: round-%d vertex names %d parents, want at least %d", b.Round, len(b.Parents), q)
		}
		clear(s.parentSeen)
		for _, p := range b.Parents {
			pv, ok := s.byCert[p]
			if !ok {
				return &MissingParentError{Parent: p, Round: b.Round}
			}
			if pv.Block.Round != b.Round-1 {
				return fmt.Errorf("dag: round-%d vertex names a round-%d parent", b.Round, pv.Block.Round)
			}
			if s.parentSeen[pv.Proposer()] {
				return fmt.Errorf("dag: round-%d vertex names a parent twice", b.Round)
			}
			s.parentSeen[pv.Proposer()] = true
		}
	}
	s.byCert[v.Cert.Digest()] = v
	s.byBlock[b.Digest()] = v
	rm, ok := s.rounds[b.Round]
	if !ok {
		rm = make(map[types.ReplicaID]*Vertex)
		s.rounds[b.Round] = rm
	}
	rm[b.Proposer] = v
	s.roundVer[b.Round]++
	if b.Round > s.highest {
		s.highest = b.Round
	}
	return nil
}

// PruneBelow removes every vertex of rounds < floor and returns the
// certificate digests of the removed vertices (so the commit layer
// can drop its own bookkeeping for them). The floor only advances.
//
// Safety: the caller prunes relative to its own committed frontier
// (strictly more than the fast-forward gap behind it). A vertex that
// old and still uncommitted can never join committed history — doing
// so would need a parent reference from the next round that itself
// joins committed history, and honest proposers only reference
// current-round certificates — so removal never changes any future
// commit wave. Rounds below the floor are also rejected by Add, which
// keeps the invariant closed under late arrivals.
func (s *Store) PruneBelow(floor types.Round) []types.Digest {
	if floor > s.highest+1 {
		floor = s.highest + 1
	}
	if floor <= s.floor {
		return nil
	}
	var removed []types.Digest
	for r := s.floor; r < floor; r++ {
		rm, ok := s.rounds[r]
		if !ok {
			continue
		}
		for _, v := range rm {
			cd := v.Cert.Digest()
			removed = append(removed, cd)
			delete(s.byCert, cd)
			delete(s.byBlock, v.Block.Digest())
			delete(s.support, cd)
		}
		delete(s.rounds, r)
		delete(s.roundVer, r)
	}
	s.floor = floor
	return removed
}

// Floor returns the GC boundary: the lowest round still retained.
func (s *Store) Floor() types.Round { return s.floor }

// Len returns the number of vertices currently retained.
func (s *Store) Len() int { return len(s.byCert) }

// MissingParentError reports that a vertex references a certificate
// the store has not seen; the caller should buffer and retry.
type MissingParentError struct {
	Parent types.Digest
	Round  types.Round
}

func (e *MissingParentError) Error() string {
	return fmt.Sprintf("dag: missing parent %s for round %d", e.Parent, e.Round)
}

// ByCert returns the vertex whose certificate digest is d.
func (s *Store) ByCert(d types.Digest) (*Vertex, bool) {
	v, ok := s.byCert[d]
	return v, ok
}

// ByBlock returns the vertex whose block digest is d.
func (s *Store) ByBlock(d types.Digest) (*Vertex, bool) {
	v, ok := s.byBlock[d]
	return v, ok
}

// AtRound returns the vertices of one round keyed by proposer.
func (s *Store) AtRound(r types.Round) map[types.ReplicaID]*Vertex {
	return s.rounds[r]
}

// Get returns the vertex proposed by p in round r.
func (s *Store) Get(r types.Round, p types.ReplicaID) (*Vertex, bool) {
	v, ok := s.rounds[r][p]
	return v, ok
}

// CountAtRound returns how many vertices round r holds.
func (s *Store) CountAtRound(r types.Round) int { return len(s.rounds[r]) }

// CertsAtRound returns the certificate digests of round r in
// proposer order (deterministic parent lists).
func (s *Store) CertsAtRound(r types.Round) []types.Digest {
	rm := s.rounds[r]
	out := make([]types.Digest, 0, len(rm))
	// Walk replica IDs in committee order instead of sorting map keys:
	// this runs on every propose and committer probe, and the sort
	// closure plus the key slice were two allocations per call.
	for id := types.ReplicaID(0); int(id) < s.n; id++ {
		if v, ok := rm[id]; ok {
			out = append(out, v.Cert.Digest())
		}
	}
	return out
}

// SupportFor counts round r+1 vertices that reference the vertex v
// (round r) as a parent — the Tusk commit threshold input. The count
// is memoized per vertex and revalidated against the supporting
// round's insertion version, so the committer's repeated probes of a
// settled round cost one map lookup instead of a parent-list scan.
func (s *Store) SupportFor(v *Vertex) int {
	target := v.Cert.Digest()
	ver := s.roundVer[v.Round()+1]
	if m, ok := s.support[target]; ok && m.ver == ver {
		return m.count
	}
	support := 0
	for _, w := range s.rounds[v.Round()+1] {
		for _, p := range w.Block.Parents {
			if p == target {
				support++
				break
			}
		}
	}
	s.support[target] = supportMemo{count: support, ver: ver}
	return support
}

// HighestRound returns the largest round holding any vertex.
func (s *Store) HighestRound() types.Round { return s.highest }

// CausalHistory returns every ancestor of v (excluding v) reachable
// through parent references.
func (s *Store) CausalHistory(v *Vertex) []*Vertex {
	seen := map[types.Digest]bool{v.Cert.Digest(): true}
	var out []*Vertex
	stack := []*Vertex{v}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range cur.Block.Parents {
			if seen[p] {
				continue
			}
			seen[p] = true
			if pv, ok := s.byCert[p]; ok {
				out = append(out, pv)
				stack = append(stack, pv)
			}
		}
	}
	return out
}

// InCausalHistory reports whether target is an ancestor of from
// (strictly: reachable through parent references). The walk prunes at
// target's round — parents always point one round down, so no path
// reaches target from below it.
func (s *Store) InCausalHistory(from, target *Vertex) bool {
	want := target.Cert.Digest()
	floor := target.Round()
	seen := map[types.Digest]bool{from.Cert.Digest(): true}
	stack := []*Vertex{from}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur.Round() <= floor {
			continue
		}
		for _, p := range cur.Block.Parents {
			if p == want {
				return true
			}
			if seen[p] {
				continue
			}
			seen[p] = true
			if pv, ok := s.byCert[p]; ok && pv.Round() > floor {
				stack = append(stack, pv)
			}
		}
	}
	return false
}

// Linearize returns v's causal history plus v itself, excluding
// vertices for which skip reports true (already committed), in the
// canonical deterministic order: ascending round, then ascending
// proposer. Every honest replica computes the identical sequence for
// the same leader vertex (DAG Completeness).
//
// The walk prunes at skipped vertices: the committed set is causally
// closed (committing a leader commits its entire uncommitted history
// in the same wave), so a skipped vertex never has an unskipped
// ancestor and the walk never needs to descend past it. That makes a
// commit wave cost O(vertices committed this wave), not O(retained
// DAG) — the retained DAG spans up to GCHorizon rounds, and the full
// walk dominated cluster commit latency.
func (s *Store) Linearize(v *Vertex, skip func(types.Digest) bool) []*Vertex {
	if skip != nil && skip(v.Cert.Digest()) {
		return nil
	}
	for k := range s.walkSeen {
		delete(s.walkSeen, k)
	}
	if s.walkSeen == nil {
		s.walkSeen = make(map[types.Digest]bool, 64)
	}
	s.walkSeen[v.Cert.Digest()] = true
	out := make([]*Vertex, 1, 16) // escapes to the committer; not scratch
	out[0] = v
	stack := append(s.walkStack[:0], v)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range cur.Block.Parents {
			if s.walkSeen[p] {
				continue
			}
			s.walkSeen[p] = true
			if skip != nil && skip(p) {
				continue
			}
			if pv, ok := s.byCert[p]; ok {
				out = append(out, pv)
				stack = append(stack, pv)
			}
		}
	}
	s.walkStack = stack
	sort.Slice(out, func(i, j int) bool {
		if out[i].Round() != out[j].Round() {
			return out[i].Round() < out[j].Round()
		}
		return out[i].Proposer() < out[j].Proposer()
	})
	return out
}
