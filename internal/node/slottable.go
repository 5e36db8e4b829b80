package node

import (
	"cmp"
	"slices"
	"time"

	"thunderbolt/internal/dag"
	"thunderbolt/internal/types"
)

// The certifier's slot table. A slot is one (round, proposer) pair of
// the epoch's DAG: its proposer disseminates a block, 2f+1 votes
// certify it, and the commit rule decides it (paper §4). All a replica
// holds for a slot lives in one record — its blocks, the journaled
// vote, the vote collector, and a certificate or a certified vertex
// waiting for what it lacks — and a round's record holds its n slots,
// this replica's own proposal while its transactions are still this
// replica's to requeue, the last pull, and the hold of the proposal
// leaving the round. Records are made on first use, for rounds from the
// GC floor up to blockCeiling, and recycled whole: pruneBelow drops a
// round as the floor passes it, an epoch entry drops all but the
// journaled votes a same-epoch re-entry keeps. A peer adds at most one
// block (one per sender) and one vote (one per voter) to a slot.

// voteKey names a slot.
type voteKey struct {
	round    types.Round
	proposer types.ReplicaID
}

type slot struct {
	blocks    []heldBlock        // one per sender, and the one cert names
	vote      types.Digest       // journaled vote (zero: none), the anti-equivocation guard
	slotVotes                    // quorum collector, live (votes non-nil) until the vertex lands
	cert      *types.Certificate // accepted certificate waiting for its block
	orphan    *dag.Vertex        // certified vertex waiting for its parents
}

type heldBlock struct {
	b    *types.Block
	from types.ReplicaID
}

// block returns the held block with digest d, or nil.
func (s *slot) block(d types.Digest) *types.Block {
	for i := range s.blocks {
		if s.blocks[i].b.Digest() == d {
			return s.blocks[i].b
		}
	}
	return nil
}

// received returns the block slot (r, p) holds as received from p
// itself — this replica's own proposal when p is this replica — or nil:
// the blocks the commit rule's fast path counts (tusk.Received). A
// held block stays until its round's record is dropped, below the GC
// floor or at an epoch entry, both past any slot it can decide.
func (t *slotTable) received(r types.Round, p types.ReplicaID) *types.Block {
	if s := t.find(voteKey{round: r, proposer: p}); s != nil {
		for i := range s.blocks {
			if s.blocks[i].from == p {
				return s.blocks[i].b
			}
		}
	}
	return nil
}

// ownVoted returns the highest round whose slot of proposer id holds a
// journaled vote, 0 if none does.
func (t *slotTable) ownVoted(id types.ReplicaID) (hi types.Round) {
	for r, rs := range t.rounds {
		if r > hi && !rs.slot[id].vote.IsZero() {
			hi = r
		}
	}
	return hi
}

type roundRecord struct {
	slot      []slot       // by proposer
	own       *types.Block // own proposal, until fastForward requeues it
	pulledAt  time.Time    // last MsgRoundReq for the round (pullRound)
	ownVotes  int          // own proposal's vote count at the last tick (housekeeping)
	holdSince time.Time    // proposal leaving the round held since (holdForSlots)
	holdOver  bool         // that hold ended: the round is not held again
}

// slotTable holds the round records, and retired records and collector
// arrays for reuse.
type slotTable struct {
	n         int
	rounds    map[types.Round]*roundRecord
	free      []*roundRecord
	votesFree [][]slotVote
	orphans   int // slots holding an orphan
}

// find returns slot k's record, or nil if its round has none.
func (t *slotTable) find(k voteKey) *slot {
	if rs := t.rounds[k.round]; rs != nil && int(k.proposer) < t.n {
		return &rs.slot[k.proposer]
	}
	return nil
}

// at returns round r's record, making it on first use.
func (t *slotTable) at(r types.Round) *roundRecord {
	rs := t.rounds[r]
	if rs == nil {
		if last := len(t.free) - 1; last >= 0 {
			rs, t.free = t.free[last], t.free[:last]
		} else {
			rs = &roundRecord{slot: make([]slot, t.n)}
		}
		t.rounds[r] = rs
	}
	return rs
}

// slot returns slot k's record, making its round's.
func (t *slotTable) slot(k voteKey) *slot { return &t.at(k.round).slot[k.proposer] }

// openCollector gives s a collector, reusing a retired one's array.
func (t *slotTable) openCollector(s *slot) {
	if last := len(t.votesFree) - 1; last >= 0 {
		s.votes, t.votesFree = t.votesFree[last], t.votesFree[:last]
	} else {
		s.votes = make([]slotVote, t.n)
	}
}

// park sets s's orphan (nil: none).
func (t *slotTable) park(s *slot, v *dag.Vertex) {
	t.orphans += b2i(v != nil) - b2i(s.orphan != nil)
	s.orphan = v
}

// orphaned reports whether round r holds an orphan certified by cd.
func (t *slotTable) orphaned(r types.Round, cd types.Digest) bool {
	if rs := t.rounds[r]; rs != nil {
		for i := range rs.slot {
			if o := rs.slot[i].orphan; o != nil && o.Cert.Digest() == cd {
				return true
			}
		}
	}
	return false
}

// retire ends s's collector: its vertex landed, or its round left.
func (t *slotTable) retire(s *slot) {
	if s.votes != nil {
		clear(s.votes) // drop the delivery buffers the signatures alias
		t.votesFree = append(t.votesFree, s.votes)
		s.slotVotes = slotVotes{}
	}
}

// drop recycles round r's record.
func (t *slotTable) drop(r types.Round) {
	if rs := t.rounds[r]; rs != nil {
		delete(t.rounds, r)
		t.clearRound(rs, false)
		t.free = append(t.free, rs)
	}
}

// clearRound empties rs but for its journaled votes if keepVotes, and
// reports whether any is left.
func (t *slotTable) clearRound(rs *roundRecord, keepVotes bool) (kept bool) {
	for i := range rs.slot {
		s := &rs.slot[i]
		t.retire(s)
		t.park(s, nil)
		clear(s.blocks)
		s.blocks, s.cert = s.blocks[:0], nil
		if !keepVotes {
			s.vote = types.Digest{}
		}
		kept = kept || !s.vote.IsZero()
	}
	*rs = roundRecord{slot: rs.slot}
	return kept
}

// reset empties the table for a new DAG but, if keepVotes, for the
// journaled votes of rounds from base on.
func (t *slotTable) reset(keepVotes bool, base types.Round) {
	for r, rs := range t.rounds {
		if !t.clearRound(rs, keepVotes && r >= base) {
			t.drop(r)
		}
	}
}

// journaled returns the journaled votes in (round, proposer) order.
func (t *slotTable) journaled() (out []voteEntry) {
	for r, rs := range t.rounds {
		for p := range rs.slot {
			if d := rs.slot[p].vote; !d.IsZero() {
				out = append(out, voteEntry{Round: r, Proposer: types.ReplicaID(p), Digest: d})
			}
		}
	}
	slices.SortFunc(out, func(a, b voteEntry) int {
		return cmp.Or(cmp.Compare(a.Round, b.Round), cmp.Compare(a.Proposer, b.Proposer))
	})
	return out
}

// census counts what the table holds into v.
func (t *slotTable) census(v *DebugView) {
	for _, rs := range t.rounds {
		for i := range rs.slot {
			s := &rs.slot[i]
			v.PendingBlocks += len(s.blocks)
			v.VotedSlots += b2i(!s.vote.IsZero())
			v.CertWait += b2i(s.cert != nil)
			v.Collectors += b2i(s.votes != nil)
			for j := range s.votes {
				v.EarlyVotes += b2i(s.votes[j].sig != nil && s.block(s.votes[j].digest) == nil)
			}
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
