package node

import (
	"thunderbolt/internal/dag"
	"thunderbolt/internal/metrics"
	"thunderbolt/internal/types"
)

// Committed-wave garbage collection (ROADMAP "DAG/memory pruning").
//
// Retention has two tiers, both measured down from this replica's own
// last fully decided round (last):
//
//	decoded tier: rounds ≥ last − MinGCHorizon
//	archive:      last − GCHorizon ≤ rounds < last − MinGCHorizon
//
// The decoded tier is what can still change an ordering: the DAG
// store, the slot table (slottable.go: per slot its blocks, journaled vote,
// vote collector and a certificate or vertex waiting for what it lacks;
// per round its pull time) and the committer's flags. After each commit
// wave the node prunes all of it below the decoded floor — a round's
// slot record leaves whole — rescuing its own uncommitted transactions
// first. Discarding uncommitted vertices there is safe (argued at
// dag.Store.PruneBelow): the floor sits MinGCHorizon rounds — ten
// fast-forward gaps — below the committed frontier, so a vertex that old
// can never join committed history.
//
// The archive exists for peers. GCHorizon is the serving contract: a
// round pull (MsgRoundReq) is answered with block + certificate pairs
// for any round within the horizon of the server's committed frontier.
// Those answers need nothing decoded, so as a round leaves the decoded
// tier the archive keeps its answer as wire bytes — each block as it
// arrived, or as this replica proposed it (types.Block.Wire), and its
// certificate encoded once — and serves them unchanged. It holds no
// *Block, no *Certificate and no signature aliasing a vote bundle: the
// garbage collector marks its byte slices without scanning them, where
// the decoded history it replaces cost a full mark of every block,
// transaction and Merkle path on every cycle. A MsgBlockReq is served
// from the decoded tier only: a request for an older block cannot
// change its sender's ordering.
//
// Pruning relative to the node's *own* commit progress is what makes
// GC recovery-safe from the pruner's side: a replica that is itself
// behind has a low floor and never discards history it still needs. A
// replica that misses more than the horizon is beyond in-epoch
// recovery and is rescued by the state-transfer protocol (snapshot.go)
// — the same pull for a round below the archive is answered with the
// server's latest snapshot manifest, and the replica re-enters at the
// snapshot's base within a bounded round budget (the mid-epoch capture
// cadence, Config.SnapshotInterval) instead of waiting for the next
// reconfiguration or replaying the pruned range. Both tiers restart
// empty on epoch entry.

// maybeGC advances the decoded floor after commit progress. Cost is
// O(rounds newly pruned + entries in them), so steady-state work per
// wave is proportional to wave progress, not to history size.
func (n *Node) maybeGC() {
	if n.cfg.GCHorizon < 0 {
		return
	}
	if last := n.committer.DecidedRound(); last > MinGCHorizon {
		n.pruneBelow(last - MinGCHorizon)
	}
}

// pruneBelow moves every round below floor out of the decoded tier:
// its round-pull answer into the archive, its slot record away.
func (n *Node) pruneBelow(floor types.Round) {
	old := n.dagStore.Floor()
	if floor <= old {
		return
	}
	// queued dedups rescue requeues against the live queue; built
	// lazily — own blocks below the floor are normally committed.
	var queued map[types.Digest]bool
	hi := n.dagStore.HighestRound()
	for r := old; r < floor; r++ {
		// The archive ends where the DAG's floor begins, and PruneBelow
		// stops one past the highest round present.
		if r <= hi {
			n.archive.add(n.dagStore, r, n.n)
		}
		// Rescue any own uncommitted transactions before their block
		// is dropped, mirroring fastForward: a block this far behind
		// the committed frontier can never commit, so its transactions
		// are requeued (with applied/queue dedup) rather than starve
		// until the client's retry, and its preplay writes leave the
		// own-writes overlay, where they would fail every later preplay
		// of the same keys — the requeued transactions' first. An
		// ordered block is left alone: its wave may still wait in
		// execQ, which on a busy box runs more than the decoded window
		// behind the commit rule.
		if rs := n.table.rounds[r]; rs != nil && rs.own != nil {
			if v, ok := n.dagStore.ByBlock(rs.own.Digest()); !ok || !n.committer.Committed(v.Cert.Digest()) {
				if queued == nil {
					queued = n.queuedIDs()
				}
				n.requeueOwnBlock(rs.own, queued)
				n.dropOwnBlock(r)
				n.preplayer.invalidate()
			}
		}
		n.table.drop(r)
	}
	n.committer.Forget(n.dagStore.PruneBelow(floor))
	if n.lastBlock != nil && n.lastBlock.Round < floor {
		n.lastBlock = nil
	}
	n.nm.prunedRounds.Add(uint64(floor - old))
	n.nm.dagVertices.Set(int64(n.dagStore.Len()))
	n.nm.archiveRounds.Set(int64(n.archive.rounds()))
	n.nm.archiveBytes.Set(int64(n.archive.bytes))
	// a = rounds reclaimed by this pass.
	n.trace(metrics.EvGC, floor, uint64(floor-old), 0)
}

// archivedVertex is one vertex's round-pull answer: the MsgBlock and
// MsgCert payloads. The block's bytes are the ones the decoded block
// held; the certificate's are a slice of its round's buffer.
type archivedVertex struct {
	block, cert []byte
}

// roundArchive holds the round-pull answers of rounds [lo, hi) — the
// rounds below the decoded floor, at most limit of them (GCHorizon −
// MinGCHorizon) — in a ring indexed by round. A round's vertices are
// kept in proposer order, so its answer is the one the decoded tier
// gave.
type roundArchive struct {
	lo, hi types.Round
	limit  int
	ring   [][]archivedVertex
	// bytes counts the payload bytes the archived slices hold.
	bytes int
	// certBuf and certEnds are scratch a round's certificates are
	// encoded in before they move to their one buffer.
	certBuf  []byte
	certEnds []int
}

// reset empties the archive; the next round added is at.
func (a *roundArchive) reset(at types.Round) {
	for a.lo < a.hi {
		a.evictOldest()
	}
	a.lo, a.hi = at, at
}

// add archives round r of s. The rounds added are consecutive while
// one store lives; a floor that moved any other way (a store entered
// at a snapshot's base, or one a test built) restarts the archive at
// r.
func (a *roundArchive) add(s *dag.Store, r types.Round, n int) {
	if r != a.hi {
		a.reset(r)
	}
	if a.limit == 0 {
		a.lo, a.hi = r+1, r+1
		return
	}
	if a.ring == nil {
		a.ring = make([][]archivedVertex, a.limit)
	}
	if a.rounds() == a.limit {
		a.evictOldest()
	}
	i := int(r) % a.limit
	slot := a.ring[i][:0]
	certs, ends := a.certBuf[:0], a.certEnds[:0]
	for p := 0; p < n; p++ {
		v, ok := s.Get(r, types.ReplicaID(p))
		if !ok {
			continue
		}
		certs, _ = v.Cert.AppendBinary(certs) // encoding cannot fail
		ends = append(ends, len(certs))
		slot = append(slot, archivedVertex{block: v.Block.Wire()})
	}
	// One right-sized buffer holds the round's certificates: they are
	// evicted together, and it costs one allocation per round.
	buf := make([]byte, len(certs))
	copy(buf, certs)
	at := 0
	for j, end := range ends {
		slot[j].cert = buf[at:end:end]
		a.bytes += len(slot[j].block) + end - at
		at = end
	}
	a.certBuf, a.certEnds = certs, ends
	a.ring[i] = slot
	a.hi = r + 1
}

// evictOldest drops round lo, keeping its slot's array for reuse.
func (a *roundArchive) evictOldest() {
	if a.limit > 0 {
		i := int(a.lo) % a.limit
		for _, e := range a.ring[i] {
			a.bytes -= len(e.block) + len(e.cert)
		}
		clear(a.ring[i])
		a.ring[i] = a.ring[i][:0]
	}
	a.lo++
}

// round returns round r's archived answer; ok is false unless r is
// archived.
func (a *roundArchive) round(r types.Round) (vs []archivedVertex, ok bool) {
	if r < a.lo || r >= a.hi {
		return nil, false
	}
	return a.ring[int(r)%a.limit], true
}

// rounds is how many rounds the archive holds.
func (a *roundArchive) rounds() int { return int(a.hi - a.lo) }
