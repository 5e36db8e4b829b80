package node

import (
	"sync"
	"time"

	"thunderbolt/internal/ce"
	"thunderbolt/internal/depgraph"
	"thunderbolt/internal/gateway"
	"thunderbolt/internal/metrics"
	"thunderbolt/internal/occ"
	"thunderbolt/internal/tusk"
	"thunderbolt/internal/types"
)

// preplayer abstracts the preplay engine so Thunderbolt (CE) and
// Thunderbolt-OCC share the proposer pipeline.
type preplayer interface {
	// preplay executes txs against the given preplay reader (committed
	// store under this proposer's own uncommitted writes) and returns
	// the CE-shaped batch result.
	preplay(read func(types.Key) types.Value, txs []*types.Transaction) *ce.BatchResult
	// invalidate drops any state the engine carries between
	// consecutive preplays. Call it whenever the preplay view or the
	// committed store changed other than by folding in the
	// engine's own last batch: foreign-block commits, cross-shard
	// commits, overlay rollbacks, epoch transitions.
	invalidate()
	// keyStates reports the engine's per-key cache: its size and how
	// many entries its bound has dropped (zero for engines without one).
	keyStates() (live int, dropped uint64)
}

func (n *Node) newPreplayer() preplayer {
	switch n.cfg.Mode {
	case ModeOCC:
		return &occPreplayer{
			exec: occ.New(occ.Config{Executors: n.cfg.Executors, Registry: n.cfg.Registry}),
		}
	default:
		exec := ce.New(ce.Config{Executors: n.cfg.Executors, Registry: n.cfg.Registry})
		return &cePreplayer{sess: exec.NewSession()}
	}
}

// cePreplayer drives the CE through a session so the dependency-graph
// arena is recycled round over round and each preplay's committed tips
// become the next one's cached base values: fillBlock folds the same
// write sets into n.ownWrites, so consecutive preplays see the carried
// tips verbatim until an invalidate site fires.
type cePreplayer struct{ sess *ce.Session }

func (p *cePreplayer) preplay(read func(types.Key) types.Value, txs []*types.Transaction) *ce.BatchResult {
	return p.sess.ExecuteBatch(depgraph.BaseReader(read), txs)
}

func (p *cePreplayer) invalidate() { p.sess.Invalidate() }

func (p *cePreplayer) keyStates() (int, uint64) {
	if g := p.sess.Graph(); g != nil {
		return g.KeyStates()
	}
	return 0, 0
}

// occPreplayer adapts the OCC baseline to the proposer pipeline (the
// paper's Thunderbolt-OCC configuration): OCC validates against a
// lazily materialized versioned view over the preplay reader.
type occPreplayer struct{ exec *occ.OCC }

func (p *occPreplayer) preplay(read func(types.Key) types.Value, txs []*types.Transaction) *ce.BatchResult {
	return p.exec.ExecuteBatch(newPreplayVersioned(read), txs)
}

func (p *occPreplayer) invalidate() {} // OCC builds its view per preplay

func (p *occPreplayer) keyStates() (int, uint64) { return 0, 0 }

// preplayVersioned implements occ.VersionedStore over a read-through
// base. Keys written during the batch carry real versions; untouched
// keys read from the base at version 0 (the base is immutable for the
// duration of one preplay, so version 0 is stable).
type preplayVersioned struct {
	read func(types.Key) types.Value

	mu   sync.Mutex
	data map[types.Key]versionedEntry
	seq  uint64
}

type versionedEntry struct {
	val types.Value
	ver uint64
}

func newPreplayVersioned(read func(types.Key) types.Value) *preplayVersioned {
	return &preplayVersioned{read: read, data: make(map[types.Key]versionedEntry)}
}

func (s *preplayVersioned) GetVersioned(k types.Key) (types.Value, uint64, bool) {
	s.mu.Lock()
	e, ok := s.data[k]
	s.mu.Unlock()
	if ok {
		return e.val, e.ver, true
	}
	v := s.read(k)
	return v, 0, v != nil
}

func (s *preplayVersioned) Version(k types.Key) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.data[k].ver
}

func (s *preplayVersioned) Apply(writes []types.RWRecord) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	for _, w := range writes {
		s.data[w.Key] = versionedEntry{val: w.Value.Clone(), ver: s.seq}
	}
	return s.seq
}

// propose builds and broadcasts this node's block for n.nextRound,
// then advances nextRound. Called once at start (round 1) and from
// maybeAdvance as certificate quorums form.
func (n *Node) propose() {
	r := n.nextRound
	n.nextRound++
	n.roundsProposed++
	n.lastProposal = time.Now()
	n.lastProgress = n.lastProposal

	var parents []types.Digest
	if r > 1 {
		parents = n.dagStore.CertsAtRound(r - 1)
	}
	blk := &types.Block{
		Epoch: n.epoch, Round: r, Proposer: n.cfg.ID, Shard: n.myShard(),
		Kind: types.NormalBlock, Parents: parents,
		ProposedUnixNano: time.Now().UnixNano(),
	}

	switch {
	case n.shouldShift(r):
		blk.Kind = types.ShiftBlock
		n.shiftSent = true
		n.nm.shiftBlocks.Add(1)
		n.trace(metrics.EvShift, r, 0, 0)
	default:
		n.fillBlock(blk, r)
	}

	n.nm.roundsProposed.Add(1)
	n.nm.epoch.Set(int64(n.epoch))
	n.nm.round.Set(int64(r))
	n.nm.pendingCross.Set(int64(len(n.pendingCross)))
	n.nm.queueLen.Set(int64(len(n.txQueue)))
	n.nm.roundsInFlight.Set(int64(r) - int64(n.committer.DecidedRound()))
	// a = single-shard txs carried, b = cross-shard txs carried.
	n.trace(metrics.EvPropose, r, uint64(len(blk.SingleTxs)), uint64(len(blk.CrossTxs)))
	// Keep the block (and its encoding — one marshal serves the
	// broadcast, any housekeeping rebroadcast and the round archive):
	// delivery is lossy under injected faults, and housekeeping re-sends
	// the block until the certificate lands.
	d := blk.Digest()
	n.trackPendingBlock(blk)
	n.ownPending[r] = d
	n.lastBlock = blk
	n.lastBlockVotes = 0
	n.queueBcast(MsgBlock, blk.Wire())
	// Vote for our own block inline — the outbox excludes self from
	// broadcasts. The vote waits on the ballot for the round's quorum
	// and leaves in one bundle with the first 2f peer votes of the round
	// (votes.go); peers certify this block from any 2f+1 votes, so none
	// waits for this one in particular. Votes still held for the round
	// before are off the new round, so this pass's flush seals them,
	// this one with them. The anti-equivocation journal entry is
	// written before the signature exists, exactly as handleBlock does
	// for peer blocks. (In a committee of one the vote is the quorum
	// and the vertex lands at this pass's flush.)
	k := voteKey{round: blk.Round, proposer: blk.Proposer}
	if _, ok := n.voted[k]; !ok {
		n.castVote(blk, k, d)
	}
}

// shouldShift evaluates the paper's four Shift-block conditions (§6).
func (n *Node) shouldShift(r types.Round) bool {
	if n.shiftSent { // condition (4): at most one Shift per epoch
		return false
	}
	// Condition (1): some proposer silent for K rounds.
	if n.cfg.K > 0 && r > types.Round(n.cfg.K)+1 {
		for p := types.ReplicaID(0); int(p) < n.n; p++ {
			if p == n.cfg.ID {
				continue
			}
			if n.lastSeen[p]+types.Round(n.cfg.K) < r {
				return true
			}
		}
	}
	// Condition (2): periodic rotation after K' proposed rounds.
	if n.cfg.KPrime > 0 && n.roundsProposed > n.cfg.KPrime {
		return true
	}
	// Condition (3): f+1 Shift blocks observed in the previous round.
	if r > 1 {
		shifts := 0
		for _, v := range n.dagStore.AtRound(r - 1) {
			if v.Block.Kind == types.ShiftBlock {
				shifts++
			}
		}
		if shifts >= n.f+1 {
			return true
		}
	}
	return false
}

// fillBlock populates a normal block with this round's transactions,
// applying the proposal rules:
//
//	P1: cross-shard transactions go straight into the block.
//	P3/P4: while unfinalized cross-shard transactions touching this
//	       shard exist, single-shard transactions are converted to
//	       cross-shard (identity preserved) instead of preplayed; if
//	       there is nothing to carry, the block becomes a skip block
//	       (§5.4) so the DAG keeps advancing.
//	P6: if the previous leader's vertex is missing from the local
//	    DAG, conversions apply as well (leader delay).
//
// Otherwise single-shard transactions are preplayed by the CE and the
// block carries their results.
func (n *Node) fillBlock(blk *types.Block, r types.Round) {
	singles, cross := n.drainQueue()
	blk.CrossTxs = cross

	if n.cfg.Mode == ModeSerial {
		// Tusk baseline: order everything, execute after commit.
		blk.SingleTxs = singles
		return
	}

	mustConvert := len(n.pendingCross) > 0 || n.missingLeader(r)
	if mustConvert {
		if len(singles) == 0 && len(cross) == 0 {
			blk.Kind = types.SkipBlock
			n.nm.skipBlocks.Add(1)
			// a = pending cross-shard txs forcing the skip.
			n.trace(metrics.EvSkip, r, uint64(len(n.pendingCross)), 0)
			return
		}
		for _, tx := range singles {
			tx.Promote()
			blk.CrossTxs = append(blk.CrossTxs, tx)
		}
		n.nm.convertedToCross.Add(uint64(len(singles)))
		return
	}
	if len(singles) == 0 {
		return
	}
	res := n.preplayer.preplay(n.preplayRead, singles)
	blk.SingleTxs = res.Schedule
	blk.Results = res.Results
	n.nm.reexecutions.Add(uint64(res.Reexecutions))
	live, dropped := n.preplayer.keyStates()
	n.nm.keyStates.Set(int64(live))
	n.nm.keyStatesDropped.Set(int64(dropped))
	// Fold the preplay outcome into the own-writes overlay so the next
	// round's batch builds on it.
	var writes []types.RWRecord
	for i := range res.Results {
		for _, w := range res.Results[i].WriteSet {
			n.ownWrites[w.Key] = w.Value
			writes = append(writes, w)
		}
	}
	n.ownBlocks = append(n.ownBlocks, ownBlock{round: r, writes: writes})
	// Terminal failures are dropped permanently (they can never
	// commit); unqueue them from dedup so a retransmission is not
	// silently swallowed for the rest of the seen TTL. No negative-ack
	// here: a deterministic contract failure would fail again, and
	// acking it would only tighten a futile resubmit loop.
	for i := range res.Failed {
		delete(n.seen, res.Failed[i].Tx.ID())
	}
}

// missingLeader reports whether a leader vertex is overdue (rule P6's
// "leader proposal delayed beyond a timeout"). The newest rounds'
// leaders are legitimately still in flight, so the check applies to
// the leader of round r−3: by then an honest leader's certificate has
// had a full round-trip to arrive.
func (n *Node) missingLeader(r types.Round) bool {
	if r < 4 {
		return false
	}
	_, ok := n.dagStore.Get(r-3, tusk.LeaderOf(n.epoch, r-3, n.n))
	return !ok
}

// preplayRead is the state preplay runs on: committed store overlaid
// with this proposer's own uncommitted preplay writes.
func (n *Node) preplayRead(k types.Key) types.Value {
	if v, ok := n.ownWrites[k]; ok {
		return v
	}
	v, _ := n.cfg.Store.Get(k)
	return v
}

// drainQueue pulls up to the adaptive batch size (floor
// Config.BatchSize, cap 4 × Config.BatchSize) of transactions,
// splitting them into single-shard (for this node's current shard)
// and cross-shard. Misrouted singles (wrong shard, e.g. queued before
// a reconfiguration) are dropped; clients resubmit to the new
// proposer.
func (n *Node) drainQueue() (singles, cross []*types.Transaction) {
	mine := n.myShard()
	taken := 0
	limit := n.batch.Size()
	if want := min(limit, len(n.txQueue)); want > 0 {
		singles = make([]*types.Transaction, 0, want)
	}
	rest := n.txQueue[:0]
	for _, tx := range n.txQueue {
		if taken >= limit {
			rest = append(rest, tx)
			continue
		}
		if n.dedup.Resolved(tx) {
			continue
		}
		switch {
		case tx.IsCross():
			cross = append(cross, tx)
			taken++
		case len(tx.Shards) == 1 && tx.Shards[0] == mine:
			singles = append(singles, tx)
			taken++
		default:
			// Wrong shard after rotation: drop and negative-ack —
			// callback and wire — so the client layer re-routes
			// immediately.
			delete(n.seen, tx.ID())
			n.nm.droppedAtReconfig.Add(1)
			n.reject(tx, gateway.NackMisroute)
		}
	}
	n.txQueue = rest
	// Adaptive sizing input: a backlog still deeper than the batch just
	// taken means the proposer is underbatching for the offered load.
	n.batch.ObserveQueue(len(rest))
	n.nm.batchSize.Set(int64(n.batch.Size()))
	return singles, cross
}
