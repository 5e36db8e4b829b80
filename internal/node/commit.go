package node

import (
	"time"

	"thunderbolt/internal/crypto"
	"thunderbolt/internal/gateway"
	"thunderbolt/internal/metrics"
	"thunderbolt/internal/tusk"
	"thunderbolt/internal/types"
	"thunderbolt/internal/validate"
)

// processCommits drains the Tusk committer and queues every newly
// committed wave for execution. Execution is pipelined: it happens in
// drainExec between event-loop passes, so certificate and vote
// handling for rounds r and r+1 proceeds while wave r−1 executes —
// the commit path never lock-steps the protocol stages.
func (n *Node) processCommits() {
	if waves := n.committer.Advance(); len(waves) > 0 {
		// One clock read covers the batch: waves released by the same
		// Advance committed at the same decision point.
		now := time.Now()
		for _, w := range waves {
			n.execQ = append(n.execQ, execItem{wave: w, committedAt: now})
			for _, s := range w.Skipped {
				// a = 1 when the slot's vertex was missing, 0 when it
				// was short of support; b = the slot's proposer.
				var missing uint64
				if s.Missing {
					missing = 1
				}
				n.trace(metrics.EvAnchorSkip, s.Round, missing, uint64(s.Proposer))
			}
			n.nm.slotsSkipped.Add(uint64(len(w.Skipped)))
			if w.Direct {
				n.nm.slotsDirect.Add(1)
			} else {
				n.nm.slotsIndirect.Add(1)
			}
		}
		n.nm.execQueueDepth.Set(int64(len(n.execQ)))
		n.nm.roundsInFlight.Set(int64(n.nextRound) - 1 - int64(n.committer.DecidedRound()))
	}
}

// drainExec runs and installs queued commit waves in order. If a wave
// pushes the epoch's committed Shift count to 2f+1, the node
// transitions to a new DAG immediately and discards any later queued
// waves of the old epoch (resetEpochState clears execQ; the paper's
// "ending round" semantics). Between waves the inbox is re-drained —
// messages that arrived during a long execution are handled (and may
// append further waves) before the next wave runs.
func (n *Node) drainExec() {
	for i := 0; i < len(n.execQ); i++ {
		it := n.execQ[i]
		n.execQ[i] = execItem{} // release the vertex references
		// Mid-epoch snapshot cadence: a wave of a later round than the
		// last one installed says that round is fully decided, and the
		// state holds exactly its waves — the deterministic position
		// every honest replica shares. Capture there when it crossed a
		// SnapshotInterval boundary.
		if last := n.commitCtx.Wave; it.wave.Leader.Round() > last {
			n.maybeCaptureMidEpoch(last)
		}
		// Run once, install once: the result is the confirmed
		// prediction's if there is one, otherwise the wave runs now.
		res, hit := n.waveResultFor(it.wave)
		n.installWave(it.wave, res, it.committedAt)
		if hit {
			n.popSpec()
			n.nm.specHits.Add(1)
			// a = vertices installed, b = coalesced store writes.
			n.trace(metrics.EvSpecConfirm, it.wave.Leader.Round(), uint64(len(it.wave.Vertices)), uint64(len(res.writes.recs)))
		}
		if len(n.committedShift) >= crypto.QuorumSize(n.n) {
			n.reconfigure()
			n.flushOutbox()
			i = -1 // execQ was replaced by the new epoch's queue, if any
			continue
		}
		n.maybeGC()
		n.flushOutbox()
		n.drainInbox()
	}
	// Every entry was consumed (and zeroed above); keep the backing
	// array so steady-state commits stop re-growing the queue.
	n.execQ = n.execQ[:0]
	n.nm.execQueueDepth.Set(0)
}

// waveWrites is a wave's coalesced write set: the last value written
// per key, keys in first-write order. While the wave runs it is the
// layer reads fall through before the base; afterwards it is the one
// batch install applies, and — for a wave run ahead of its commit — the
// overlay later predictions read through.
type waveWrites struct {
	idx  map[types.Key]int
	recs []types.RWRecord
}

func (ws *waveWrites) get(k types.Key) (types.Value, bool) {
	if i, ok := ws.idx[k]; ok {
		return ws.recs[i].Value, true
	}
	return nil, false
}

func (ws *waveWrites) fold(writes []types.RWRecord) {
	if ws.idx == nil && len(writes) > 0 {
		ws.idx = make(map[types.Key]int, len(writes))
	}
	for _, w := range writes {
		if i, ok := ws.idx[w.Key]; ok {
			ws.recs[i].Value = w.Value
			continue
		}
		ws.idx[w.Key] = len(ws.recs)
		ws.recs = append(ws.recs, w)
	}
}

// waveResult is what running a wave decided: every outcome in commit
// order plus the coalesced writes. installWave replays it onto the
// node; nothing else does.
type waveResult struct {
	outcomes []waveOutcome
	writes   waveWrites
	// txs counts executed transactions — the unit of wasted work a
	// discarded prediction reports.
	txs int
}

// eachResolved calls f, in commit order, for every transaction the wave
// resolves: committed, or failed deterministically. These are the
// identities installing the result marks.
func (r *waveResult) eachResolved(f func(tx *types.Transaction, committed bool)) {
	for i := range r.outcomes {
		switch o := &r.outcomes[i]; {
		case o.tx != nil:
			f(o.tx, o.ok)
		case o.ok:
			for _, tx := range o.b.SingleTxs {
				f(tx, true)
			}
		}
	}
}

// waveOutcome is one step of a wave's commit order. With tx nil it
// covers b.SingleTxs as one preplayed batch: validated (ok) or
// discarded wholesale (§4). Otherwise it is one transaction executed in
// consensus order: committed (ok) or failed deterministically.
type waveOutcome struct {
	b     *types.Block
	tx    *types.Transaction
	ok    bool
	cross bool // tx was carried in b.CrossTxs
}

// runWave decides one commit wave: validated single-shard preplay
// results first (rules G1/P2), then its cross-shard transactions in
// consensus order (OE model) — or, in ModeSerial, every transaction one
// by one in commit order (the Tusk baseline: no preplay, no parallel
// validation). It is the only encoding of those rules, and a pure
// function of the wave, the dedup view and the base reader: it marks
// only the view, writes only its result, and reads nothing of the node
// beyond Registry, Validators and Mode. Whether the wave runs at commit
// time against committed state or ahead of its commit against
// predicted state is the caller's choice of dedup and base.
func (c *Config) runWave(w tusk.CommitWave, dedup *gateway.Scratch, base validate.BaseReader) *waveResult {
	res := &waveResult{}
	read := func(k types.Key) types.Value {
		if v, ok := res.writes.get(k); ok {
			return v
		}
		return base(k)
	}
	type orderedTx struct {
		tx    *types.Transaction
		b     *types.Block
		cross bool
	}
	// execOrdered executes transactions in the given order, each seeing
	// its predecessors' writes. A transaction the view already resolves
	// — committed in an earlier wave, by an earlier block of this one, or
	// earlier in this very list (a second inclusion of one identity) — is
	// dropped. Marking ahead of execution is exact because success and
	// deterministic failure both resolve the identity.
	execOrdered := func(items []orderedTx, workers int) {
		live := items[:0]
		txs := make([]*types.Transaction, 0, len(items))
		for _, it := range items {
			if dedup.Resolved(it.tx) {
				continue
			}
			dedup.Mark(it.tx)
			live = append(live, it)
			txs = append(txs, it.tx)
		}
		if len(txs) == 0 {
			return
		}
		res.txs += len(txs)
		// The executor folds each of its waves into res.writes, which is
		// how the next wave's reads (through read) see it.
		for i, out := range validate.ExecuteCrossOrdered(c.Registry, read, txs, workers, res.writes.fold) {
			res.outcomes = append(res.outcomes, waveOutcome{b: live[i].b, tx: out.Tx, ok: out.Err == nil, cross: live[i].cross})
		}
	}
	var cross []orderedTx
	for _, v := range w.Vertices {
		b := v.Block
		if b.Kind != types.NormalBlock {
			continue // Shift and Skip blocks carry nothing to execute
		}
		if c.Mode == ModeSerial {
			for _, tx := range b.SingleTxs {
				execOrdered([]orderedTx{{tx: tx, b: b}}, 1)
			}
			for _, tx := range b.CrossTxs {
				execOrdered([]orderedTx{{tx: tx, b: b, cross: true}}, 1)
			}
			continue
		}
		if len(b.SingleTxs) > 0 {
			ok := false
			if !staleBlock(b, dedup) {
				res.txs += len(b.SingleTxs)
				if r, err := validate.ValidateBlock(c.Registry, read, b, c.Validators); err == nil {
					ok = true
					res.writes.fold(r.Writes)
					for _, tx := range b.SingleTxs {
						dedup.Mark(tx)
					}
				}
			}
			res.outcomes = append(res.outcomes, waveOutcome{b: b, ok: ok})
		}
		for _, tx := range b.CrossTxs {
			cross = append(cross, orderedTx{tx: tx, b: b, cross: true})
		}
	}
	// Cross-shard transactions run after every single-shard result of
	// the wave (rule G1), parallelized over disjoint shard sets (§5.2).
	// Filtering here rather than at collection also drops a promoted
	// copy carried by an early vertex whose original committed through
	// a later vertex's single-shard block.
	execOrdered(cross, c.Validators)
	return res
}

// staleBlock reports whether a block's single-shard batch must be
// discarded before validation: it carries another shard's transaction
// (a Byzantine proposer), one the view already resolves (a resubmission
// raced a reconfiguration), or the same transaction twice.
func staleBlock(b *types.Block, dedup *gateway.Scratch) bool {
	inBlock := make(map[types.Digest]bool, len(b.SingleTxs))
	for _, tx := range b.SingleTxs {
		id := tx.ID()
		if len(tx.Shards) != 1 || tx.Shards[0] != b.Shard || dedup.Resolved(tx) || inBlock[id] {
			return true
		}
		inBlock[id] = true
	}
	return false
}

// installWave applies a wave's result — the only place a wave touches
// the store, the WAL, the dedup state, clients and counters. The whole
// wave lands as one store apply carrying one note with every identity
// it resolves (so a crash leaves a wave applied or not, never half),
// then the bookkeeping replays in commit order.
func (n *Node) installWave(w tusk.CommitWave, res *waveResult, committedAt time.Time) {
	now := time.Now()
	// a = vertices in the wave.
	n.trace(metrics.EvCommit, w.Leader.Round(), uint64(len(w.Vertices)), 0)
	n.commitCtx = CommitEntry{Epoch: n.epoch, Wave: w.Leader.Round()}
	for _, v := range w.Vertices {
		b := v.Block
		// Per-stage breakdown: every committed block with both local
		// stamps contributes a propose→certify and a certify→commit
		// sample (stamps are missing only for blocks that predate this
		// replica's tracking — a snapshot install's re-derived history).
		if !b.Stamps.Seen.IsZero() && !b.Stamps.Certified.IsZero() {
			n.nm.stageProposeCertify.Observe(b.Stamps.Certified.Sub(b.Stamps.Seen))
			n.nm.stageCertifyCommit.Observe(committedAt.Sub(b.Stamps.Certified))
		}
		if b.Kind == types.ShiftBlock {
			n.committedShift[b.Proposer] = true
		}
		// No copy of a cross-shard transaction in this wave may keep
		// wedging the preplay-recovery tracker, executed or dropped.
		for _, tx := range b.CrossTxs {
			delete(n.pendingCross, tx.ID())
		}
	}

	// The note precedes the marks it describes (durable.go's discipline).
	note := n.newMarkNote()
	if note != nil {
		res.eachResolved(func(tx *types.Transaction, committed bool) {
			if committed {
				note.commit(tx)
			} else {
				note.fail(tx)
			}
		})
	}
	if len(res.writes.recs) > 0 {
		n.applyCommit(res.writes.recs, note.bytes())
	} else {
		n.noteOnly(note.bytes())
	}

	ordered := false
	for i := range res.outcomes {
		o := &res.outcomes[i]
		b := o.b
		n.commitCtx.Round = b.Round
		n.commitCtx.Proposer = b.Proposer
		n.commitCtx.Cross = o.cross
		switch {
		case o.tx != nil:
			ordered = true
			if !o.ok {
				// Deterministic failure: every replica drops it, and marks
				// it so dedup state stays identical.
				n.dedup.Mark(o.tx)
				continue
			}
			n.markCommitted(o.tx, now)
			if o.cross {
				n.nm.committedCross.Add(1)
			} else {
				n.nm.committedSingle.Add(1)
			}
		case o.ok:
			for _, tx := range b.SingleTxs {
				n.markCommitted(tx, now)
			}
			n.nm.committedSingle.Add(uint64(len(b.SingleTxs)))
			if b.Proposer != n.cfg.ID {
				// A foreign block's writes change state the preplayer's
				// carried tips never saw.
				n.preplayer.invalidate()
				continue
			}
			// Our own block: its preplay writes moved from the own-writes
			// overlay to the store, value-identical through preplayRead,
			// so the carried tips stay valid. Feed the adaptive batch its
			// propose→commit latency (see batchController).
			n.dropOwnBlock(b.Round)
			lat := now.Sub(time.Unix(0, b.ProposedUnixNano))
			n.batch.ObserveLatency(lat > batchLatencyTargetTicks*n.cfg.TickInterval)
		default:
			n.nm.validationFailures.Add(1)
			// A proposer whose own block was discarded (typically a
			// cross-shard transaction raced its preplay — the hazard rules
			// P3/P4 bound but cannot fully eliminate under eager preplay)
			// rolls back its own-writes overlay and requeues the
			// transactions for a fresh preplay.
			if b.Proposer == n.cfg.ID {
				n.dropOwnBlock(b.Round)
				n.preplayer.invalidate()
				for _, tx := range b.SingleTxs {
					if !n.dedup.Resolved(tx) {
						n.txQueue = append(n.txQueue, tx)
					}
				}
			}
		}
	}
	if ordered {
		// Ordered writes land outside the preplay stream; the next
		// preplay must re-read through the base.
		n.preplayer.invalidate()
	}
	// The wave's commit→execute leg: queue wait plus run (or the
	// confirmation of an earlier run) plus this install.
	n.nm.stageCommitExecute.Observe(time.Since(committedAt))
	if n.cfg.OnCommitWave != nil {
		n.cfg.OnCommitWave(n.epoch, w.Leader.Round(), now)
	}
}

// baseRead reads committed state.
func (n *Node) baseRead(k types.Key) types.Value {
	v, _ := n.cfg.Store.Get(k)
	return v
}

func (n *Node) markCommitted(tx *types.Transaction, now time.Time) {
	id := tx.ID()
	n.dedup.Mark(tx)
	n.recordCommit(id)
	delete(n.seen, id)
	n.notifyCommitted(tx)
	n.nm.committedTxs.Add(1)
	// End-to-end leg: client submission to this replica's ack.
	if tx.SubmitUnixNano > 0 {
		n.nm.stageSubmitAck.Observe(now.Sub(time.Unix(0, tx.SubmitUnixNano)))
	}
	if n.cfg.OnCommitTx != nil {
		n.cfg.OnCommitTx(tx, now)
	}
}

// dropOwnBlock removes a committed (or abandoned) own block from the
// pending list and rebuilds the own-writes overlay from what remains.
func (n *Node) dropOwnBlock(round types.Round) {
	keep := n.ownBlocks[:0]
	for _, ob := range n.ownBlocks {
		if ob.round != round {
			keep = append(keep, ob)
		}
	}
	n.ownBlocks = keep
	n.ownWrites = make(map[types.Key]types.Value, len(n.ownWrites))
	for _, ob := range n.ownBlocks {
		for _, w := range ob.writes {
			n.ownWrites[w.Key] = w.Value
		}
	}
}

// reconfigure performs the non-blocking DAG transition (§6): a new
// DAG starts at the deterministic ending round every honest replica
// derives from the same committed Shift quorum; shard assignments
// rotate; uncommitted transactions are nacked for clients to resubmit.
// The replica enters the next epoch like any snapshot installer
// (enterEpoch at end round 0, no Shifts), then captures the new
// epoch's start: the committed sequence position is deterministic
// here, so every honest replica records a bit-identical snapshot,
// which is what lets a replica stranded across this reconfiguration
// authenticate one later with f+1 matching digests (see snapshot.go).
// The capture precedes propose and the replay of parked messages,
// which can already commit waves of the new epoch. On a durable
// backend the transition is journaled so a restarted replica resumes
// in the new epoch.
func (n *Node) reconfigure() {
	next := n.epoch + 1
	n.noteOnly(transitionNote(next))
	n.enterEpoch(next, 0, nil)
	n.capture()
	n.nm.reconfigurations.Add(1)
	// a = the epoch entered.
	n.trace(metrics.EvReconfig, 0, uint64(next), 0)
	n.propose()
	n.replayFuture()
}
