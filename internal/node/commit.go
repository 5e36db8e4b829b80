package node

import (
	"time"

	"thunderbolt/internal/contract"
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
				if w.Fast {
					n.nm.slotsFast.Add(1)
				}
			} else {
				n.nm.slotsIndirect.Add(1)
			}
		}
		n.nm.execQueueDepth.Set(int64(len(n.execQ)))
		n.nm.roundsInFlight.Set(int64(n.nextRound) - 1 - int64(n.committer.DecidedRound()))
	}
}

// maxBatchWaves bounds an install batch, so a long catch-up queue
// still drains the inbox and installs every few waves.
const maxBatchWaves = 16

// drainExec runs and installs queued commit waves in order, paying once
// per pass for what no peer observes. Every wave a pass finds ready runs
// on the stack of the batch's earlier waves (batchWave), and the batch
// lands as one store apply carrying one WAL note (installBatch). GC, the
// outbox flush and the inbox re-drain then run once: messages that
// arrived during a long execution are handled, and may queue further
// waves, which form the next batch.
//
// Batches end where a replica-independent position must hold exactly
// the waves before it. Before the first wave of a later round when a
// mid-epoch capture falls due there: the capture must see the earlier
// round's waves installed and none of the later one. And after a wave
// carrying a Shift block: if it pushes the epoch's committed Shift
// count to 2f+1, the node transitions to a new DAG at once and
// discards any later queued waves of the old epoch (resetEpochState
// clears execQ; the paper's "ending round" semantics).
func (n *Node) drainExec() {
	entries := n.epochEntries
	for i := 0; i < len(n.execQ); i++ {
		it := n.execQ[i]
		n.execQ[i] = execItem{} // release the vertex references
		// Mid-epoch snapshot cadence: a wave of a later round than the
		// last one decided says that round is fully decided, and the
		// installed state holds exactly its waves — the deterministic
		// position every honest replica shares.
		if last := n.batchRound(); it.wave.Leader.Round() > last && n.captureDue(last) {
			n.installBatch()
			n.maybeCaptureMidEpoch(last)
		}
		n.batchWave(it)
		if carriesShift(it.wave) {
			n.installBatch()
			if len(n.committedShift) >= crypto.QuorumSize(n.n) {
				n.reconfigure()
				n.flushOutbox()
				entries = n.epochEntries
				i = -1 // execQ was replaced by the new epoch's queue, if any
				continue
			}
		}
		if i == len(n.execQ)-1 || len(n.execBatch) == maxBatchWaves {
			n.installBatch()
			n.maybeGC()
			n.flushOutbox()
			n.drainInbox()
			if n.epochEntries != entries {
				// A snapshot install the inbox held replaced execQ with
				// the queue of the epoch it entered.
				entries = n.epochEntries
				i = -1
			}
		}
	}
	// Every entry was consumed (and zeroed above); keep the backing
	// array so steady-state commits stop re-growing the queue.
	n.execQ = n.execQ[:0]
	n.nm.execQueueDepth.Set(0)
}

// batchRound is the round of the last wave decided: the newest in the
// install batch, or the last one installed.
func (n *Node) batchRound() types.Round {
	if k := len(n.execBatch); k > 0 {
		return n.execBatch[k-1].wave.Leader.Round()
	}
	return n.commitCtx.Wave
}

func carriesShift(w tusk.CommitWave) bool {
	for _, v := range w.Vertices {
		if v.Block.Kind == types.ShiftBlock {
			return true
		}
	}
	return false
}

// batchWave runs the wave the commit rule released on the stack of the
// install batch's earlier waves — the only call of runWave — and
// appends it to both.
func (n *Node) batchWave(it execItem) {
	if len(n.execBatch) == 0 {
		n.stack.reset()
	}
	dedup, base := n.stack.view()
	res := n.cfg.runWave(it.wave, dedup, base, n.newResult())
	n.stack.push(res)
	n.execBatch = append(n.execBatch, ranWave{wave: it.wave, res: res, committedAt: it.committedAt})
}

// ranWave is a decided wave of the install batch: the commit wave, its
// result, and when the commit rule released it.
type ranWave struct {
	wave        tusk.CommitWave
	res         *waveResult
	committedAt time.Time
}

// waveStack is the state a wave runs on when the install batch's
// earlier waves sit between it and committed state: their resolutions
// marked on a scratch view of the dedup, their writes coalesced over
// the store, the later over the earlier. One scratch view and one write
// map serve every wave. A stack holds only while the committed dedup
// and store stay as they are, so each install batch starts from a
// reset one.
type waveStack struct {
	dedup  *gateway.Scratch
	writes waveWrites // over committed state
}

func newWaveStack(dedup *gateway.Scratch, base validate.BaseReader) *waveStack {
	s := &waveStack{dedup: dedup}
	s.writes.over(base)
	return s
}

func (s *waveStack) reset() {
	s.dedup.Reset()
	s.writes.reset()
}

// push stacks the writes of a result run on this stack; its run marked
// the scratch dedup already.
func (s *waveStack) push(r *waveResult) {
	s.writes.fold(r.writes.recs)
}

// view is the dedup view and base reader a wave runs on.
func (s *waveStack) view() (*gateway.Scratch, validate.BaseReader) {
	if len(s.writes.recs) == 0 {
		return s.dedup, s.writes.base
	}
	return s.dedup, s.writes.read
}

// waveWrites is a coalesced write set: the last value written per key,
// keys in first-write order, layered over a base reader. While a wave
// runs, its own is the layer reads fall through before the base;
// afterwards it folds into the stack later waves run on, whose sum an
// install batch applies.
type waveWrites struct {
	idx  map[types.Key]int
	recs []types.RWRecord
	base validate.BaseReader
	// read serves recs ahead of base; bound once by over, since a
	// method value made per run would allocate per run.
	read validate.BaseReader
}

// over sets the base the write set layers over.
func (ws *waveWrites) over(base validate.BaseReader) {
	ws.base = base
	if ws.read == nil {
		ws.read = ws.readThrough
	}
}

func (ws *waveWrites) readThrough(k types.Key) types.Value {
	if v, ok := ws.get(k); ok {
		return v
	}
	return ws.base(k)
}

func (ws *waveWrites) get(k types.Key) (types.Value, bool) {
	if i, ok := ws.idx[k]; ok {
		return ws.recs[i].Value, true
	}
	return nil, false
}

func (ws *waveWrites) reset() {
	clear(ws.idx)
	ws.recs = ws.recs[:0]
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
// order plus the coalesced writes. installBatch applies it and
// installWave replays it onto the node; nothing else does.
//
// A result is recycled (newResult, releaseResult): the node takes one
// from its free list for every run and returns it when the result is
// installed, so steady-state waves run on memory earlier waves grew.
// The fields after writes are that memory: runWave's working lists, the
// ordered executor's buffers, and the readers bound to the result once.
type waveResult struct {
	outcomes []waveOutcome
	writes   waveWrites

	cross    []orderedTx          // the wave's cross-shard transactions, in order
	live     []orderedTx          // execOrdered's unresolved items
	liveTxs  []*types.Transaction // and their transactions
	exec     validate.CrossExec
	sessions map[session]struct{}          // staleBlock's, one block's sessions
	fold     func(writes []types.RWRecord) // writes.fold, bound once
}

// orderedTx is one transaction of a wave's consensus-ordered run and
// the block that carried it.
type orderedTx struct {
	tx    *types.Transaction
	b     *types.Block
	cross bool
}

// session is a transaction's identity.
type session struct{ client, nonce uint64 }

// newResult takes an empty result off the free list, or makes one.
func (n *Node) newResult() *waveResult {
	k := len(n.freeResults)
	if k == 0 {
		r := &waveResult{}
		r.fold = r.writes.fold
		return r
	}
	r := n.freeResults[k-1]
	n.freeResults[k-1] = nil
	n.freeResults = n.freeResults[:k-1]
	r.outcomes = r.outcomes[:0]
	r.writes.reset()
	return r
}

// releaseResult returns an installed result to the free list. Its
// contents are cleared when it is taken again, so an installed result
// stays readable until the next run.
func (n *Node) releaseResult(r *waveResult) {
	if len(n.freeResults) < maxBatchWaves {
		n.freeResults = append(n.freeResults, r)
	}
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

// runWave decides one commit wave into res, an empty result: validated
// single-shard preplay results first (rules G1/P2), then its
// cross-shard transactions in consensus order (OE model) — or, in
// ModeSerial, every transaction one by one in commit order (the Tusk
// baseline: no preplay, no parallel validation). It is the only
// encoding of those rules, and a pure function of the wave, the dedup
// view and the base reader: it marks only the view, writes only res,
// and reads nothing of the node beyond Registry, Validators and Mode.
func (c *Config) runWave(w tusk.CommitWave, dedup *gateway.Scratch, base validate.BaseReader, res *waveResult) *waveResult {
	res.writes.over(base)
	res.cross = res.cross[:0]
	for _, v := range w.Vertices {
		b := v.Block
		if b.Kind != types.NormalBlock {
			continue // Shift and Skip blocks carry nothing to execute
		}
		if c.Mode == ModeSerial {
			for _, tx := range b.SingleTxs {
				res.execOrdered(c.Registry, dedup, []orderedTx{{tx: tx, b: b}}, 1)
			}
			for _, tx := range b.CrossTxs {
				res.execOrdered(c.Registry, dedup, []orderedTx{{tx: tx, b: b, cross: true}}, 1)
			}
			continue
		}
		if len(b.SingleTxs) > 0 {
			ok := false
			if !res.staleBlock(b, dedup) {
				if err := validate.ValidateBlock(c.Registry, res.writes.read, b, c.Validators, res.fold); err == nil {
					ok = true
					for _, tx := range b.SingleTxs {
						dedup.Mark(tx)
					}
				}
			}
			res.outcomes = append(res.outcomes, waveOutcome{b: b, ok: ok})
		}
		for _, tx := range b.CrossTxs {
			res.cross = append(res.cross, orderedTx{tx: tx, b: b, cross: true})
		}
	}
	// Cross-shard transactions run after every single-shard result of
	// the wave (rule G1), parallelized over disjoint shard sets (§5.2).
	// Filtering here rather than at collection also drops a promoted
	// copy carried by an early vertex whose original committed through
	// a later vertex's single-shard block.
	res.execOrdered(c.Registry, dedup, res.cross, c.Validators)
	// The working lists keep no block alive on the free list.
	clear(res.cross)
	res.writes.base = nil
	return res
}

// execOrdered executes transactions in the given order, each seeing its
// predecessors' writes. A transaction the view already resolves —
// committed in an earlier wave, by an earlier block of this one, or
// earlier in this very list (a second inclusion of one identity) — is
// dropped. Marking ahead of execution is exact because success and
// deterministic failure both resolve the identity.
func (r *waveResult) execOrdered(reg *contract.Registry, dedup *gateway.Scratch, items []orderedTx, workers int) {
	r.live, r.liveTxs = r.live[:0], r.liveTxs[:0]
	for _, it := range items {
		if dedup.Resolved(it.tx) {
			continue
		}
		dedup.Mark(it.tx)
		r.live = append(r.live, it)
		r.liveTxs = append(r.liveTxs, it.tx)
	}
	if len(r.live) == 0 {
		return
	}
	// The executor folds each of its waves into r.writes, which is how
	// the next wave's reads (through r.writes.read) see it.
	for i, out := range r.exec.Run(reg, r.writes.read, r.liveTxs, workers, r.fold) {
		it := &r.live[i]
		r.outcomes = append(r.outcomes, waveOutcome{b: it.b, tx: out.Tx, ok: out.Err == nil, cross: it.cross})
	}
	clear(r.live)
	clear(r.liveTxs)
}

// staleBlock reports whether a block's single-shard batch must be
// discarded before validation: it carries another shard's transaction
// (a Byzantine proposer), one the view already resolves (a resubmission
// raced a reconfiguration), or one session twice (a Byzantine proposer:
// an honest one's drainQueue keeps one transaction per session).
func (r *waveResult) staleBlock(b *types.Block, dedup *gateway.Scratch) bool {
	if r.sessions == nil {
		r.sessions = make(map[session]struct{}, len(b.SingleTxs))
	}
	clear(r.sessions)
	for _, tx := range b.SingleTxs {
		if len(tx.Shards) != 1 || tx.Shards[0] != b.Shard || dedup.Resolved(tx) {
			return true
		}
		s := session{tx.Client, tx.Nonce}
		if _, dup := r.sessions[s]; dup {
			return true
		}
		r.sessions[s] = struct{}{}
	}
	return false
}

// installBatch installs the decided waves of the install batch, in
// order — the only place waves touch the store and the WAL. The batch
// lands as one store apply carrying one note with every identity it
// resolves (so a crash leaves a batch applied or not, never part of
// one), then installWave replays each wave's bookkeeping in commit
// order, and the results go back to the free list.
func (n *Node) installBatch() {
	if len(n.execBatch) == 0 {
		return
	}
	// The note precedes the marks it describes (durable.go's discipline).
	note := n.newMarkNote()
	if note != nil {
		for i := range n.execBatch {
			n.execBatch[i].res.eachResolved(func(tx *types.Transaction, committed bool) {
				if committed {
					note.commit(tx)
				} else {
					note.fail(tx)
				}
			})
		}
	}
	// The batch's stack holds its writes, coalesced: a key two waves
	// wrote carries the later value.
	if writes := n.stack.writes.recs; len(writes) > 0 {
		n.applyCommit(writes, note.bytes())
	} else {
		n.noteOnly(note.bytes())
	}
	for i := range n.execBatch {
		rw := &n.execBatch[i]
		n.installWave(rw.wave, rw.res, rw.committedAt)
		n.releaseResult(rw.res)
		*rw = ranWave{}
	}
	n.nm.execBatches.Add(1)
	n.execBatch = n.execBatch[:0]
}

// installWave replays one wave of an applied batch onto the node: the
// dedup marks, client acks, commit log, counters, stage histograms and
// the proposer's own-block state, in commit order — everything a wave
// changes besides the store and the WAL, which its batch's apply
// already carried.
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
	// The wave's commit→execute leg: queue wait plus run plus its
	// batch's install.
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
	clear(n.ownWrites)
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
	n.proposeEntry()
	n.replayFuture()
}
