// Package ce implements Thunderbolt's Concurrent Executor (paper §7):
// a pool of executor goroutines running contract code against a
// shared concurrency controller (the dependency graph of
// internal/depgraph).
//
// The CE preplays a batch of single-shard transactions and emits, for
// each, its runtime-discovered read/write sets, execution results, and
// a position in a serializable schedule — everything a validator needs
// to re-check the batch without re-discovering concurrency (paper §4).
//
// Scheduling is two-phase. The discovery wave runs every transaction
// once, workers pulling indices off a shared atomic counter and
// accumulating results worker-locally (no per-transaction channel
// hand-off, no global result mutex). Transactions that abort re-enter
// through layered retry waves: their first attempt discovered their
// key footprints, so the retry set is partitioned into
// topologically-sorted conflict-free layers (depgraph.Layers) and each
// layer executes as one wave with no conflicts, no reachability
// queries, and no further abort churn — unless a footprint was
// value-dependent and shifted, in which case the transaction simply
// re-enters the next round with its updated footprint. A batch-level
// progress guarantee bounds every transaction even at MaxRetries=0: a
// transaction whose retries exceed the batch size (or any round that
// commits nothing) falls back to a serial slot, executing alone, where
// only its own contract can abort it — deterministic refusal is then
// terminal instead of a livelock.
package ce

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"thunderbolt/internal/contract"
	"thunderbolt/internal/depgraph"
	"thunderbolt/internal/types"
	"thunderbolt/internal/vm"
)

// Config parameterizes a Concurrent Executor.
type Config struct {
	// Executors is the worker-pool size (the paper sweeps 1–16).
	Executors int
	// Registry resolves named contracts.
	Registry *contract.Registry
	// MaxRetries caps re-executions of one transaction before it is
	// reported failed; 0 means no explicit cap. Even at 0, execution
	// is bounded: the batch-level progress guarantee routes any
	// transaction retried more than the batch size — or a whole round
	// that commits nothing — through a serial fallback slot, where it
	// either commits or fails terminally.
	MaxRetries int
}

// CE is a reusable concurrent executor. ExecuteBatch is safe to call
// from multiple goroutines (each call draws a private session from a
// pool and drops its carry); a Session of the caller's own
// additionally carries the previous batch's committed tips across
// consecutive batches.
type CE struct {
	cfg  Config
	pool sync.Pool // *Session, carry dropped before each use
}

// New creates a CE. Executors defaults to 1; Registry is required.
func New(cfg Config) *CE {
	if cfg.Executors <= 0 {
		cfg.Executors = 1
	}
	if cfg.Registry == nil {
		panic("ce: Registry is required")
	}
	return &CE{cfg: cfg}
}

// FailedTx records a transaction that ended with a terminal contract
// failure (bad arguments, unknown contract, out of gas, exhausted
// retry budget, or deterministic refusal in a serial fallback slot).
// Failed transactions commit nothing and are excluded from the
// schedule.
type FailedTx struct {
	Tx  *types.Transaction
	Err error
}

// BatchResult is the preplay outcome of one batch.
type BatchResult struct {
	// Schedule lists committed transactions in serialization order;
	// Results is aligned index-for-index.
	Schedule []*types.Transaction
	Results  []types.TxResult
	// Failed lists terminally failed transactions.
	Failed []FailedTx
	// Reexecutions is the total number of aborted attempts across the
	// batch (the paper's Figure 11 abort metric). Wide and unsigned so
	// long adversarial runs cannot wrap it.
	Reexecutions uint64
}

// Session is a single-caller executor that owns one graph arena and
// reuses it across consecutive batches: nodes, key chains, and
// reachability state are recycled, and each batch's committed tips are
// carried as the next batch's cached base values (the batch N+1
// diffs-against-N contract). Call Invalidate whenever the base state
// may have changed other than by the previous batch's own committed
// writes. A Session must not be shared between goroutines.
//
// The workers' outputs are recycled too, so a warm session allocates
// per batch — the result and its one slab of read/write sets — and not
// per transaction.
type Session struct {
	ce    *CE
	g     *depgraph.Graph
	carry bool
	st    batchState
}

// NewSession creates a session with a fresh arena.
func (ce *CE) NewSession() *Session { return &Session{ce: ce} }

// ExecuteBatch preplays txs like CE.ExecuteBatch, reusing the
// session's arena. When the carry is valid (no Invalidate since the
// previous batch), base is only consulted for keys the previous batch
// never touched.
func (s *Session) ExecuteBatch(base depgraph.BaseReader, txs []*types.Transaction) *BatchResult {
	g := s.begin(base)
	if len(txs) == 0 {
		return &BatchResult{}
	}
	return s.ce.run(g, s.st.reset(s.ce.workers(len(txs))), txs)
}

// begin readies the arena for a batch over base: rebased onto the
// previous batch's outcome while the carry holds, reset otherwise.
func (s *Session) begin(base depgraph.BaseReader) *depgraph.Graph {
	switch {
	case s.g == nil:
		s.g = depgraph.New(base)
	case s.carry:
		s.g.Rebase(base)
	default:
		s.g.Reset(base)
	}
	s.carry = true
	return s.g
}

// Invalidate drops the carried committed-tip state; the next batch
// reads every key through its BaseReader again. Call it when the
// underlying state changed outside the session's own batch stream
// (cross-shard commits, a discarded own block, epoch
// transitions, snapshot installs).
func (s *Session) Invalidate() { s.carry = false }

// Live reports the number of live nodes left in the session's graph —
// zero after every well-formed batch (every non-committed attempt is
// removed); exported so tests can assert the no-leak invariant.
func (s *Session) Live() int {
	if s.g == nil {
		return 0
	}
	return s.g.Live()
}

// Graph exposes the session's arena for invariant checks in tests.
func (s *Session) Graph() *depgraph.Graph { return s.g }

// ExecuteBatch preplays txs against the committed state exposed by
// base. It blocks until every transaction has committed into the
// schedule or failed terminally.
func (ce *CE) ExecuteBatch(base depgraph.BaseReader, txs []*types.Transaction) *BatchResult {
	s := ce.session()
	res := s.ExecuteBatch(base, txs)
	ce.pool.Put(s)
	return res
}

// ExecuteLayered preplays txs whose key footprints are already known —
// the validator re-check shape, or a re-proposal of a batch whose sets
// a previous preplay discovered. The batch skips discovery entirely:
// it is partitioned into conflict-free layers executed as waves with
// no per-transaction scheduling. Footprint divergence (value-dependent
// control flow against a changed base) costs retries, not
// correctness: a transaction whose actual accesses conflict aborts and
// re-enters the normal retry machinery with its corrected footprint.
// accs must align index-for-index with txs.
func (ce *CE) ExecuteLayered(base depgraph.BaseReader, txs []*types.Transaction, accs []depgraph.Access) *BatchResult {
	if len(accs) != len(txs) {
		panic("ce: ExecuteLayered footprints misaligned")
	}
	if len(txs) == 0 {
		return &BatchResult{}
	}
	s := ce.session()
	g := s.begin(base)
	st := s.st.reset(ce.workers(len(txs)))
	for i := range txs {
		st.pending = append(st.pending, attempt{tx: txs[i], reads: accs[i].Reads, writes: accs[i].Writes})
	}
	ce.retryRounds(g, st, st.pending, len(txs))
	res := st.assemble()
	ce.pool.Put(s)
	return res
}

// session draws a pooled session with its carry dropped: a pooled
// arena's last batch ran over some other caller's base.
func (ce *CE) session() *Session {
	s, _ := ce.pool.Get().(*Session)
	if s == nil {
		return ce.NewSession()
	}
	s.Invalidate()
	return s
}

func (ce *CE) workers(n int) int {
	w := ce.cfg.Executors
	if w > n {
		w = n
	}
	// More workers than schedulable CPUs cannot add parallelism, only
	// spawn and hand-off overhead (acute in the GOMAXPROCS=1 bench).
	if p := runtime.GOMAXPROCS(0); w > p {
		w = p
	}
	if w < 1 {
		w = 1
	}
	return w
}

// committed is a scheduled transaction: its committed attempt, whose
// sets assemble copies out, at schedule position idx after retries
// earlier attempts.
type committed struct {
	tx      *types.Transaction
	h       *depgraph.Tx
	idx     int
	retries int
}

// attempt is one transaction awaiting (re-)execution, with the key
// footprint its latest attempt discovered.
type attempt struct {
	tx      *types.Transaction
	retries int
	reads   []types.Key
	writes  []types.Key
}

// workerOut accumulates one worker's results; workers never share
// output state, so the merge happens once per wave instead of once per
// transaction under a global mutex.
type workerOut struct {
	done   []committed
	failed []FailedTx
	retry  []attempt
	rexec  uint64
}

// batchState aggregates worker outputs across waves. It is recycled
// with its session: reset empties every list and keeps its capacity.
type batchState struct {
	outs []workerOut
	// pending and accs are retryRounds' lists: the attempts awaiting
	// the next round and their footprints.
	pending []attempt
	accs    []depgraph.Access
}

// reset readies st for a batch on the given number of workers.
func (st *batchState) reset(workers int) *batchState {
	if cap(st.outs) < workers {
		st.outs = append(st.outs[:cap(st.outs)], make([]workerOut, workers-cap(st.outs))...)
	}
	st.outs = st.outs[:workers]
	for w := range st.outs {
		o := &st.outs[w]
		clear(o.done)
		clear(o.failed)
		clear(o.retry)
		o.done, o.failed, o.retry, o.rexec = o.done[:0], o.failed[:0], o.retry[:0], 0
	}
	clear(st.pending)
	clear(st.accs)
	st.pending, st.accs = st.pending[:0], st.accs[:0]
	return st
}

// drainRetries moves every worker's retries into st.pending, whose
// previous round is done with.
func (st *batchState) drainRetries() []attempt {
	pending := st.pending[:0]
	for w := range st.outs {
		pending = append(pending, st.outs[w].retry...)
		clear(st.outs[w].retry)
		st.outs[w].retry = st.outs[w].retry[:0]
	}
	st.pending = pending
	return pending
}

func (st *batchState) committedCount() int {
	n := 0
	for w := range st.outs {
		n += len(st.outs[w].done)
	}
	return n
}

// assemble builds the batch's result on the coordinating goroutine,
// after the last wave and before the graph is reset, while every
// committed attempt's sets are still in its node. They are counted
// first and then copied into one exactly sized slab, so the batch's
// results cost two allocations whatever their number, and alias nothing
// the graph recycles.
func (st *batchState) assemble() *BatchResult {
	var (
		n      int
		failed []FailedTx
		rexec  uint64
		slab   depgraph.Slab
	)
	for w := range st.outs {
		n += len(st.outs[w].done)
		failed = append(failed, st.outs[w].failed...)
		rexec += st.outs[w].rexec
		for i := range st.outs[w].done {
			slab.Count(st.outs[w].done[i].h)
		}
	}
	out := &BatchResult{
		Schedule:     make([]*types.Transaction, n),
		Results:      make([]types.TxResult, n),
		Failed:       failed,
		Reexecutions: rexec,
	}
	// Schedule indices are dense over committed transactions (the
	// graph hands them out as commit positions, from 0 at each reset),
	// so each result drops straight into its slot.
	for w := range st.outs {
		for i := range st.outs[w].done {
			c := &st.outs[w].done[i]
			if c.idx >= n || out.Schedule[c.idx] != nil {
				panic(fmt.Sprintf("ce: schedule position %d of %d handed out twice or out of range", c.idx, n))
			}
			out.Schedule[c.idx] = c.tx
			out.Results[c.idx] = types.TxResult{
				TxID:         c.tx.ID(),
				ScheduleIdx:  satU32(c.idx),
				ReadSet:      slab.ReadSet(c.h),
				WriteSet:     slab.WriteSet(c.h),
				Reexecutions: satU32(c.retries),
			}
		}
	}
	return out
}

// run executes txs, at least one, to completion over a prepared graph
// and a reset batch state.
func (ce *CE) run(g *depgraph.Graph, st *batchState, txs []*types.Transaction) *BatchResult {
	// Discovery wave: one attempt per transaction, indices pulled off
	// a shared counter, results accumulated worker-locally.
	var next atomic.Int64
	runWorkers(len(st.outs), func(w int) {
		o := &st.outs[w]
		for {
			i := int(next.Add(1)) - 1
			if i >= len(txs) {
				return
			}
			ce.attemptOnce(g, txs[i], 0, o)
		}
	})

	ce.retryRounds(g, st, st.drainRetries(), len(txs))
	return st.assemble()
}

// retryRounds drives pending attempts to completion through layered
// waves plus the serial-fallback progress guarantee.
func (ce *CE) retryRounds(g *depgraph.Graph, st *batchState, pending []attempt, batchSize int) {
	o := &st.outs[0] // serial slots run on the coordinating worker
	for len(pending) > 0 {
		// Progress guarantee, part 1: a transaction retried more than
		// the batch size gets a serial slot now — alone in the graph,
		// only its own contract can reject it, terminally.
		wave := pending[:0]
		for _, a := range pending {
			if a.retries > batchSize {
				ce.serialSlot(g, a, o)
				continue
			}
			wave = append(wave, a)
		}
		if len(wave) == 0 {
			return
		}

		// Partition this round's retries into conflict-free layers by
		// their discovered footprints and run each layer as one wave.
		before := st.committedCount()
		st.accs = st.accs[:0]
		for i := range wave {
			st.accs = append(st.accs, depgraph.Access{Reads: wave[i].reads, Writes: wave[i].writes})
		}
		layers := depgraph.Layers(st.accs)
		for _, layer := range layers {
			ce.runLayer(g, st, wave, layer)
		}
		pending = st.drainRetries()

		// Progress guarantee, part 2: a round that commits nothing will
		// commit nothing forever (footprints have converged); resolve
		// every survivor serially.
		if st.committedCount() == before {
			for _, a := range pending {
				ce.serialSlot(g, a, o)
			}
			return
		}
	}
}

// runLayer executes one conflict-free wave, fanning across workers
// only when the layer is big enough to amortize the spawns.
func (ce *CE) runLayer(g *depgraph.Graph, st *batchState, wave []attempt, layer []int) {
	workers := len(st.outs)
	if workers > len(layer) {
		workers = len(layer)
	}
	if workers <= 1 || len(layer) < 8 {
		o := &st.outs[0]
		for _, li := range layer {
			a := wave[li]
			ce.attemptOnce(g, a.tx, a.retries, o)
		}
		return
	}
	var next atomic.Int64
	runWorkers(workers, func(w int) {
		o := &st.outs[w]
		for {
			i := int(next.Add(1)) - 1
			if i >= len(layer) {
				return
			}
			a := wave[layer[i]]
			ce.attemptOnce(g, a.tx, a.retries, o)
		}
	})
}

// attemptOnce drives one execution attempt. Every exit path either
// commits the transaction or removes its graph handle: Abort is
// idempotent on handles the graph already reaped, and it is the only
// thing standing between a contract-originated ErrAborted — where the
// node is still live, holding chain positions — and a leaked handle
// that wedges every successor.
func (ce *CE) attemptOnce(g *depgraph.Graph, tx *types.Transaction, prior int, o *workerOut) {
	h := g.Begin(tx.ID())
	err := vm.ExecuteTx(ce.cfg.Registry, h, tx)
	switch {
	case err == nil:
		if out, ferr := g.FinishWait(h); ferr == nil {
			if out.Committed {
				o.done = append(o.done, committed{tx: tx, h: h, idx: out.ScheduleIdx, retries: prior})
				return
			}
		}
		// Aborted between last op and Finish, or after Finish; the
		// graph already reaped the node, Abort is a no-op kept for the
		// exit-path audit.
		g.Abort(h)
		o.retryOrFail(ce, h, tx, prior+1)
	case errors.Is(err, contract.ErrAborted):
		// Either the graph aborted us mid-execution (handle already
		// reaped) or the contract itself surfaced ErrAborted with the
		// node still live — release it either way.
		g.Abort(h)
		o.retryOrFail(ce, h, tx, prior+1)
	default:
		// Terminal contract failure: remove any partial effects.
		g.Abort(h)
		o.failed = append(o.failed, FailedTx{Tx: tx, Err: err})
	}
}

// retryOrFail records an aborted attempt: either a retry carrying the
// footprint the attempt discovered (unioned with what earlier attempts
// saw, since an abort can strike before the full set was touched), or
// a terminal failure once the retry budget is spent.
func (o *workerOut) retryOrFail(ce *CE, h *depgraph.Tx, tx *types.Transaction, retries int) {
	o.rexec++
	if ce.exhausted(retries) {
		o.failed = append(o.failed, FailedTx{Tx: tx, Err: errRetriesExhausted})
		return
	}
	var prevR, prevW []types.Key
	for i := range o.retry {
		if o.retry[i].tx == tx {
			// Shouldn't happen (one attempt per tx per wave), but keep
			// the union well-defined.
			prevR, prevW = o.retry[i].reads, o.retry[i].writes
			break
		}
	}
	o.retry = append(o.retry, attempt{
		tx:      tx,
		retries: retries,
		reads:   unionKeys(prevR, h.ReadKeys()),
		writes:  unionKeys(prevW, h.WriteKeys()),
	})
}

// serialSlot executes one transaction with no concurrent attempts in
// flight. Alone, the graph cannot conflict it — chains hold only
// committed writers — so an abort here is the contract's own doing and
// terminal: this is what turns a deterministically-refusing
// (Byzantine) contract from a livelock into a failed transaction.
func (ce *CE) serialSlot(g *depgraph.Graph, a attempt, o *workerOut) {
	h := g.Begin(a.tx.ID())
	err := vm.ExecuteTx(ce.cfg.Registry, h, a.tx)
	if err == nil {
		if out, ferr := g.FinishWait(h); ferr == nil {
			if out.Committed {
				o.done = append(o.done, committed{tx: a.tx, h: h, idx: out.ScheduleIdx, retries: a.retries})
				return
			}
		}
		err = fmt.Errorf("%w: aborted in a serial slot after %d attempts", errNoProgress, a.retries+1)
	} else if errors.Is(err, contract.ErrAborted) {
		err = fmt.Errorf("%w: contract refused deterministically after %d attempts", errNoProgress, a.retries+1)
	}
	g.Abort(h)
	o.rexec++
	o.failed = append(o.failed, FailedTx{Tx: a.tx, Err: err})
}

// unionKeys merges two small key slices, preserving prev's order and
// appending unseen keys from next. Footprints are a handful of keys,
// so the quadratic scan beats a map.
func unionKeys(prev, next []types.Key) []types.Key {
	if len(prev) == 0 {
		return next
	}
	out := prev
outer:
	for _, k := range next {
		for _, p := range out {
			if p == k {
				continue outer
			}
		}
		out = append(out, k)
	}
	return out
}

// runWorkers runs f on n workers (worker 0 inline) and waits.
func runWorkers(n int, f func(w int)) {
	if n <= 1 {
		f(0)
		return
	}
	var wg sync.WaitGroup
	for w := 1; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f(w)
		}(w)
	}
	f(0)
	wg.Wait()
}

// satU32 narrows a counter into a wire-format uint32 without wrapping
// (Figure 11's abort metric saturates instead of aliasing small
// values on pathological runs).
func satU32(v int) uint32 {
	if v < 0 {
		return 0
	}
	if uint64(v) > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(v)
}

var (
	errRetriesExhausted = errors.New("ce: retry budget exhausted")
	errNoProgress       = errors.New("ce: no progress")
)

func (ce *CE) exhausted(retries int) bool {
	return ce.cfg.MaxRetries > 0 && retries >= ce.cfg.MaxRetries
}
