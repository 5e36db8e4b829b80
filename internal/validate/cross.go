package validate

import (
	"slices"

	"thunderbolt/internal/contract"
	"thunderbolt/internal/types"
	"thunderbolt/internal/vm"
)

// CrossOutcome reports one cross-shard transaction's execution.
type CrossOutcome struct {
	Tx *types.Transaction
	// Err is non-nil for terminal contract failures; the transaction
	// then contributed no writes. Failures are deterministic (pure
	// functions of ordered state), so replicas agree on them.
	Err error
	// Writes is the transaction's state delta.
	Writes []types.RWRecord
}

// CrossExec is the ordered cross-shard executor (paper §5.2, OE model)
// and its working memory, owned by the caller: the outcomes, the wave
// plan, one write buffer per transaction of the running wave, and one
// record arena that every outcome's writes live in. A CrossExec run
// again and again grows to its largest call and then allocates nothing
// of its own. The zero value is ready; one goroutine owns it.
type CrossExec struct {
	outcomes []CrossOutcome
	plan     wavePlan
	states   []crossState // states[j] runs the running wave's j-th transaction
	arena    []types.RWRecord
	// The running call's inputs, for run; nil between calls.
	reg  *contract.Registry
	base BaseReader
	txs  []*types.Transaction
	wave []int // the running wave's transactions, as indices into txs
	// runFn is run bound once: a method value made per call would
	// allocate per call.
	runFn func(j int)
}

// Run executes consensus-ordered cross-shard transactions: the total
// order is fixed, and parallelism is recovered from the declared shard
// IDs (QueCC-style): transactions whose shard sets are disjoint execute
// concurrently within a wave; waves respect the total order. The
// returned outcomes are in input order and the aggregate write delta
// equals serial in-order execution. They and their writes stay valid
// until x runs again.
//
// Each transaction sees base plus the writes of every earlier wave, and
// the caller keeps that sum: after a wave, fold receives each of its
// transactions' writes — in input order, from the calling goroutine,
// while no worker runs — and base must serve them from then on. Which
// writes fold sees in which order depends on txs alone, never on
// workers or the machine.
func (x *CrossExec) Run(reg *contract.Registry, base BaseReader, txs []*types.Transaction,
	workers int, fold func(writes []types.RWRecord)) []CrossOutcome {
	x.outcomes = slices.Grow(x.outcomes[:0], len(txs))[:len(txs)]
	clear(x.outcomes)
	if len(txs) == 0 {
		return x.outcomes
	}
	x.plan.plan(txs)
	if x.runFn == nil {
		x.runFn = x.run
	}
	x.reg, x.base, x.txs = reg, base, txs
	x.arena = x.arena[:0]
	for w := 0; w+1 < len(x.plan.start); w++ {
		x.wave = x.plan.order[x.plan.start[w]:x.plan.start[w+1]]
		if grow := len(x.wave) - len(x.states); grow > 0 {
			x.states = append(x.states, make([]crossState, grow)...)
		}
		each(workers, len(x.wave), x.runFn)
		// Writes move into the arena, so the buffers are ready for the
		// next wave and an outcome costs no slice of its own. An arena
		// that grows leaves earlier outcomes on its old array, intact.
		for j, i := range x.wave {
			st := &x.states[j]
			if out := &x.outcomes[i]; out.Err == nil && len(st.w.recs) > 0 {
				at := len(x.arena)
				x.arena = append(x.arena, st.w.recs...)
				out.Writes = x.arena[at:len(x.arena):len(x.arena)]
				fold(out.Writes)
			}
			st.w.reset()
		}
	}
	x.reg, x.base, x.txs, x.wave = nil, nil, nil, nil
	return x.outcomes
}

// run executes the running wave's j-th transaction. A failed one
// leaves its buffer for Run to empty; it contributes no writes.
func (x *CrossExec) run(j int) {
	i := x.wave[j]
	st := &x.states[j]
	st.read = x.base
	out := &x.outcomes[i]
	out.Tx = x.txs[i]
	out.Err = vm.ExecuteTx(x.reg, st, x.txs[i])
	st.read = nil
}

// wavePlan buckets a transaction list by wave, once: order lists the
// transactions wave after wave (input order within a wave), and wave w
// is order[start[w]:start[w+1]].
type wavePlan struct {
	waveOf   []int
	lastWave map[types.ShardID]int
	order    []int
	start    []int
}

// plan builds waves greedily: a transaction joins the earliest wave
// after the last wave containing a shard it touches.
func (p *wavePlan) plan(txs []*types.Transaction) {
	if p.lastWave == nil {
		p.lastWave = make(map[types.ShardID]int)
	}
	clear(p.lastWave)
	p.waveOf = p.waveOf[:0]
	waves := 0
	for _, tx := range txs {
		w := 0
		for _, s := range tx.Shards {
			if lw, ok := p.lastWave[s]; ok && lw+1 > w {
				w = lw + 1
			}
		}
		for _, s := range tx.Shards {
			p.lastWave[s] = w
		}
		p.waveOf = append(p.waveOf, w)
		if w+1 > waves {
			waves = w + 1
		}
	}
	// Counting sort by wave: start first holds each wave's size, then
	// its running offset, and ends as the wave boundaries.
	p.start = append(p.start[:0], make([]int, waves+1)...)
	for _, w := range p.waveOf {
		p.start[w+1]++
	}
	for w := 0; w < waves; w++ {
		p.start[w+1] += p.start[w]
	}
	p.order = append(p.order[:0], make([]int, len(txs))...)
	for i, w := range p.waveOf {
		p.order[p.start[w]] = i
		p.start[w]++
	}
	copy(p.start[1:], p.start[:waves])
	p.start[0] = 0
}

// crossState executes one cross-shard transaction against a view that
// is frozen for the wave, buffering writes. The frozen view is what
// makes reads repeatable, so it caches none; like replayState it clones
// in neither direction.
type crossState struct {
	read BaseReader
	w    writeBuf
}

func (s *crossState) Read(k types.Key) (types.Value, error) {
	if i := s.w.find(k); i >= 0 {
		return s.w.recs[i].Value, nil
	}
	return s.read(k), nil
}

func (s *crossState) Write(k types.Key, v types.Value) error {
	s.w.put(k, v)
	return nil
}
