package validate

import (
	"sync"

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

// ExecuteCrossOrdered runs consensus-ordered cross-shard transactions
// under the OE model: the total order is fixed, and parallelism is
// recovered from the declared shard IDs (QueCC-style): transactions
// whose shard sets are disjoint execute concurrently within a wave;
// waves respect the total order. The returned outcomes are in input
// order and the aggregate write delta equals serial in-order
// execution.
//
// Each transaction sees base plus the writes of every earlier wave, and
// the caller keeps that sum: after a wave, fold receives each of its
// transactions' writes — in input order, from the calling goroutine,
// while no worker runs — and base must serve them from then on. Which
// writes fold sees in which order depends on txs alone, never on
// workers or the machine.
func ExecuteCrossOrdered(reg *contract.Registry, base BaseReader, txs []*types.Transaction,
	workers int, fold func(writes []types.RWRecord)) []CrossOutcome {
	outcomes := make([]CrossOutcome, len(txs))
	if len(txs) == 0 {
		return outcomes
	}
	p := planPool.Get().(*wavePlan)
	defer p.release()
	p.plan(txs)

	var wave []int // the running wave's transactions, as indices into txs
	run := func(j int) {
		i := wave[j]
		st := crossStatePool.Get().(*crossState)
		st.read = base
		out := CrossOutcome{Tx: txs[i]}
		if out.Err = vm.ExecuteTx(reg, st, txs[i]); out.Err == nil {
			out.Writes = st.w.take()
		} else {
			st.w.reset()
		}
		outcomes[i] = out
		st.read = nil
		crossStatePool.Put(st)
	}
	for w := 0; w+1 < len(p.start); w++ {
		wave = p.order[p.start[w]:p.start[w+1]]
		each(workers, len(wave), run)
		for _, i := range wave {
			if len(outcomes[i].Writes) > 0 {
				fold(outcomes[i].Writes)
			}
		}
	}
	return outcomes
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

var planPool = sync.Pool{New: func() any {
	return &wavePlan{lastWave: make(map[types.ShardID]int)}
}}

func (p *wavePlan) release() {
	clear(p.lastWave)
	planPool.Put(p)
}

// plan builds waves greedily: a transaction joins the earliest wave
// after the last wave containing a shard it touches.
func (p *wavePlan) plan(txs []*types.Transaction) {
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

var crossStatePool = sync.Pool{New: func() any { return new(crossState) }}

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
