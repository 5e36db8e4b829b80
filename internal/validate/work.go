package validate

import (
	"runtime"
	"sync"
	"sync/atomic"

	"thunderbolt/internal/types"
)

// parallelMin is the smallest run of transactions worth fanning across
// workers; below it the goroutine hand-off costs more than it saves.
const parallelMin = 8

// each calls f(i) once for every i in [0, n) and returns when all calls
// have. It is the package's one fan-out: replay uses it once per batch,
// the cross-shard executor once per wave. A run shorter than
// parallelMin, or with one usable worker (workers <= 0 means one;
// workers beyond GOMAXPROCS only add spawn and hand-off cost), runs
// inline on the caller — on one core every wait would hand the event
// loop's turn to the whole run queue. Otherwise the caller and
// workers-1 goroutines pull indices off one counter, so a slow
// transaction delays nobody but itself.
func each(workers, n int, f func(i int)) {
	if p := runtime.GOMAXPROCS(0); workers > p {
		workers = p
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < parallelMin {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	pull := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			f(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			pull()
		}()
	}
	pull()
	wg.Wait()
}

// scanMax is the largest record set searched by scanning. Footprints
// are a handful of records, where a scan beats hashing the key; past
// scanMax a map takes over, so a transaction built to touch thousands
// of keys costs its executor linear, not quadratic, time.
const scanMax = 16

// position returns k's position in recs, or -1. idx must map every key
// of recs to its position whenever recs holds more than scanMax.
func position(recs []types.RWRecord, idx map[types.Key]int, k types.Key) int {
	if len(recs) <= scanMax {
		for i := range recs {
			if recs[i].Key == k {
				return i
			}
		}
		return -1
	}
	if i, ok := idx[k]; ok {
		return i
	}
	return -1
}

// writeBuf buffers one executing transaction's writes: one record per
// key, in first-write order, holding the last value written.
type writeBuf struct {
	recs []types.RWRecord
	idx  map[types.Key]int // position's index, kept once recs outgrows scanMax
}

func (w *writeBuf) find(k types.Key) int { return position(w.recs, w.idx, k) }

// put records a write without cloning: written values arrive in
// freshly built buffers (see replayState).
func (w *writeBuf) put(k types.Key, v types.Value) {
	if i := w.find(k); i >= 0 {
		w.recs[i].Value = v
		return
	}
	if w.recs == nil {
		w.recs = make([]types.RWRecord, 0, 4) // one allocation for the usual footprint
	}
	w.recs = append(w.recs, types.RWRecord{Key: k, Value: v})
	switch n := len(w.recs); {
	case n == scanMax+1:
		if w.idx == nil {
			w.idx = make(map[types.Key]int, 2*n)
		}
		for i := range w.recs {
			w.idx[w.recs[i].Key] = i
		}
	case n > scanMax+1:
		w.idx[k] = n - 1
	}
}

// reset empties the buffer in place; the cleared array pins no values.
func (w *writeBuf) reset() {
	clear(w.idx)
	clear(w.recs)
	w.recs = w.recs[:0]
}

// take empties the buffer by handing its records to the caller.
func (w *writeBuf) take() []types.RWRecord {
	recs := w.recs
	clear(w.idx)
	w.recs = nil
	return recs
}
