package node

// batchLatencyTargetTicks is the own-block commit latency target, in
// housekeeping ticks: a block that takes longer from proposal to commit
// counts as latency pressure.
const batchLatencyTargetTicks = 4

// batchController adapts the proposer's per-block batch size to
// offered load, in the B^ε-tree spirit of amortizing per-item cost by
// batching harder exactly when the buffer is deep: while the ingress
// queue still holds more than a full batch after a drain, the batch
// doubles toward the cap; when the node's own blocks miss the commit
// latency target, it halves back toward the floor. The controller is
// a pure function of its observation sequence — no clocks, no
// randomness — so replicas fed identical observations size batches
// identically (pinned by TestAdaptiveBatchBounds).
type batchController struct {
	floor int // Config.BatchSize
	cap   int // 4 × Config.BatchSize; cap <= floor fixes the size
	size  int // current batch size
}

func newBatchController(floor, cap int) batchController {
	if cap < floor {
		cap = floor
	}
	return batchController{floor: floor, cap: cap, size: floor}
}

// Size is the batch size currently in effect.
func (b *batchController) Size() int { return b.size }

// ObserveQueue reacts to the ingress queue depth remaining after a
// drain: a backlog deeper than the current batch means the proposer
// is underbatching for the offered load.
func (b *batchController) ObserveQueue(depth int) {
	if depth > b.size && b.size < b.cap {
		b.size *= 2
		if b.size > b.cap {
			b.size = b.cap
		}
	}
}

// ObserveLatency reacts to one own-block commit latency measurement:
// over-target latency halves the batch back toward the floor (bigger
// blocks were not worth their pipeline residency).
func (b *batchController) ObserveLatency(overTarget bool) {
	if overTarget && b.size > b.floor {
		b.size /= 2
		if b.size < b.floor {
			b.size = b.floor
		}
	}
}
