// Dependency-layer planning: when a batch's read/write footprints are
// already known (an executor retrying transactions whose first attempt
// discovered their sets), the conflict graph can be partitioned up
// front into topologically-sorted conflict-free layers and each layer
// executed as one wave — no per-transaction scheduling, no reachability
// queries, no abort/retry churn (the soyart/depgraph layering idiom).
package depgraph

import (
	"sync"

	"thunderbolt/internal/types"
)

// Access is one transaction's known key footprint.
type Access struct {
	Reads  []types.Key
	Writes []types.Key
}

// keyLevels tracks, per key, the highest layer of any writer and any
// reader placed so far.
type keyLevels struct {
	writer int
	reader int
}

// layerBuilder assigns each transaction, in schedule order, the lowest
// layer consistent with every conflict on an earlier transaction:
// a read must land above the key's last writer (RAW), a write above
// both the last writer (WAW) and every reader since (WAR). Two
// transactions sharing a layer therefore never conflict, and every
// dependency points to a strictly lower layer.
// keyLevels entries live in the map by value — a pointer box per
// touched key was one of the planner's heaviest allocation sites.
type layerBuilder struct {
	levels  map[types.Key]keyLevels
	layerOf []int
	sizes   []int // per-layer count scratch, reused across plans
	max     int

	cur int // level of the transaction being placed
}

// builderPool recycles layerBuilders (and their maps) across plans;
// proposers plan concurrently across replicas in one process.
var builderPool = sync.Pool{New: func() any {
	return &layerBuilder{levels: make(map[types.Key]keyLevels, 64)}
}}

func newLayerBuilder(n int) *layerBuilder {
	b := builderPool.Get().(*layerBuilder)
	b.max = -1
	b.cur = 0
	return b
}

// release returns the builder to the pool. The layerOf slice is kept
// (capacity reused); the returned plan from layers() owns fresh memory.
func (b *layerBuilder) release() {
	clear(b.levels)
	b.layerOf = b.layerOf[:0]
	builderPool.Put(b)
}

// read/write raise the pending transaction's layer for one footprint
// key; place seals the transaction and records its accesses.
func (b *layerBuilder) read(k types.Key) {
	if kl, ok := b.levels[k]; ok && kl.writer >= b.cur {
		b.cur = kl.writer + 1
	}
}

func (b *layerBuilder) write(k types.Key) {
	kl, ok := b.levels[k]
	if !ok {
		return
	}
	if kl.writer >= b.cur {
		b.cur = kl.writer + 1
	}
	if kl.reader >= b.cur {
		b.cur = kl.reader + 1
	}
}

// noteRead/noteWrite record one sealed access at level lvl. They are
// plain methods rather than callback iterators: the closure pair the
// old API allocated per placed transaction showed up in commit-path
// profiles.
func (b *layerBuilder) noteRead(k types.Key, lvl int) {
	kl, ok := b.levels[k]
	if !ok {
		kl = keyLevels{writer: -1, reader: lvl}
		b.levels[k] = kl
	} else if lvl > kl.reader {
		kl.reader = lvl
		b.levels[k] = kl
	}
}

func (b *layerBuilder) noteWrite(k types.Key, lvl int) {
	kl, ok := b.levels[k]
	if !ok {
		kl = keyLevels{writer: lvl, reader: -1}
		b.levels[k] = kl
	} else if lvl > kl.writer {
		kl.writer = lvl
		b.levels[k] = kl
	}
}

// seal finishes the pending transaction: callers record its accesses
// via noteRead/noteWrite at the returned level first.
func (b *layerBuilder) seal() {
	lvl := b.cur
	b.layerOf = append(b.layerOf, lvl)
	if lvl > b.max {
		b.max = lvl
	}
	b.cur = 0
}

func (b *layerBuilder) layers() [][]int {
	if b.max < 0 {
		return nil
	}
	for len(b.sizes) < b.max+1 {
		b.sizes = append(b.sizes, 0)
	}
	sizes := b.sizes[:b.max+1]
	clear(sizes)
	for _, l := range b.layerOf {
		sizes[l]++
	}
	// One backing array for all layers keeps the plan allocation-lean.
	backing := make([]int, len(b.layerOf))
	out := make([][]int, b.max+1)
	off := 0
	for l, sz := range sizes {
		out[l] = backing[off : off : off+sz]
		off += sz
	}
	for i, l := range b.layerOf {
		out[l] = append(out[l], i)
	}
	return out
}

// Layers partitions transactions (given in intended schedule order)
// into conflict-free layers; out[L] lists the indices of layer L in
// ascending order. Within a layer no two transactions conflict on any
// footprint key, and every conflict points from a lower layer to a
// higher one, so executing layer by layer — each layer fully parallel
// — is serializable by construction as long as the footprints are
// accurate. Inaccurate footprints cost retries, never correctness:
// the graph still detects the conflict at runtime.
func Layers(accs []Access) [][]int {
	b := newLayerBuilder(len(accs))
	for i := range accs {
		a := &accs[i]
		for _, k := range a.Reads {
			b.read(k)
		}
		for _, k := range a.Writes {
			b.write(k)
		}
		lvl := b.cur
		for _, k := range a.Reads {
			b.noteRead(k, lvl)
		}
		for _, k := range a.Writes {
			b.noteWrite(k, lvl)
		}
		b.seal()
	}
	out := b.layers()
	b.release()
	return out
}
