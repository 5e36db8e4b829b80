// Package depgraph implements the dependency graph at the core of
// Thunderbolt's concurrency controller (paper §8).
//
// The graph tracks causal relationships between in-flight transactions
// as their operations arrive, with no prior knowledge of read/write
// sets. Each node is a transaction; an edge u→v on key K means v must
// serialize after u because of an access to K. Nodes retain at most
// two operations per key — the first read and the last write — which
// is sufficient to preserve every causal constraint (§8.1).
//
// Ordering is nondeterministic: it is fixed by runtime events (which
// write lands first, which reader observes whom), not by arrival
// order. Reads are served from the latest uncommitted write on the key
// (read of uncommitted data), falling back to earlier chain positions
// or the committed store when the newest position would create a
// cycle (§8.4, Figure 10a). Conflicts trigger aborts: a reader that
// cannot be placed aborts alone; a writer invalidating observed values
// cascades aborts through its readers (§8.4, Figure 10b).
//
// The emitted commit sequence is a topological order of the graph, and
// replaying it serially reproduces every observed read and final state
// — the serializability property proved in paper §10 and checked by
// this package's property tests.
//
// The graph is an arena: Reset and Rebase recycle nodes (committed and
// aborted alike), per-key chains, and reachability state in
// O(touched-this-batch), so a proposer executing one batch per DAG
// round reuses one graph for the lifetime of an epoch instead of
// rebuilding it per batch. Rebase additionally carries each key's
// committed-tip value as a cached base value, so batch N+1 diffs
// against batch N's outcome instead of starting cold (the EVE
// reconciler idiom). Layers (layers.go) is the complementary planning
// half: topologically-sorted conflict-free waves for batches whose
// footprints are already known.
//
// Who owns a value's bytes decides how long it lives:
//
//   - Per attempt, the node's arena. Every value Read hands a contract
//     and every value Write retains is a copy in the byte arena of the
//     attempt's node, capped at its own length so that a contract which
//     appends to it reallocates instead of running into the next value.
//     A read record aliases the writer's retained copy or its key's
//     base value. The arena is emptied when the node is recycled, at the
//     next Reset or Rebase, so nothing the graph hands out outlives it.
//   - Per batch, a Slab. Results leave the graph by copy: the caller
//     counts every committed attempt's sets into one Slab, which holds
//     them in one record array and one value array that the graph never
//     touches again.
//   - Across batches, the keyState. A key's base value, fetched through
//     the BaseReader or carried by Rebase from the last committed
//     writer, is copied into a buffer the key's state owns.
package depgraph

import (
	"fmt"
	"sync"

	"thunderbolt/internal/contract"
	"thunderbolt/internal/types"
)

// BaseReader supplies committed values: the graph's root node. A nil
// result means the key is absent (reads as empty value). The base is
// treated as frozen for the duration of one batch: the first root
// fetch per key is cached until the next Reset.
type BaseReader func(k types.Key) types.Value

// Outcome reports how a finished transaction ended.
type Outcome struct {
	// Committed is true when the transaction entered the schedule;
	// false means it was aborted after finishing and must re-execute.
	Committed bool
	// ScheduleIdx is the position in the serialized execution order
	// (valid only when Committed).
	ScheduleIdx int
}

// Tx is one execution attempt of a transaction against the graph. A
// re-executed transaction gets a fresh Tx from Begin. Handles are
// invalidated by Reset/Rebase: copy their sets out (Slab) before
// reusing the graph.
//
// A Tx is the contract.State its attempt runs against: Read and Write
// are the graph's, bound to the attempt.
type Tx struct {
	id   types.Digest
	g    *Graph
	n    *node
	done chan Outcome
}

// ID returns the transaction identity this attempt belongs to.
func (t *Tx) ID() types.Digest { return t.id }

// Done delivers the final outcome after Finish succeeded.
func (t *Tx) Done() <-chan Outcome { return t.done }

// Read is Graph.Read for this attempt.
func (t *Tx) Read(k types.Key) (types.Value, error) { return t.g.Read(t, k) }

// Write is Graph.Write for this attempt.
func (t *Tx) Write(k types.Key, v types.Value) error { return t.g.Write(t, k, v) }

// node is one attempt's place in the graph. It is recycled with
// everything it holds: its maps are cleared, its key lists and its
// arena are cut to length zero and keep their capacity, and its reader
// lists live in the graph's link slab, so a warm graph places an
// attempt without allocating.
type node struct {
	tx  *Tx
	seq uint64 // creation order, for deterministic iteration

	// reads / lastWrite hold the two retained operations per key
	// (§8.1: first read, last write). A read record keeps the value
	// observed and the writer node it came from (nil = root/committed
	// store). Both hold copies in some node's arena or a key's base
	// buffer, which are never written again before the node is
	// recycled, so a read record may alias them.
	reads      map[types.Key]readRec
	lastWrite  map[types.Key]types.Value
	readOrder  []types.Key // keys in first-read order
	writeOrder []types.Key // keys in first-write order
	// readersOf lists, per key this node wrote, the nodes that
	// observed the written value; they cascade-abort if it changes. A
	// reader that aborts stays listed: aborting it again is a no-op.
	// It is the head of a list in the graph's links (noLink: empty).
	readersOf int
	// prior lists, per key this node wrote, the readers serialized
	// immediately before this write (they read the previous version).
	// If this writer aborts, those readers must be re-ordered before
	// the next writer — otherwise the next writer could serialize
	// ahead of them and invalidate their reads silently. Also a list
	// in the graph's links.
	prior int
	// arena holds the bytes of every value this attempt handed to its
	// contract or retained from it (copyIn). It only grows until the
	// node is recycled.
	arena []byte

	in  map[*node]struct{}
	out map[*node]struct{}

	finished  bool
	committed bool
	aborted   bool

	// visitGen is the hasPath visited mark: a node is on the current
	// traversal iff visitGen equals the graph's generation counter, so
	// no visited map is allocated per call.
	visitGen uint64
}

// readRec is one retained first-read: the value observed and the
// writer it was observed from (nil = committed root).
type readRec struct {
	v   types.Value
	src *node
}

// link is one entry of a node's reader list or prior list: the node it
// names, the key it concerns, and the list's next entry. The lists of a
// batch all live in one slab, Graph.links, emptied at each reset, so a
// hot key's writer gathering many readers grows the slab once instead
// of a list of its own in every node it ever lands on.
type link struct {
	k    types.Key
	n    *node
	next int
}

// noLink ends a list in Graph.links.
const noLink = -1

// push prepends (k, n) to the list whose head is *head.
func (g *Graph) push(head *int, k types.Key, n *node) {
	g.links = append(g.links, link{k: k, n: n, next: *head})
	*head = len(g.links) - 1
}

// maxArena bounds the arena a recycled node keeps: one outsized value
// must not pin its bytes for the life of the graph.
const maxArena = 64 << 10

// A new node is sized for a typical footprint — a few keys, each read
// and written once, with small values — so that however the free list
// hands nodes out, reusing one seldom grows it.
const (
	minKeys  = 4
	minArena = 64
)

// copyIn copies v into n's arena. The copy's capacity is its length, so
// a holder that appends to it reallocates instead of overwriting the
// next value. A nil value stays nil (an absent key).
func (n *node) copyIn(v types.Value) types.Value {
	if v == nil {
		return nil
	}
	at := len(n.arena)
	n.arena = append(n.arena, v...)
	return n.arena[at:len(n.arena):len(n.arena)]
}

// keyState tracks the per-key version chain. States are epoch-tagged:
// a state whose epoch lags the graph's is logically empty and is reset
// lazily on first touch, which makes Reset O(keys touched last batch)
// instead of O(all keys ever).
type keyState struct {
	k     types.Key
	epoch uint64

	// chain is the ordered list of uncommitted-or-committed writer
	// nodes for this key; the order is the serialization order of the
	// writes.
	chain []*node
	// readTips are nodes that read the newest version (the last chain
	// element, or the root when the chain is empty) and are not yet
	// ordered before any writer; the next writer serializes after
	// them (Figure 9a).
	readTips map[*node]struct{}

	// rootVal caches the base value (or, after Rebase, the previous
	// batch's committed tip) so repeated root reads skip the BaseReader.
	// Valid iff rootSet and rootGen matches the graph's. Its bytes live
	// in rootBuf, which the state owns: they outlast the batch's nodes,
	// and are only rewritten at a reset, when no reader holds them.
	rootVal types.Value
	rootBuf []byte
	rootSet bool
	rootGen uint64
}

// setRoot caches v as the key's base value, copied into rootBuf.
func (ks *keyState) setRoot(v types.Value, gen uint64) {
	ks.rootVal = nil
	if v != nil {
		if cap(ks.rootBuf) > maxArena {
			ks.rootBuf = nil
		}
		ks.rootBuf = append(ks.rootBuf[:0], v...)
		ks.rootVal = ks.rootBuf[:len(v):len(v)]
	}
	ks.rootSet = true
	ks.rootGen = gen
}

// reachKey identifies one positive reachability fact src⇝dst.
type reachKey struct{ src, dst *node }

// Graph is the concurrency controller state. All methods are safe for
// concurrent use by executor goroutines.
type Graph struct {
	mu   sync.Mutex
	base BaseReader
	keys map[types.Key]*keyState

	nodes   map[*node]struct{}
	nextSeq uint64

	schedule    []*Tx
	commitCount int

	// counters for metrics
	aborts uint64

	// The key-state cache's bound (reset): states dropped so far, and
	// the dropped states kept for reuse.
	keysDropped uint64
	freeKeys    []*keyState

	// Arena state: epoch tags key states, rootGen tags cached base
	// values, touched lists key states used this batch, free holds
	// recycled nodes.
	epoch   uint64
	rootGen uint64
	touched []*keyState
	free    []*node
	// dead holds the batch's aborted nodes until the next reset
	// recycles them: their handles stay readable until then.
	dead []*node
	// links holds every node's reader and prior lists (link).
	links []link

	// hasPath machinery: generation-stamped visited marks, a reusable
	// DFS stack, and a positive-reachability memo. Edge additions
	// preserve positive facts; removals (aborts) and resets bump
	// removeGen, invalidating the memo in O(1).
	visitGen  uint64
	stack     []*node
	reach     map[reachKey]uint64
	removeGen uint64

	// snapFree recycles the reader-set snapshot slices abort cascades
	// and write serialization iterate over (a free-list rather than one
	// scratch: abort recurses through snapshots). All use is under mu.
	snapFree [][]*node

	// FinishWait fast path: while finishing is non-nil (only ever
	// under mu, within one FinishWait call) that node's outcome is
	// recorded here instead of being sent on its done channel.
	finishing     *node
	finishOut     Outcome
	finishDecided bool
}

// New creates an empty graph over the given committed-state reader.
func New(base BaseReader) *Graph {
	if base == nil {
		base = func(types.Key) types.Value { return nil }
	}
	return &Graph{
		base:  base,
		keys:  make(map[types.Key]*keyState),
		nodes: make(map[*node]struct{}),
		reach: make(map[reachKey]uint64),
	}
}

// Reset empties the graph over a new base, recycling nodes and per-key
// state in O(what last batch touched). Every outstanding Tx handle is
// invalidated; cached base values are dropped.
func (g *Graph) Reset(base BaseReader) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.reset(base, false)
}

// Rebase is Reset plus carry: each key touched last batch keeps its
// committed-tip value (or its cached base value if nothing wrote it)
// as the new base value, so the next batch diffs against the previous
// one instead of re-reading through the BaseReader. The caller asserts
// that base agrees with the previous batch's committed outcome — i.e.
// base(k) would return exactly the carried value for every carried k.
func (g *Graph) Rebase(base BaseReader) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.reset(base, true)
}

func (g *Graph) reset(base BaseReader, carry bool) {
	if base == nil {
		base = func(types.Key) types.Value { return nil }
	}
	g.base = base
	if carry {
		for _, ks := range g.touched {
			// The last chain writer is the batch's final committed value
			// for the key; promote it to the cached base. The value is
			// copied out: the writer's arena is reused once it recycles.
			if tip := ks.tipWriter(); tip != nil && tip.committed {
				ks.setRoot(tip.lastWrite[ks.k], g.rootGen)
			}
		}
	} else {
		// Lazily invalidates every cached root value, carried or not.
		g.rootGen++
	}
	g.dropUntouched()
	g.touched = g.touched[:0]
	g.epoch++ // lazily empties every keyState
	for n := range g.nodes {
		delete(g.nodes, n)
		if n.committed {
			g.recycle(n)
		}
		// Live leftovers (caller abandoned an attempt) keep their
		// handles valid-for-reading; they are dropped to the GC.
	}
	for i, n := range g.dead {
		g.recycle(n)
		g.dead[i] = nil
	}
	g.dead = g.dead[:0]
	clear(g.links)
	g.links = g.links[:0]
	g.schedule = g.schedule[:0]
	g.commitCount = 0
	g.removeGen++ // recycled pointers must not revive stale facts
	if len(g.reach) > 0 {
		clear(g.reach)
	}
}

// recycle returns a committed or aborted node (and its Tx shell) to
// the free list for the next Begin.
func (g *Graph) recycle(n *node) {
	// Guarded clears: most maps are empty on conflict-free commits and
	// the mapclear call itself is the dominant recycle cost.
	if len(n.reads) > 0 {
		clear(n.reads)
	}
	if len(n.lastWrite) > 0 {
		clear(n.lastWrite)
	}
	n.readersOf, n.prior = noLink, noLink
	if cap(n.arena) > maxArena {
		n.arena = make([]byte, 0, minArena)
	}
	n.arena = n.arena[:0]
	if len(n.in) > 0 {
		clear(n.in)
	}
	if len(n.out) > 0 {
		clear(n.out)
	}
	n.readOrder = n.readOrder[:0]
	n.writeOrder = n.writeOrder[:0]
	n.finished, n.committed, n.aborted = false, false, false
	n.visitGen = 0
	select { // the outcome is consumed before reuse by construction; be safe
	case <-n.tx.done:
	default:
	}
	g.free = append(g.free, n)
}

// Aborts returns the total number of abort events so far (cumulative
// across Resets).
func (g *Graph) Aborts() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.aborts
}

// Live returns the number of live (uncommitted, unaborted) nodes.
func (g *Graph) Live() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	live := 0
	for n := range g.nodes {
		if !n.committed && !n.aborted {
			live++
		}
	}
	return live
}

// Schedule returns the committed transactions in serialization order.
func (g *Graph) Schedule() []*Tx {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]*Tx(nil), g.schedule...)
}

// Begin registers a new execution attempt for transaction id.
func (g *Graph) Begin(id types.Digest) *Tx {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.nextSeq++
	if k := len(g.free); k > 0 {
		n := g.free[k-1]
		g.free = g.free[:k-1]
		n.seq = g.nextSeq
		n.tx.id = id
		g.nodes[n] = struct{}{}
		return n.tx
	}
	t := &Tx{id: id, g: g, done: make(chan Outcome, 1)}
	t.n = &node{
		tx:         t,
		seq:        g.nextSeq,
		readersOf:  noLink,
		prior:      noLink,
		reads:      make(map[types.Key]readRec, minKeys),
		lastWrite:  make(map[types.Key]types.Value, minKeys),
		readOrder:  make([]types.Key, 0, minKeys),
		writeOrder: make([]types.Key, 0, minKeys),
		arena:      make([]byte, 0, minArena),
		in:         make(map[*node]struct{}),
		out:        make(map[*node]struct{}),
	}
	g.nodes[t.n] = struct{}{}
	return t
}

// dropUntouched bounds the key-state cache: once it holds more than
// twice the states the last batch touched, the states that batch did
// not touch go. Each drop costs O(cache) and removes at least half of
// it, so the bound is amortized O(1) per state ever created, and a
// stream of fresh keys plateaus at a few batches' worth instead of
// growing without limit. A dropped state only loses its cached base
// value, which the next touch reads through the BaseReader again.
// Dropped states are emptied and kept for reuse, so a working set that
// drifts does not allocate a state per new key; the cache and the
// spares together never hold more states than the cache's own peak,
// three batches' footprint at most.
func (g *Graph) dropUntouched() {
	if len(g.keys) <= 2*len(g.touched) {
		return
	}
	for k, ks := range g.keys {
		if ks.epoch == g.epoch {
			continue // touched by the batch being reset
		}
		delete(g.keys, k)
		g.keysDropped++
		ks.k, ks.chain = "", ks.chain[:0]
		if len(ks.readTips) > 0 {
			clear(ks.readTips)
		}
		ks.rootVal, ks.rootSet = nil, false // rootBuf keeps its capacity
		g.freeKeys = append(g.freeKeys, ks)
	}
}

// KeyStates reports the size of the key-state cache and how many states
// its bound has dropped so far.
func (g *Graph) KeyStates() (live int, dropped uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.keys), g.keysDropped
}

func (g *Graph) key(k types.Key) *keyState {
	ks, ok := g.keys[k]
	if !ok {
		if n := len(g.freeKeys); n > 0 {
			ks = g.freeKeys[n-1]
			g.freeKeys = g.freeKeys[:n-1]
			ks.k, ks.epoch = k, g.epoch
		} else {
			ks = &keyState{k: k, epoch: g.epoch, readTips: make(map[*node]struct{})}
		}
		g.keys[k] = ks
		g.touched = append(g.touched, ks)
		return ks
	}
	if ks.epoch != g.epoch {
		// Lazy per-batch reset: the chain and tips belong to a recycled
		// batch.
		ks.epoch = g.epoch
		ks.chain = ks.chain[:0]
		if len(ks.readTips) > 0 {
			clear(ks.readTips)
		}
		g.touched = append(g.touched, ks)
	}
	return ks
}

// hasPath reports whether dst is reachable from src via out-edges.
// Visited marks are generation stamps on the nodes and the DFS stack
// is reused, so steady-state calls allocate nothing; positive answers
// are memoized until the next structural removal.
func (g *Graph) hasPath(src, dst *node) bool {
	if src == dst {
		return true
	}
	if len(src.out) == 0 {
		return false
	}
	rk := reachKey{src, dst}
	if gen, ok := g.reach[rk]; ok && gen == g.removeGen {
		return true
	}
	g.visitGen++
	gen := g.visitGen
	src.visitGen = gen
	stack := append(g.stack[:0], src)
	found := false
	for len(stack) > 0 && !found {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for m := range n.out {
			if m == dst {
				found = true
				break
			}
			if m.visitGen != gen {
				m.visitGen = gen
				stack = append(stack, m)
			}
		}
	}
	g.stack = stack[:0]
	if found {
		if len(g.reach) > 1<<15 { // bound the memo under adversarial churn
			clear(g.reach)
		}
		g.reach[rk] = g.removeGen
	}
	return found
}

// addEdge links u→v. Caller must have verified acyclicity.
func addEdge(u, v *node) {
	if u == v {
		return
	}
	u.out[v] = struct{}{}
	v.in[u] = struct{}{}
}

// Read serves <Read, K> for t. It returns contract.ErrAborted when the
// transaction has been aborted (the executor restarts it).
func (g *Graph) Read(t *Tx, k types.Key) (types.Value, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := t.n
	if n.aborted {
		return nil, contract.ErrAborted
	}
	// Read-your-writes: a key we wrote is served from our own record
	// and does not join the read set.
	if v, ok := n.lastWrite[k]; ok {
		return n.copyIn(v), nil
	}
	// Repeatable read: the first read is retained (§8.1).
	if r, ok := n.reads[k]; ok {
		return n.copyIn(r.v), nil
	}
	ks := g.key(k)
	// Walk the version chain newest-first looking for a serializable
	// position (§8.4: on a cycle, retry from an ancestor).
	for i := len(ks.chain) - 1; i >= -1; i-- {
		var src *node
		if i >= 0 {
			src = ks.chain[i]
		}
		// Reading version i places n between chain[i] and chain[i+1].
		if i+1 < len(ks.chain) && ks.chain[i+1].committed {
			// The successor writer already committed: n can no longer
			// serialize before it, nor before anything older (commits
			// are monotone along the chain).
			break
		}
		if src != nil && g.hasPath(n, src) {
			continue // edge src→n would close a cycle
		}
		if i+1 < len(ks.chain) && g.hasPath(ks.chain[i+1], n) {
			continue // edge n→chain[i+1] would close a cycle
		}
		// The retained record aliases the writer's record (or the
		// cached root): those bytes are only ever replaced, never
		// written again, so one copy for the contract's private use
		// suffices.
		var v types.Value
		if src != nil {
			v = src.lastWrite[k]
			addEdge(src, n)
			g.push(&src.readersOf, k, n)
		} else {
			v = g.rootValue(ks)
		}
		if i+1 < len(ks.chain) {
			next := ks.chain[i+1]
			addEdge(n, next)
			g.push(&next.prior, k, n)
		} else {
			// n observed the newest version: the next writer must
			// serialize after it.
			ks.readTips[n] = struct{}{}
		}
		n.reads[k] = readRec{v: v, src: src}
		n.readOrder = append(n.readOrder, k)
		return n.copyIn(v), nil
	}
	// No serializable position exists: abort the reader (§8.4 rule 1).
	g.abort(n)
	return nil, contract.ErrAborted
}

// rootValue returns the committed/base value for ks, caching the first
// fetch per batch (and serving Rebase-carried values without touching
// the BaseReader at all).
func (g *Graph) rootValue(ks *keyState) types.Value {
	if !ks.rootSet || ks.rootGen != g.rootGen {
		ks.setRoot(g.base(ks.k), g.rootGen)
	}
	return ks.rootVal
}

// dropKey unlinks k's entries from the list whose head is *head.
func (g *Graph) dropKey(head *int, k types.Key) {
	prev := noLink
	for i := *head; i != noLink; i = g.links[i].next {
		switch {
		case g.links[i].k != k:
			prev = i
		case prev == noLink:
			*head = g.links[i].next
		default:
			g.links[prev].next = g.links[i].next
		}
	}
}

// Write serves <Write, K, V> for t.
func (g *Graph) Write(t *Tx, k types.Key, v types.Value) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := t.n
	if n.aborted {
		return contract.ErrAborted
	}
	if _, wroteBefore := n.lastWrite[k]; wroteBefore {
		// Rewriting a value other transactions already observed
		// invalidates their reads: cascading abort (§8.4 rule 2,
		// Figure 10b; Table 1 time 5). Cascades never unlink from a
		// reader list, so the list is walked in place.
		for i := n.readersOf; i != noLink; i = g.links[i].next {
			if l := g.links[i]; l.k == k {
				g.abort(l.n)
			}
		}
		g.dropKey(&n.readersOf, k)
		if n.aborted { // a cascade cycled back through another key
			return contract.ErrAborted
		}
		n.lastWrite[k] = n.copyIn(v)
		return nil
	}
	ks := g.key(k)
	tip := ks.tipWriter()
	if r, read := n.reads[k]; read && r.src != tip {
		// We read a version that is no longer the newest; writing now
		// would have to splice into the middle of the chain, which
		// invalidates later blind writers' readers. Abort self and
		// re-execute against the newest version.
		g.abort(n)
		return contract.ErrAborted
	}
	// Serialize after everyone who observed the current newest
	// version (Figure 9a): readTips → n.
	snap := g.snapshotNodes(ks.readTips)
	defer g.putSnapshot(snap)
	for _, r := range snap {
		if r == n || r.aborted {
			continue
		}
		if g.hasPath(n, r) {
			// r transitively follows n yet read the version n is
			// about to supersede: r's read is doomed. Abort r.
			g.abort(r)
			if n.aborted {
				return contract.ErrAborted
			}
			continue
		}
		addEdge(r, n)
		g.push(&n.prior, k, r)
	}
	if tip != nil && tip != n {
		if g.hasPath(n, tip) {
			// n already precedes the newest writer; appending after it
			// would cycle. Abort self (blind-write conflict).
			g.abort(n)
			return contract.ErrAborted
		}
		addEdge(tip, n)
	}
	ks.chain = append(ks.chain, n)
	if len(ks.readTips) > 0 {
		clear(ks.readTips)
	}
	n.lastWrite[k] = n.copyIn(v)
	n.writeOrder = append(n.writeOrder, k)
	return nil
}

// snapshotNodes copies a node set into a slice so callers can iterate
// while cascaded aborts mutate the underlying map.
func (g *Graph) snapshotNodes(set map[*node]struct{}) []*node {
	if len(set) == 0 {
		return nil
	}
	out := g.nodeBuf()
	for n := range set {
		out = append(out, n)
	}
	return out
}

// nodeBuf takes an empty node slice off the free-list (nil when it is
// empty; append then makes one for putSnapshot to keep).
func (g *Graph) nodeBuf() []*node {
	n := len(g.snapFree)
	if n == 0 {
		return nil
	}
	out := g.snapFree[n-1]
	g.snapFree = g.snapFree[:n-1]
	return out
}

// putSnapshot returns a snapshot slice to the free-list once its
// iteration is done (clearing the node references it pins).
func (g *Graph) putSnapshot(s []*node) {
	if cap(s) == 0 {
		return
	}
	clear(s)
	g.snapFree = append(g.snapFree, s[:0])
}

func (ks *keyState) tipWriter() *node {
	if len(ks.chain) == 0 {
		return nil
	}
	return ks.chain[len(ks.chain)-1]
}

// Finish declares that t's contract code completed. The outcome
// arrives on t.Done(): either a commit with a schedule position, or an
// abort requiring re-execution. Finish returns contract.ErrAborted
// immediately if the transaction is already dead.
func (g *Graph) Finish(t *Tx) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if t.n.aborted {
		return contract.ErrAborted
	}
	t.n.finished = true
	g.tryCommit(t.n)
	return nil
}

// FinishWait declares completion and blocks until t's outcome is
// decided. When the decision falls out of the Finish itself — the
// common conflict-free case, where t has no uncommitted predecessors
// — the outcome is returned directly with no channel round-trip;
// otherwise it waits on t.Done(). Returns contract.ErrAborted if the
// transaction is already dead.
func (g *Graph) FinishWait(t *Tx) (Outcome, error) {
	g.mu.Lock()
	if t.n.aborted {
		g.mu.Unlock()
		return Outcome{}, contract.ErrAborted
	}
	t.n.finished = true
	g.finishing, g.finishDecided = t.n, false
	g.tryCommit(t.n)
	decided, out := g.finishDecided, g.finishOut
	g.finishing = nil
	g.mu.Unlock()
	if decided {
		return out, nil
	}
	return <-t.done, nil
}

// Abort removes t from the graph. It is idempotent — safe on handles
// the graph already aborted — so executors call it on every
// non-committed exit path (terminal contract failures, exhausted
// retries, and contract-originated ErrAborted, where the node is
// still live and would otherwise leak into the next batch's chains).
func (g *Graph) Abort(t *Tx) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !t.n.aborted && !t.n.committed {
		g.abort(t.n)
	}
}

// abort removes n and cascades through readers of its writes.
// Committed nodes are never aborted (commit requires all predecessors
// committed, so no observed value can become stale afterwards).
func (g *Graph) abort(n *node) {
	if n.aborted || n.committed {
		return
	}
	n.aborted = true
	g.aborts++
	g.removeGen++ // structural removal: memoized reachability is stale

	// Cascade first: everyone who read one of n's writes holds a value
	// that will no longer exist. Cascades never unlink from a reader
	// list, so n's is walked in place.
	for i := n.readersOf; i != noLink; i = g.links[i].next {
		g.abort(g.links[i].n)
	}
	// Unlink edges first so chain splicing below sees the graph
	// without n; successors may become commit-eligible.
	succs := g.nodeBuf()
	for m := range n.out {
		delete(m.in, n)
		succs = append(succs, m)
	}
	for m := range n.in {
		delete(m.out, n)
	}
	clear(n.out)
	clear(n.in)
	// Detach from version chains, splicing write order across the gap.
	// Aborts discovered during reattachment are deferred until the
	// splice completes so recursion never mutates a chain mid-walk.
	toAbort := g.nodeBuf()
	for _, k := range n.writeOrder {
		ks := g.keys[k]
		for i, w := range ks.chain {
			if w != n {
				continue
			}
			ks.chain = append(ks.chain[:i], ks.chain[i+1:]...)
			// Preserve ordering between the neighbours.
			if i > 0 && i < len(ks.chain) {
				prev, next := ks.chain[i-1], ks.chain[i]
				if !g.hasPath(prev, next) {
					addEdge(prev, next)
				}
			}
			// Re-order n's prior readers before whatever now occupies
			// n's position; without this a later writer could
			// serialize ahead of readers of the older version.
			var next *node
			if i < len(ks.chain) {
				next = ks.chain[i]
			}
			for i := n.prior; i != noLink; i = g.links[i].next {
				r := g.links[i].n
				if g.links[i].k != k || r.aborted || r == next {
					continue
				}
				if next == nil {
					ks.readTips[r] = struct{}{}
					continue
				}
				if g.hasPath(next, r) {
					// next already precedes r transitively; ordering r
					// before next is impossible — r's read can no
					// longer hold.
					toAbort = append(toAbort, r)
					continue
				}
				addEdge(r, next)
				g.push(&next.prior, k, r)
			}
			break
		}
	}
	// Remove from read-tip sets: n can only be a tip of keys it read.
	for _, k := range n.readOrder {
		if ks, ok := g.keys[k]; ok && ks.epoch == g.epoch {
			delete(ks.readTips, n)
		}
	}
	// n stays listed as a reader of the writers it read from: an
	// aborted reader is skipped by every walk of those lists.
	delete(g.nodes, n)
	g.dead = append(g.dead, n)

	if n.finished {
		g.deliver(n, Outcome{Committed: false})
	}
	for _, r := range toAbort {
		g.abort(r)
	}
	g.putSnapshot(toAbort)
	for _, m := range succs {
		g.tryCommit(m)
	}
	g.putSnapshot(succs)
}

// tryCommit commits n if it is finished and all predecessors have
// committed, then re-examines its successors.
func (g *Graph) tryCommit(n *node) {
	if n.aborted || n.committed || !n.finished {
		return
	}
	for p := range n.in {
		if !p.committed {
			return
		}
	}
	n.committed = true
	idx := g.commitCount
	g.commitCount++
	g.schedule = append(g.schedule, n.tx)
	g.deliver(n, Outcome{Committed: true, ScheduleIdx: idx})
	for m := range n.out {
		g.tryCommit(m)
	}
}

// deliver hands n its outcome: directly when n is inside FinishWait
// on this goroutine (no channel traffic), via its done channel when a
// worker is parked on Done().
func (g *Graph) deliver(n *node, out Outcome) {
	if n == g.finishing {
		g.finishOut, g.finishDecided = out, true
		return
	}
	n.tx.done <- out
}

// ReadSet returns a copy of t's retained first-reads in access order.
// Valid after commit; the copy stays stable after the graph is reset.
// A batch copies many sets at once with a Slab.
func (t *Tx) ReadSet() []types.RWRecord {
	var s Slab
	s.Count(t)
	return s.ReadSet(t)
}

// WriteSet returns a copy of t's retained last-writes in access order,
// under the same rules as ReadSet.
func (t *Tx) WriteSet() []types.RWRecord {
	var s Slab
	s.Count(t)
	return s.WriteSet(t)
}

// Slab holds the read and write sets of a batch's committed attempts in
// one record array and one value array, so copying a batch's sets out
// of the graph costs two allocations whatever its size. Count every
// attempt first; ReadSet and WriteSet then copy each one's sets in.
// The copies alias nothing the graph recycles. The zero value is ready;
// a Slab is filled once and belongs to one goroutine.
type Slab struct {
	recs       []types.RWRecord
	vals       []byte
	nrec, nval int
}

// Count adds t's sets to the size the slab allocates.
func (s *Slab) Count(t *Tx) {
	n := t.n
	s.nrec += len(n.readOrder) + len(n.writeOrder)
	for _, k := range n.readOrder {
		s.nval += len(n.reads[k].v)
	}
	for _, k := range n.writeOrder {
		s.nval += len(n.lastWrite[k])
	}
}

// ReadSet copies t's retained first-reads into the slab, in access
// order. t must have ended (committed) and its graph not been reset.
func (s *Slab) ReadSet(t *Tx) []types.RWRecord {
	at := s.start()
	for _, k := range t.n.readOrder {
		s.recs = append(s.recs, types.RWRecord{Key: k, Value: s.value(t.n.reads[k].v)})
	}
	return s.recs[at:len(s.recs):len(s.recs)]
}

// WriteSet copies t's retained last-writes into the slab, in
// first-write order, under the rules of ReadSet.
func (s *Slab) WriteSet(t *Tx) []types.RWRecord {
	at := s.start()
	for _, k := range t.n.writeOrder {
		s.recs = append(s.recs, types.RWRecord{Key: k, Value: s.value(t.n.lastWrite[k])})
	}
	return s.recs[at:len(s.recs):len(s.recs)]
}

// start allocates the counted arrays on the first copy and returns
// where the next set begins. A set beyond the count still fits: append
// moves on to a new array and the sets handed out keep the old one.
func (s *Slab) start() int {
	if s.recs == nil {
		s.recs = make([]types.RWRecord, 0, s.nrec)
		s.vals = make([]byte, 0, s.nval)
	}
	return len(s.recs)
}

// value copies v into the value array, capped like copyIn.
func (s *Slab) value(v types.Value) types.Value {
	if v == nil {
		return nil
	}
	at := len(s.vals)
	s.vals = append(s.vals, v...)
	return s.vals[at:len(s.vals):len(s.vals)]
}

// ReadKeys returns the keys t read, in first-access order, without
// copying. The slice aliases graph-internal state: it is only valid
// to call after the attempt ended (committed or aborted), from the
// goroutine that drove it, and until the graph is reset.
func (t *Tx) ReadKeys() []types.Key { return t.n.readOrder }

// WriteKeys returns the keys t wrote, in first-write order, under the
// same validity rules as ReadKeys.
func (t *Tx) WriteKeys() []types.Key { return t.n.writeOrder }

// CheckInvariants verifies internal consistency (acyclicity among live
// nodes, chain/edge agreement). It is exported for tests and returns
// a descriptive error when a structural invariant is violated.
func (g *Graph) CheckInvariants() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	// Acyclicity via DFS coloring.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[*node]int, len(g.nodes))
	var visit func(n *node) error
	visit = func(n *node) error {
		color[n] = gray
		for m := range n.out {
			switch color[m] {
			case gray:
				return fmt.Errorf("depgraph: cycle through %v", m.tx.id)
			case white:
				if err := visit(m); err != nil {
					return err
				}
			}
		}
		color[n] = black
		return nil
	}
	for n := range g.nodes {
		if color[n] == white {
			if err := visit(n); err != nil {
				return err
			}
		}
	}
	// Chains contain only live nodes and successive writers are
	// path-ordered. Key states from recycled batches are logically
	// empty and skipped.
	for k, ks := range g.keys {
		if ks.epoch != g.epoch {
			continue
		}
		for i, w := range ks.chain {
			if w.aborted {
				return fmt.Errorf("depgraph: aborted node in chain of %q", k)
			}
			if i > 0 && !ks.chain[i-1].committed && !g.hasPath(ks.chain[i-1], w) {
				return fmt.Errorf("depgraph: chain of %q not path-ordered at %d", k, i)
			}
		}
	}
	return nil
}
