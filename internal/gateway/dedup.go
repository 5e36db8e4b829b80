// Package gateway is the client-facing submission subsystem: the
// bounded dedup state the commit path consults (per-client
// applied-nonce floors with an out-of-order window, plus a bounded
// digest ring for nonce-less legacy transactions), the wire protocol
// a remote client speaks to a shard proposer (submit / ack / nack /
// committed over the existing transport framing), and a client
// library that routes, retries on nack, fails over across proposers,
// and waits for commits.
//
// The dedup state replaces the node's grow-forever applied map: where
// the old map held one digest per transaction ever resolved, the new
// state holds one floor and one fixed-size bitmap per client session
// — memory and snapshot size are bounded by clients × window for the
// life of the process. The contract that buys that bound is the
// session discipline: a client assigns its transactions strictly
// increasing nonces starting at 1, keeps at most window nonces
// outstanding, and never reuses a (client, nonce) pair for different
// content. A nonce at or below the floor is definitionally resolved —
// resubmitting it yields an ack referencing the original commit, and
// it can never be admitted (or committed) again.
package gateway

import (
	"sort"

	"thunderbolt/internal/types"
)

const (
	// DefaultNonceWindow is the per-client out-of-order window: how
	// many nonces above the applied floor are tracked individually. It
	// bounds a client's in-flight pipeline; a submission more than a
	// window ahead of the floor is nacked to back off.
	DefaultNonceWindow = 1024
	// DefaultLegacyWindow is the capacity of the digest ring that
	// deduplicates nonce-less transactions. Under sessioned traffic
	// the ring stays empty; it exists so legacy clients keep working
	// with bounded (rather than unbounded) dedup history.
	DefaultLegacyWindow = 1 << 16
)

// Sessioned reports whether tx carries a dedup session identity.
// Nonce-less (or client-less) transactions fall back to the bounded
// digest window.
func Sessioned(tx *types.Transaction) bool {
	return tx.Client != 0 && tx.Nonce != 0
}

// Admission classifies a submission against the dedup state.
type Admission int

const (
	// AdmitNew: unresolved and inside the window — enqueue it.
	AdmitNew Admission = iota
	// AdmitResolved: already resolved (committed or deterministically
	// failed) — ack as a duplicate, never re-enqueue.
	AdmitResolved
	// AdmitFuture: sessioned nonce more than a window ahead of the
	// client's floor — nack so the client backs off; admitting it
	// would let one client grow server state past the bound.
	AdmitFuture
)

// Dedup is the bounded resolved-transaction state. It is owned by the
// node's event loop (not safe for concurrent use) and, critically,
// mutated only on the deterministic commit path: every replica marks
// the same transactions in the same committed order, so the state —
// floors, bitmaps, ring contents, eviction order — is bit-identical
// across honest replicas at equal commit positions. That determinism
// is what lets epoch-transition snapshots carry it verbatim.
type Dedup struct {
	window    uint64
	legacyCap int

	clients map[uint64]*nonceWindow

	// legacy digest ring: ring[(start+i) % cap] for i in [0, n) walks
	// oldest → newest.
	ring      []types.Digest
	ringStart int
	ringN     int
	ringSet   map[types.Digest]struct{}
}

type nonceWindow struct {
	floor uint64
	bits  []uint64 // window/64 words; nonce n maps to bit n % window
	// Idle-session bookkeeping (ExpireIdle): lastFloor is the floor
	// observed at the previous expiry sweep, idle counts consecutive
	// sweeps with no sign of life, and active records any Mark since
	// the previous sweep — a session committing out-of-order nonces
	// above a permanent hole never moves its floor but is very much
	// alive, and expiring it would re-admit its committed nonces.
	// Mutated only on the commit path (Mark) and at deterministic
	// epoch transitions (ExpireIdle), so it is part of the
	// bit-identical dedup state.
	lastFloor uint64
	idle      uint32
	active    bool
}

// NewDedup builds an empty dedup state. window is rounded up to a
// multiple of 64 (0 selects DefaultNonceWindow); legacyCap ≤ 0 selects
// DefaultLegacyWindow. Both are part of the committee contract: every
// replica must configure the same values or dedup state diverges.
func NewDedup(window, legacyCap int) *Dedup {
	if window <= 0 {
		window = DefaultNonceWindow
	}
	if window%64 != 0 {
		window += 64 - window%64
	}
	if legacyCap <= 0 {
		legacyCap = DefaultLegacyWindow
	}
	return &Dedup{
		window:    uint64(window),
		legacyCap: legacyCap,
		clients:   make(map[uint64]*nonceWindow),
		ring:      make([]types.Digest, 0, min(legacyCap, 4096)),
		ringSet:   make(map[types.Digest]struct{}),
	}
}

// Window returns the per-client nonce window size.
func (d *Dedup) Window() int { return int(d.window) }

// LegacyCap returns the legacy digest-window capacity.
func (d *Dedup) LegacyCap() int { return d.legacyCap }

// Clients returns the number of client sessions tracked.
func (d *Dedup) Clients() int { return len(d.clients) }

// LegacyLen returns the legacy digest window's current population.
func (d *Dedup) LegacyLen() int { return d.ringN }

// Admit classifies a submission without mutating anything; admission
// never writes, because admission is a per-replica race while dedup
// state must evolve only in committed order.
func (d *Dedup) Admit(tx *types.Transaction) Admission {
	if !Sessioned(tx) {
		if _, ok := d.ringSet[tx.ID()]; ok {
			return AdmitResolved
		}
		return AdmitNew
	}
	return d.clients[tx.Client].admit(tx.Nonce, d.window)
}

// admit classifies one nonce against a session's window; a nil window
// is a session never marked (floor 0, nothing resolved).
func (w *nonceWindow) admit(nonce, window uint64) Admission {
	var floor uint64
	if w != nil {
		floor = w.floor
	}
	switch {
	case nonce <= floor:
		return AdmitResolved
	case nonce > floor+window:
		return AdmitFuture
	case w != nil && w.getBit(nonce, window):
		return AdmitResolved
	default:
		return AdmitNew
	}
}

// Resolved reports whether tx has been resolved (committed or
// deterministically failed). The commit path's dedup check.
func (d *Dedup) Resolved(tx *types.Transaction) bool {
	return d.Admit(tx) == AdmitResolved
}

// Mark resolves tx. Must be called only from the deterministic commit
// path (commit, or deterministic execution failure), in committed
// order. A sessioned nonce more than a window above the floor forces
// the floor forward — nonces evicted unresolved lose dedup protection,
// which is the documented bounded-window contract (it cannot happen to
// a client admitted through Admit, whose floor only rises after
// admission).
func (d *Dedup) Mark(tx *types.Transaction) {
	if !Sessioned(tx) {
		d.markLegacy(tx.ID())
		return
	}
	d.MarkSession(tx.Client, tx.Nonce)
}

// MarkSession resolves one sessioned (client, nonce) identity
// directly — the WAL recovery replay's form of Mark. Same discipline:
// committed order only.
func (d *Dedup) MarkSession(client, nonce uint64) {
	w := d.clients[client]
	if w == nil {
		w = &nonceWindow{bits: make([]uint64, d.window/64)}
		d.clients[client] = w
	}
	w.active = true
	w.mark(nonce, d.window)
}

// MarkDigest resolves one nonce-less identity directly (WAL recovery
// replay).
func (d *Dedup) MarkDigest(id types.Digest) { d.markLegacy(id) }

func (d *Dedup) markLegacy(id types.Digest) {
	if _, ok := d.ringSet[id]; ok {
		return
	}
	if d.ringN < d.legacyCap {
		// Filling: the buffer only grows while start is 0, so oldest →
		// newest is a plain prefix walk.
		d.ring = append(d.ring, id)
		d.ringN++
	} else {
		// Full: evict the oldest resolved digest — it leaves the dedup
		// window and a resubmission of it would be admitted again.
		delete(d.ringSet, d.ring[d.ringStart])
		d.ring[d.ringStart] = id
		d.ringStart = (d.ringStart + 1) % d.legacyCap
	}
	d.ringSet[id] = struct{}{}
}

func (w *nonceWindow) getBit(n, window uint64) bool {
	p := n % window
	return w.bits[p/64]&(1<<(p%64)) != 0
}

func (w *nonceWindow) setBit(n, window uint64) {
	p := n % window
	w.bits[p/64] |= 1 << (p % 64)
}

func (w *nonceWindow) clearBit(n, window uint64) {
	p := n % window
	w.bits[p/64] &^= 1 << (p % 64)
}

func (w *nonceWindow) mark(n, window uint64) {
	if n <= w.floor {
		return
	}
	if n > w.floor+window {
		// Forced eviction: advance the floor so n fits the window.
		nf := n - window
		if nf-w.floor >= window {
			for i := range w.bits {
				w.bits[i] = 0
			}
		} else {
			for m := w.floor + 1; m <= nf; m++ {
				w.clearBit(m, window)
			}
		}
		w.floor = nf
	}
	w.setBit(n, window)
	// Contiguous resolution advances the floor; each bit that slides
	// below the floor is cleared because its position will be reused
	// by nonce floor+window later.
	for w.getBit(w.floor+1, window) {
		w.clearBit(w.floor+1, window)
		w.floor++
	}
}

// ExpireIdle runs one idle-session sweep: a session showing no sign
// of life — no floor movement and no Mark at all — since the previous
// sweep accumulates idleness, and one idle for at least `epochs`
// consecutive sweeps is dropped — its memory (and snapshot footprint)
// is reclaimed, at the documented cost that the dropped session loses
// dedup protection (a very late resubmission of its old nonces would
// be admitted as new, exactly like a digest evicted from the legacy
// ring). Must be called only on the deterministic commit path, at
// epoch transitions, so every honest replica sweeps the same sessions
// in the same committed state; epochs <= 0 disables the sweep.
// Dropped client IDs return in ascending order.
func (d *Dedup) ExpireIdle(epochs int) []uint64 {
	if epochs <= 0 {
		return nil
	}
	var dropped []uint64
	for c, w := range d.clients {
		if w.floor == w.lastFloor && !w.active {
			w.idle++
			if int(w.idle) >= epochs {
				delete(d.clients, c)
				dropped = append(dropped, c)
			}
		} else {
			w.lastFloor = w.floor
			w.idle = 0
		}
		w.active = false
	}
	sort.Slice(dropped, func(i, j int) bool { return dropped[i] < dropped[j] })
	return dropped
}

// Sessions exports the per-client state in canonical (strictly
// ascending client) order for snapshot capture. Bitmaps are copied.
// Snapshots are captured at epoch transitions immediately after the
// idle sweep, where lastFloor == floor by construction, so the idle
// counter is the only sweep state a snapshot needs to carry.
func (d *Dedup) Sessions() []types.ClientSession {
	out := make([]types.ClientSession, 0, len(d.clients))
	for c, w := range d.clients {
		out = append(out, types.ClientSession{
			Client: c,
			Floor:  w.floor,
			Idle:   w.idle,
			Bits:   append([]uint64(nil), w.bits...),
		})
	}
	sortSessions(out)
	return out
}

// Legacy exports the legacy digest window, oldest first, for snapshot
// capture.
func (d *Dedup) Legacy() []types.Digest {
	out := make([]types.Digest, 0, d.ringN)
	for i := 0; i < d.ringN; i++ {
		out = append(out, d.ring[(d.ringStart+i)%len(d.ring)])
	}
	return out
}

// Restore replaces the dedup state with a snapshot's, verbatim. The
// installer's own resolved set is always a prefix of the snapshot's
// (commit sequences are prefix-consistent and the snapshot sits at a
// later position), so taking the snapshot state loses nothing — and
// taking it verbatim, rather than merging, is what keeps the
// installer's next capture bit-identical to honest peers'.
func (d *Dedup) Restore(sessions []types.ClientSession, legacy []types.Digest) {
	d.clients = make(map[uint64]*nonceWindow, len(sessions))
	words := int(d.window / 64)
	for _, cs := range sessions {
		bits := make([]uint64, words)
		copy(bits, cs.Bits)
		// Snapshots are cut right after the transition's idle sweep,
		// where lastFloor == floor on every honest replica.
		d.clients[cs.Client] = &nonceWindow{
			floor: cs.Floor, bits: bits,
			lastFloor: cs.Floor, idle: cs.Idle,
		}
	}
	d.ring = d.ring[:0]
	d.ringStart = 0
	d.ringN = 0
	d.ringSet = make(map[types.Digest]struct{}, len(legacy))
	for _, id := range legacy {
		d.markLegacy(id)
	}
}

func sortSessions(ss []types.ClientSession) {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Client < ss[j].Client })
}

// EncodeState appends the complete dedup state to e — the durable
// backend's recovery sidecar. Unlike Sessions/Legacy (the snapshot
// form, valid only at transition boundaries), this is full fidelity:
// it includes the idle sweep's lastFloor, so a checkpoint cut at an
// arbitrary mid-epoch position restores byte-exact sweep behaviour.
// Sessions encode in ascending client order (deterministic bytes).
func (d *Dedup) EncodeState(e *types.Encoder) {
	clients := make([]uint64, 0, len(d.clients))
	for c := range d.clients {
		clients = append(clients, c)
	}
	sort.Slice(clients, func(i, j int) bool { return clients[i] < clients[j] })
	e.U32(uint32(len(clients)))
	for _, c := range clients {
		w := d.clients[c]
		e.U64(c)
		e.U64(w.floor)
		e.U64(w.lastFloor)
		e.U32(w.idle)
		if w.active {
			e.U8(1)
		} else {
			e.U8(0)
		}
		for _, word := range w.bits {
			e.U64(word)
		}
	}
	e.U32(uint32(d.ringN))
	for i := 0; i < d.ringN; i++ {
		e.Digest(d.ring[(d.ringStart+i)%len(d.ring)])
	}
}

// DecodeState replaces the dedup state with one written by
// EncodeState under the same window configuration.
func (d *Dedup) DecodeState(dec *types.Decoder) error {
	words := int(d.window / 64)
	nc := dec.U32()
	clients := make(map[uint64]*nonceWindow, nc)
	for i := uint32(0); i < nc && dec.Err() == nil; i++ {
		w := &nonceWindow{bits: make([]uint64, words)}
		c := dec.U64()
		w.floor = dec.U64()
		w.lastFloor = dec.U64()
		w.idle = dec.U32()
		w.active = dec.U8() == 1
		for j := 0; j < words; j++ {
			w.bits[j] = dec.U64()
		}
		clients[c] = w
	}
	na := dec.U32()
	legacy := make([]types.Digest, 0, na)
	for i := uint32(0); i < na && dec.Err() == nil; i++ {
		legacy = append(legacy, dec.Digest())
	}
	if err := dec.Err(); err != nil {
		return err
	}
	d.clients = clients
	d.ring = d.ring[:0]
	d.ringStart, d.ringN = 0, 0
	d.ringSet = make(map[types.Digest]struct{}, len(legacy))
	for _, id := range legacy {
		d.markLegacy(id)
	}
	return nil
}
