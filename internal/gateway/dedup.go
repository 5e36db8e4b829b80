// Package gateway is the client-facing submission subsystem: the
// bounded dedup state the commit path consults (per-client
// applied-nonce floors with an out-of-order window), the wire protocol
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
//
// (Client, Nonce) is the only transaction identity the commit path
// knows. Admission refuses a transaction without one (Sessioned false):
// the node's Submit errors, the wire answers NackNoSession, and
// NewClient rejects a zero Session. A Byzantine proposer can still put
// such a transaction in a block, so the dedup state reports it as
// already resolved (Dedup.Resolved, Scratch.Resolved) and never marks
// it. Every commit-path filter that drops resolved transactions then
// drops it too, the same way on every replica: a single-shard batch
// carrying one is discarded whole, and an ordered (cross-shard or
// serial) one is skipped without running.
package gateway

import (
	"slices"

	"thunderbolt/internal/types"
)

// DefaultNonceWindow is the per-client out-of-order window: how many
// nonces above the applied floor are tracked individually. It bounds a
// client's in-flight pipeline; a submission more than a window ahead
// of the floor is nacked to back off.
const DefaultNonceWindow = 1024

// Sessioned reports whether tx carries a dedup session identity — the
// admission rule: a transaction without one is refused at submission
// and reads as resolved on the commit path.
func Sessioned(tx *types.Transaction) bool {
	return tx.Client != 0 && tx.Nonce != 0
}

// Admission classifies a submission against the dedup state.
type Admission int

const (
	// AdmitNew: unresolved and inside the window — enqueue it.
	AdmitNew Admission = iota
	// AdmitResolved: already resolved (committed or deterministically
	// failed), or carrying no session — never enqueue.
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
// floors and bitmaps — is bit-identical across honest replicas at
// equal commit positions. That determinism is what lets
// snapshots carry it verbatim.
type Dedup struct {
	window  uint64
	clients map[uint64]*nonceWindow
}

type nonceWindow struct {
	floor uint64
	bits  []uint64 // window/64 words; nonce n maps to bit n % window
}

// NewDedup builds an empty dedup state. window is rounded up to a
// multiple of 64 (0 selects DefaultNonceWindow); it is part of the
// committee contract: every replica must configure the same value or
// dedup state diverges. The second parameter is ignored; it stays for
// existing callers.
func NewDedup(window, _ int) *Dedup {
	if window <= 0 {
		window = DefaultNonceWindow
	}
	if window%64 != 0 {
		window += 64 - window%64
	}
	return &Dedup{
		window:  uint64(window),
		clients: make(map[uint64]*nonceWindow),
	}
}

// Window returns the per-client nonce window size.
func (d *Dedup) Window() int { return int(d.window) }

// Clients returns the number of client sessions tracked.
func (d *Dedup) Clients() int { return len(d.clients) }

// Admit classifies a submission without mutating anything; admission
// never writes, because admission is a per-replica race while dedup
// state must evolve only in committed order.
func (d *Dedup) Admit(tx *types.Transaction) Admission {
	if !Sessioned(tx) {
		return AdmitResolved
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
// deterministically failed) or carries no session. The commit path's
// dedup check.
func (d *Dedup) Resolved(tx *types.Transaction) bool {
	return d.Admit(tx) == AdmitResolved
}

// Mark resolves tx. Must be called only from the deterministic commit
// path (commit, or deterministic execution failure), in committed
// order. A sessioned nonce more than a window above the floor forces
// the floor forward — nonces evicted unresolved lose dedup protection,
// which is the documented bounded-window contract (it cannot happen to
// a client admitted through Admit, whose floor only rises after
// admission). A transaction without a session has no identity to mark.
func (d *Dedup) Mark(tx *types.Transaction) {
	if Sessioned(tx) {
		d.MarkSession(tx.Client, tx.Nonce)
	}
}

// MarkSession resolves one (client, nonce) identity directly — the WAL
// recovery replay's form of Mark. Same discipline: committed order
// only.
func (d *Dedup) MarkSession(client, nonce uint64) {
	w := d.clients[client]
	if w == nil {
		w = &nonceWindow{bits: make([]uint64, d.window/64)}
		d.clients[client] = w
	}
	w.mark(nonce, d.window)
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

// Sessions exports the per-client state in canonical (strictly
// ascending client) order for snapshot capture. Bitmaps are copied.
func (d *Dedup) Sessions() []types.ClientSession {
	clients := d.sortedClients()
	out := make([]types.ClientSession, 0, len(clients))
	for _, c := range clients {
		w := d.clients[c]
		out = append(out, types.ClientSession{
			Client: c,
			Floor:  w.floor,
			Bits:   append([]uint64(nil), w.bits...),
		})
	}
	return out
}

func (d *Dedup) sortedClients() []uint64 {
	clients := make([]uint64, 0, len(d.clients))
	for c := range d.clients {
		clients = append(clients, c)
	}
	slices.Sort(clients)
	return clients
}

// Restore replaces the dedup state with a snapshot's, verbatim. The
// installer's own resolved set is always a prefix of the snapshot's
// (commit sequences are prefix-consistent and the snapshot sits at a
// later position), so taking the snapshot state loses nothing — and
// taking it verbatim, rather than merging, is what keeps the
// installer's next capture bit-identical to honest peers'.
func (d *Dedup) Restore(sessions []types.ClientSession) {
	d.clients = make(map[uint64]*nonceWindow, len(sessions))
	words := int(d.window / 64)
	for _, cs := range sessions {
		bits := make([]uint64, words)
		copy(bits, cs.Bits)
		d.clients[cs.Client] = &nonceWindow{floor: cs.Floor, bits: bits}
	}
}

// EncodeState appends the complete dedup state to e — the durable
// backend's recovery sidecar. Sessions encode in ascending client
// order (deterministic bytes).
func (d *Dedup) EncodeState(e *types.Encoder) {
	clients := d.sortedClients()
	e.U32(uint32(len(clients)))
	for _, c := range clients {
		w := d.clients[c]
		e.U64(c)
		e.U64(w.floor)
		for _, word := range w.bits {
			e.U64(word)
		}
	}
}

// DecodeState replaces the dedup state with one written by
// EncodeState under the same window configuration.
func (d *Dedup) DecodeState(dec *types.Decoder) error {
	words := int(d.window / 64)
	nc := dec.U32()
	clients := make(map[uint64]*nonceWindow, nc)
	for i := uint32(0); i < nc && dec.Err() == nil; i++ {
		c := dec.U64()
		w := &nonceWindow{floor: dec.U64(), bits: make([]uint64, words)}
		for j := range w.bits {
			w.bits[j] = dec.U64()
		}
		clients[c] = w
	}
	if err := dec.Err(); err != nil {
		return err
	}
	d.clients = clients
	return nil
}
