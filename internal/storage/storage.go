// Package storage provides the replica-local state store behind a
// pluggable Backend interface: a versioned key/value map with atomic
// batch commits in a total order and an append-only commit log.
//
// The paper's implementation used LevelDB to hold SmallBank balances.
// This reproduction ships two backends behind the same contract:
//
//   - Store, the in-memory engine the evaluation-shaped benchmarks
//     use (the paper stresses concurrency control, not the disk), and
//   - Durable (durable.go), an append-only segment WAL with
//     group-commit batching and restart-from-disk replay.
//
// Both preserve the two properties the protocols rely on: per-key
// versions (which the OCC baseline validates against) and atomic
// batch commits in a total order (how committed DAG blocks are
// applied).
package storage

import (
	"cmp"
	"slices"
	"sync"

	"thunderbolt/internal/types"
)

// Backend is the pluggable state engine a replica commits into. All
// implementations are safe for concurrent use and share identical
// observable semantics (the conformance suite in conformance_test.go
// is the contract's executable form): every Apply consumes exactly one
// monotonically increasing sequence number and stamps its keys with
// it, reads never alias internal buffers, and Dump/Ascend iterate the
// full state in strictly ascending key order.
type Backend interface {
	// Get returns the current value under k and whether the key
	// exists. The returned value must not be mutated.
	Get(k types.Key) (types.Value, bool)
	// GetVersioned returns the value under k together with the commit
	// sequence number that installed it (0 for missing keys).
	GetVersioned(k types.Key) (types.Value, uint64, bool)
	// Version returns the install version of k (0 if absent).
	Version(k types.Key) uint64
	// Seq returns the sequence number of the latest commit.
	Seq() uint64
	// Set installs a single value outside any batch (workload
	// initialization); it consumes one commit sequence number.
	Set(k types.Key, v types.Value)
	// Apply installs a write batch atomically, stamping every key
	// with the new commit sequence number, and returns that number.
	Apply(writes []types.RWRecord) uint64
	// ApplyNote is Apply plus an opaque recovery note persisted
	// atomically with the batch (either may be empty). Non-durable
	// backends discard the note; the sequence number is consumed
	// either way, so backends stay step-identical under one driver.
	ApplyNote(writes []types.RWRecord, note []byte) uint64
	// Log returns a copy of the retained commit records, oldest
	// first (retention is configured at construction).
	Log() []CommitRecord
	// Len returns the number of keys present.
	Len() int
	// Snapshot returns an immutable copy of the current state.
	Snapshot() map[types.Key]types.Value
	// Dump returns the full state in ascending key order (values
	// cloned) — the canonical ledger form snapshots carry.
	Dump() []types.RWRecord
	// Ascend streams the state in ascending key order without
	// materializing it, stopping early when fn returns false. The
	// record passed to fn must not be retained or mutated.
	Ascend(fn func(types.RWRecord) bool)
	// AscendVersioned is Ascend with each record's install version,
	// and returns the commit sequence number of the state it walked.
	// The whole walk sees one state — no Apply lands between its first
	// and last record — so a record changed after an earlier walk
	// exactly when its version exceeds that walk's sequence number. fn
	// runs under the backend's read lock and must not write to it.
	AscendVersioned(fn func(r types.RWRecord, ver uint64) bool) uint64
	// Keys returns every key, sorted, for deterministic iteration. The
	// slice is the caller's.
	Keys() []types.Key
	// Sync forces any buffered commits durable (group-commit flush);
	// a no-op for non-durable backends.
	Sync() error
	// Close releases backend resources. The backend must not be used
	// afterwards. Closing an in-memory backend is a no-op.
	Close() error
}

// record is one key's current state.
type record struct {
	key types.Key
	val types.Value
	ver uint64
}

// Store is the in-memory Backend: a thread-safe versioned key/value
// store. The zero value is not usable; call New.
//
// Records live in one slab, recs, in insertion order; a slot never
// moves, so an overwrite is one index lookup and an in-place store.
// order lists the slots in ascending key order — the ordered index
// every full-state walk (Ascend, Keys, Dump, the durable checkpoint)
// follows without sorting. Overwrites leave it valid; only a batch
// that inserts new keys outdates it, which shows as order covering
// fewer slots than recs, and the next walk merges the new slots in
// (reindexLocked). Keys are never deleted.
type Store struct {
	mu    sync.RWMutex
	index map[types.Key]uint32 // key → slot in recs; made by the first batch
	recs  []record
	order []uint32
	seq   uint64

	logMu sync.Mutex
	log   []CommitRecord
	// keepLog bounds commit-log retention; 0 disables logging.
	keepLog int
}

var _ Backend = (*Store)(nil)

// CommitRecord is one atomically applied write batch.
type CommitRecord struct {
	Seq    uint64
	Writes []types.RWRecord
}

// New returns an empty store that retains no commit log.
func New() *Store { return NewWithLog(0) }

// NewWithLog returns an empty store retaining the last keep commit
// records (keep <= 0 disables retention).
func NewWithLog(keep int) *Store {
	return &Store{keepLog: keep}
}

// Get returns the current value under k and whether the key exists.
// The returned value must not be mutated.
func (s *Store) Get(k types.Key) (types.Value, bool) {
	v, _, ok := s.GetVersioned(k)
	return v, ok
}

// GetVersioned returns the value under k together with the commit
// sequence number that installed it. Missing keys report version 0.
func (s *Store) GetVersioned(k types.Key) (types.Value, uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i, ok := s.index[k]
	if !ok {
		return nil, 0, false
	}
	r := &s.recs[i]
	return r.val, r.ver, true
}

// Version returns the install version of k (0 if absent).
func (s *Store) Version(k types.Key) uint64 {
	_, ver, _ := s.GetVersioned(k)
	return ver
}

// Seq returns the sequence number of the latest commit.
func (s *Store) Seq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seq
}

// Set installs a single value outside any batch (used for workload
// initialization). It consumes one commit sequence number.
func (s *Store) Set(k types.Key, v types.Value) {
	s.Apply([]types.RWRecord{{Key: k, Value: v}})
}

// Apply installs a write batch atomically, stamping every key with the
// new commit sequence number, and returns that number. Values are
// retained without copying: callers hand over buffers they never
// mutate afterwards (execution results and decoded block payloads),
// the same contract under which Get returns entries uncloned. The
// former per-record clone was a fixed allocation tax on every
// committed write.
func (s *Store) Apply(writes []types.RWRecord) uint64 {
	s.mu.Lock()
	s.seq++
	seq := s.seq
	s.reserveLocked(len(writes))
	for _, w := range writes {
		s.putLocked(w.Key, w.Value, seq)
	}
	s.mu.Unlock()

	s.retain(seq, writes)
	return seq
}

// ApplyNote is Apply with the recovery note discarded (the in-memory
// backend has nothing to recover).
func (s *Store) ApplyNote(writes []types.RWRecord, _ []byte) uint64 {
	return s.Apply(writes)
}

// applyAt installs a write batch under an externally assigned sequence
// number — the WAL replay path, where record sequence numbers were
// fixed at append time. seq must be strictly greater than the current
// sequence.
func (s *Store) applyAt(seq uint64, writes []types.RWRecord) {
	s.mu.Lock()
	s.seq = seq
	s.reserveLocked(len(writes))
	for _, w := range writes {
		s.putLocked(w.Key, w.Value.Clone(), seq)
	}
	s.mu.Unlock()
	s.retain(seq, writes)
}

// reserveLocked sizes the index and the slab for the first batch an
// empty store receives: workload seeding and checkpoint recovery
// install the whole ledger at once, and growing by doubling from
// empty re-hashes and re-copies it several times over.
func (s *Store) reserveLocked(n int) {
	if s.index == nil {
		s.index = make(map[types.Key]uint32, n)
		s.recs = make([]record, 0, n)
	}
}

// putLocked installs one value at version ver.
func (s *Store) putLocked(k types.Key, v types.Value, ver uint64) {
	if i, ok := s.index[k]; ok {
		r := &s.recs[i]
		r.val, r.ver = v, ver
		return
	}
	s.index[k] = uint32(len(s.recs))
	s.recs = append(s.recs, record{key: k, val: v, ver: ver})
}

// rlockOrdered takes the read lock with order covering every slot,
// first merging in (under the write lock) any slots inserted since
// the last walk.
func (s *Store) rlockOrdered() {
	s.mu.RLock()
	for len(s.order) != len(s.recs) {
		s.mu.RUnlock()
		s.mu.Lock()
		s.reindexLocked()
		s.mu.Unlock()
		s.mu.RLock()
	}
}

// reindexLocked extends order over the slots appended since it was
// last complete: the new slots are sorted by key and merged into the
// old order, O(n + m log m) for m new keys among n.
func (s *Store) reindexLocked() {
	byKey := func(a, b uint32) int { return cmp.Compare(s.recs[a].key, s.recs[b].key) }
	old := s.order
	fresh := make([]uint32, 0, len(s.recs)-len(old))
	for i := len(old); i < len(s.recs); i++ {
		fresh = append(fresh, uint32(i))
	}
	slices.SortFunc(fresh, byKey)
	merged := make([]uint32, 0, len(s.recs))
	i, j := 0, 0
	for i < len(old) && j < len(fresh) {
		if byKey(old[i], fresh[j]) < 0 {
			merged = append(merged, old[i])
			i++
		} else {
			merged = append(merged, fresh[j])
			j++
		}
	}
	s.order = append(append(merged, old[i:]...), fresh[j:]...)
}

// retain appends one record to the bounded commit log.
func (s *Store) retain(seq uint64, writes []types.RWRecord) {
	if s.keepLog <= 0 || len(writes) == 0 {
		return
	}
	rec := CommitRecord{Seq: seq, Writes: cloneRecords(writes)}
	s.logMu.Lock()
	s.log = append(s.log, rec)
	if len(s.log) > s.keepLog {
		s.log = s.log[len(s.log)-s.keepLog:]
	}
	s.logMu.Unlock()
}

// Log returns a copy of the retained commit records, oldest first.
func (s *Store) Log() []CommitRecord {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return append([]CommitRecord(nil), s.log...)
}

// Len returns the number of keys present.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.recs)
}

// Snapshot returns an immutable copy of the current state, suitable
// for serial replay during validation and testing.
func (s *Store) Snapshot() map[types.Key]types.Value {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[types.Key]types.Value, len(s.recs))
	for i := range s.recs {
		out[s.recs[i].key] = s.recs[i].val.Clone()
	}
	return out
}

// AscendVersioned streams the state in ascending key order with each
// record's install version, under one read lock, and returns the
// commit sequence number of the state it walked. The record handed to
// fn aliases the store's value; fn must not retain or mutate it, and
// must not write to the store.
func (s *Store) AscendVersioned(fn func(r types.RWRecord, ver uint64) bool) uint64 {
	s.rlockOrdered()
	defer s.mu.RUnlock()
	for _, slot := range s.order {
		r := &s.recs[slot]
		if !fn(types.RWRecord{Key: r.key, Value: r.val}, r.ver) {
			break
		}
	}
	return s.seq
}

// Ascend streams the state in ascending key order: AscendVersioned
// without the versions.
func (s *Store) Ascend(fn func(types.RWRecord) bool) {
	s.AscendVersioned(func(r types.RWRecord, _ uint64) bool { return fn(r) })
}

// Dump returns the full state as records in ascending key order — the
// canonical ledger form state snapshots carry. Values are cloned.
func (s *Store) Dump() []types.RWRecord {
	s.rlockOrdered()
	defer s.mu.RUnlock()
	out := make([]types.RWRecord, len(s.order))
	for i, slot := range s.order {
		r := &s.recs[slot]
		out[i] = types.RWRecord{Key: r.key, Value: r.val.Clone()}
	}
	return out
}

// Keys returns every key, sorted, for deterministic iteration. The
// slice is a fresh copy the caller owns.
func (s *Store) Keys() []types.Key {
	s.rlockOrdered()
	defer s.mu.RUnlock()
	ks := make([]types.Key, len(s.order))
	for i, slot := range s.order {
		ks[i] = s.recs[slot].key
	}
	return ks
}

// Sync is a no-op: every Apply is immediately visible and the store
// has no durability layer to flush.
func (s *Store) Sync() error { return nil }

// Close is a no-op for the in-memory backend.
func (s *Store) Close() error { return nil }

func cloneRecords(recs []types.RWRecord) []types.RWRecord {
	out := make([]types.RWRecord, len(recs))
	for i, r := range recs {
		out[i] = types.RWRecord{Key: r.Key, Value: r.Value.Clone()}
	}
	return out
}

// Overlay is a write buffer layered over a base store. Reads see the
// overlay's own writes first, then the base; Flush applies the buffer
// atomically. It is the execution context for serial replay (Tusk's
// in-order execution, block validation, and test oracles) and is not
// safe for concurrent use.
type Overlay struct {
	base   Backend
	writes map[types.Key]types.Value
	// reads records the first observed value per key, forming the
	// read set of whatever ran against the overlay.
	reads map[types.Key]types.Value
	order []types.Key
}

// NewOverlay creates an empty overlay over base.
func NewOverlay(base Backend) *Overlay {
	return &Overlay{
		base:   base,
		writes: make(map[types.Key]types.Value),
		reads:  make(map[types.Key]types.Value),
	}
}

// Get reads k, preferring buffered writes.
func (o *Overlay) Get(k types.Key) (types.Value, bool) {
	if v, ok := o.writes[k]; ok {
		return v, true
	}
	v, ok := o.base.Get(k)
	if _, seen := o.reads[k]; !seen {
		o.reads[k] = v.Clone()
	}
	return v, ok
}

// Set buffers a write to k.
func (o *Overlay) Set(k types.Key, v types.Value) {
	if _, ok := o.writes[k]; !ok {
		o.order = append(o.order, k)
	}
	o.writes[k] = v.Clone()
}

// Writes returns the buffered writes in first-write order.
func (o *Overlay) Writes() []types.RWRecord {
	out := make([]types.RWRecord, 0, len(o.order))
	for _, k := range o.order {
		out = append(out, types.RWRecord{Key: k, Value: o.writes[k].Clone()})
	}
	return out
}

// Flush applies the buffered writes to the base store atomically and
// clears the buffer. It returns the commit sequence number.
func (o *Overlay) Flush() uint64 {
	seq := o.base.Apply(o.Writes())
	o.Reset()
	return seq
}

// Reset discards buffered state.
func (o *Overlay) Reset() {
	o.writes = make(map[types.Key]types.Value)
	o.reads = make(map[types.Key]types.Value)
	o.order = o.order[:0]
}
