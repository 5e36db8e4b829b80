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
//     group-commit batching and restart-from-disk replay, which keeps
//     a Store as its index.
//
// Both preserve the two properties the protocols rely on: per-key
// versions (which the OCC baseline validates against) and atomic
// batch commits in a total order (how committed DAG blocks are
// applied).
//
// A Store keeps its ledger in LevelDB's shape — a small mutable buffer
// over immutable sorted runs — with Sky^ε-Tree's rule of buffering
// updates and flushing them in batches (ledger.go). It has three parts:
//
//   - chunks: the ledger in key order, cut every ChunkSize records,
//     each one byte run that is exactly the snapshot chunk encoding
//     (types.ChunkBuilder's cut, boundaries and digests) plus private
//     per-record offsets and install versions;
//   - an open-addressing index of uint64 entries (a hash tag and a
//     record ordinal, or a buffer position), one probe sequence per
//     lookup;
//   - a write buffer that takes every Apply and that a fold turns into
//     rewritten chunks — at each snapshot capture (Chunks), before an
//     ordered walk, and whenever it outgrows a quarter of the ledger.
//
// None of the chunks' or the index's backing arrays holds a pointer,
// so the garbage collector marks the ledger as O(chunks) objects
// instead of scanning O(records) keys and values, and a snapshot
// capture takes the chunks by reference, hashing only those a fold
// rewrote.
//
// The aliasing rule: a value returned by Get is a view of memory the
// store never writes again — a chunk's immutable bytes, clipped to the
// value, or a buffered value the caller handed over — so it stays valid
// for as long as it is held and must not be mutated. Apply keeps the
// caller's value buffers until the next fold copies them into a chunk,
// so callers must not mutate them afterwards either.
package storage

import (
	"math/bits"
	"slices"
	"strings"
	"sync"

	"thunderbolt/internal/types"
)

// Backend is the pluggable state engine a replica commits into. All
// implementations are safe for concurrent use and share identical
// observable semantics (the conformance suite in conformance_test.go
// is the contract's executable form): every Apply consumes exactly one
// monotonically increasing sequence number and stamps its keys with
// it, values handed in and read out are never mutated by either side
// (see the package comment), and Ascend and Chunks present the full
// state in strictly ascending key order.
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
	// Ascend streams the state in ascending key order without
	// materializing it, stopping early when fn returns false. The
	// walk sees one state: no Apply lands between its first and last
	// record. The record passed to fn must not be mutated; fn runs
	// under the backend's read lock and must not write to it.
	Ascend(fn func(types.RWRecord) bool)
	// Chunks folds any buffered writes and returns the state in
	// snapshot chunk form, as of one sequence number.
	Chunks() Chunks
	// Keys returns every key, sorted, for deterministic iteration. The
	// slice is the caller's.
	Keys() []types.Key
	// Instrument makes the backend record its ledger metrics into m.
	Instrument(m LedgerMetrics)
	// Sync forces any buffered commits durable (group-commit flush);
	// a no-op for non-durable backends.
	Sync() error
	// Close releases backend resources. The backend must not be used
	// afterwards. Closing an in-memory backend is a no-op.
	Close() error
}

// Chunks is a backend's state in snapshot chunk form: Records records
// in ascending key order, cut into chunks of Size records (the last
// may hold fewer), each encoded exactly as types.ChunkBuilder encodes
// it. Enc's byte slices are immutable and may be held for as long as
// needed; the slices themselves are the caller's.
type Chunks struct {
	Size    int
	Records int
	Seq     uint64 // the commit the chunks are the state of
	Enc     [][]byte
	Digests []types.Digest // types.HashBytes of each encoding
	// Rehashed counts the chunks this call hashed: those a fold
	// rebuilt since their digest was last taken. The rest are the
	// chunks an earlier call returned, unchanged.
	Rehashed int
}

// record is one key's state in a checkpoint or a re-cut.
type record struct {
	key types.Key
	val types.Value
	ver uint64
}

// Store is the in-memory Backend: a thread-safe versioned key/value
// store over chunks, an index and a write buffer (see the package
// comment and ledger.go). The zero value is not usable; call New.
// Keys are never deleted.
type Store struct {
	mu      sync.RWMutex
	size    int // records per chunk
	shift   int // ordinal bits for a slot: 1<<shift ≥ size
	chunks  []chunk
	records int // records in chunks
	bytes   int // their encodings' total length
	index   []uint64
	buf     []pending
	inserts int // buffered keys the chunks do not hold yet
	seq     uint64
	m       LedgerMetrics

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
func NewWithLog(keep int) *Store { return NewChunked(0, keep) }

// NewChunked is NewWithLog with chunks of chunkRecords records instead
// of types.DefaultChunkRecords (0 keeps the default) — for tests that
// cut many chunks from a small ledger.
func NewChunked(chunkRecords, keepLog int) *Store {
	if chunkRecords <= 0 {
		chunkRecords = types.DefaultChunkRecords
	}
	return &Store{size: chunkRecords, shift: bits.Len(uint(chunkRecords - 1)), keepLog: keepLog}
}

// Get returns the current value under k and whether the key exists.
// The returned value must not be mutated. Unlike GetVersioned it leaves
// the version array alone: one cache line fewer on the hot read path.
func (s *Store) Get(k types.Key) (types.Value, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, c, j, ok := s.lookup(string(k))
	switch {
	case !ok:
		return nil, false
	case p != nil:
		return p.val, true
	}
	return c.val(j), true
}

// GetVersioned returns the value under k together with the commit
// sequence number that installed it. Missing keys report version 0.
func (s *Store) GetVersioned(k types.Key) (types.Value, uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, c, j, ok := s.lookup(string(k))
	switch {
	case !ok:
		return nil, 0, false
	case p != nil:
		return p.val, p.ver, true
	}
	return c.val(j), c.ver[j], true
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
// retained without copying until the next fold copies them into a
// chunk: callers hand over buffers they never mutate afterwards
// (execution results and decoded block payloads), the same contract
// under which Get returns entries uncloned.
func (s *Store) Apply(writes []types.RWRecord) uint64 {
	s.mu.Lock()
	s.seq++
	seq := s.seq
	s.applyLocked(seq, writes)
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
// sequence. Values are cloned: they alias the segment file buffer.
func (s *Store) applyAt(seq uint64, writes []types.RWRecord) {
	own := make([]types.RWRecord, len(writes))
	for i, w := range writes {
		own[i] = types.RWRecord{Key: w.Key, Value: w.Value.Clone()}
	}
	s.mu.Lock()
	s.seq = seq
	s.applyLocked(seq, own)
	s.mu.Unlock()
	s.retain(seq, writes)
}

// applyLocked buffers a batch at version seq, folding when the buffer
// outgrows its bound. A store's first batch (workload seeding) skips
// the buffer: one sort cuts it straight into chunks.
func (s *Store) applyLocked(seq uint64, writes []types.RWRecord) {
	if s.records == 0 && len(s.buf) == 0 && len(writes) > 0 {
		order := keyOrder(writes)
		n := len(writes)
		if order != nil {
			n = len(order)
		}
		s.build(n, func(i int) (types.Key, types.Value, uint64) {
			if order != nil {
				i = int(order[i])
			}
			return writes[i].Key, writes[i].Value, seq
		})
		return
	}
	for _, w := range writes {
		s.putLocked(w.Key, w.Value, seq)
	}
	if len(s.buf) > s.foldAt() {
		s.foldLocked()
	}
	s.report()
}

// keyOrder returns the positions of writes in key order, the last
// write of a repeated key winning, or nil when writes are already
// strictly ascending (workload seeding is).
func keyOrder(writes []types.RWRecord) []int32 {
	ascending := true
	for i := 1; i < len(writes) && ascending; i++ {
		ascending = writes[i-1].Key < writes[i].Key
	}
	if ascending {
		return nil
	}
	order := make([]int32, len(writes))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return strings.Compare(string(writes[a].Key), string(writes[b].Key)) })
	out := order[:0]
	for i, p := range order {
		if i+1 < len(order) && writes[order[i+1]].Key == writes[p].Key {
			continue
		}
		out = append(out, p)
	}
	return out
}

// load installs a checkpoint's records (ascending by key) and sequence
// number into an empty store.
func (s *Store) load(seq uint64, recs []record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq = seq
	s.build(len(recs), func(i int) (types.Key, types.Value, uint64) { return recs[i].key, recs[i].val, recs[i].ver })
}

// rlockFolded takes the read lock over an empty write buffer, first
// folding it under the write lock.
func (s *Store) rlockFolded() {
	s.mu.RLock()
	for len(s.buf) != 0 {
		s.mu.RUnlock()
		s.mu.Lock()
		s.foldLocked()
		s.mu.Unlock()
		s.mu.RLock()
	}
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
	return s.records + s.inserts
}

// Snapshot returns an immutable copy of the current state, suitable
// for serial replay during validation and testing.
func (s *Store) Snapshot() map[types.Key]types.Value {
	out := make(map[types.Key]types.Value, s.Len())
	s.Ascend(func(r types.RWRecord) bool {
		out[r.Key] = r.Value.Clone()
		return true
	})
	return out
}

// ascendVersioned walks the state in ascending key order with each
// record's install version, under one read lock.
func (s *Store) ascendVersioned(fn func(r types.RWRecord, ver uint64) bool) {
	s.rlockFolded()
	defer s.mu.RUnlock()
	for c := range s.chunks {
		ch := &s.chunks[c]
		for j := range ch.off {
			if !fn(types.RWRecord{Key: types.Key(ch.key(j)), Value: ch.val(j)}, ch.ver[j]) {
				return
			}
		}
	}
}

// Ascend streams the state in ascending key order over the chunks,
// after folding the write buffer. Keys and values are views of
// immutable chunk bytes.
func (s *Store) Ascend(fn func(types.RWRecord) bool) {
	s.ascendVersioned(func(r types.RWRecord, _ uint64) bool { return fn(r) })
}

// Chunks folds the write buffer, hashes the chunks the fold (or an
// earlier one) rebuilt, and returns every chunk by reference.
func (s *Store) Chunks() Chunks {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.foldLocked()
	out := Chunks{
		Size: s.size, Records: s.records, Seq: s.seq,
		Enc:     make([][]byte, len(s.chunks)),
		Digests: make([]types.Digest, len(s.chunks)),
	}
	for i := range s.chunks {
		ch := &s.chunks[i]
		if ch.stale {
			ch.digest, ch.stale = types.HashBytes(ch.enc), false
			out.Rehashed++
		}
		out.Enc[i], out.Digests[i] = ch.enc, ch.digest
	}
	return out
}

// Keys returns every key, sorted, for deterministic iteration. The
// slice is a fresh copy the caller owns; its strings are views of
// immutable chunk bytes.
func (s *Store) Keys() []types.Key {
	s.rlockFolded()
	defer s.mu.RUnlock()
	ks := make([]types.Key, 0, s.records)
	for c := range s.chunks {
		ch := &s.chunks[c]
		for j := range ch.off {
			ks = append(ks, types.Key(ch.key(j)))
		}
	}
	return ks
}

// Instrument makes the store record its ledger metrics into m.
func (s *Store) Instrument(m LedgerMetrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m = m
	s.report()
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
