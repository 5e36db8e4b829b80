package types

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// DefaultChunkRecords is the default number of ledger records per
// snapshot chunk. At ~50 bytes per account cell this puts a chunk in
// the low hundreds of KB — large enough that manifest overhead is
// noise, small enough that one lost or corrupt chunk is a cheap
// re-request.
const DefaultChunkRecords = 4096

// A snapshot chunk's canonical encoding is a count-prefixed run of
// ledger records in ascending key order (u32 count, then key and value
// per record, each length-prefixed) — ChunkBuilder cuts it. The chunk
// digest is HashBytes of exactly these bytes, so a chunk verifies
// against its manifest entry without any surrounding context.

// DecodeChunk decodes one chunk payload. Keys are private copies, not
// interned (see decodeLedger).
func DecodeChunk(b []byte) ([]RWRecord, error) {
	d := NewDecoder(b)
	recs := decodeLedger(d)
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return recs, nil
}

// MerkleFold folds a list of chunk digests into a single root by
// pairwise hashing; an odd tail digest is promoted unchanged. The
// snapshot digest commits to both the fold and the chunk count, so
// the tree shape is fixed and promotion introduces no ambiguity. An
// empty list folds to HashBytes(nil).
func MerkleFold(ds []Digest) Digest {
	if len(ds) == 0 {
		return HashBytes(nil)
	}
	level := append([]Digest(nil), ds...)
	var pair [64]byte
	for len(level) > 1 {
		next := level[:0]
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				next = append(next, level[i])
				break
			}
			copy(pair[:32], level[i][:])
			copy(pair[32:], level[i+1][:])
			next = append(next, HashBytes(pair[:]))
		}
		level = next
	}
	return level[0]
}

// ChunkBuilder turns a key-ordered record stream into fixed-size
// encoded chunks plus their digests, one chunk in memory at a time —
// capture never materializes the full ledger for large states. Add
// copies a record straight into the chunk encoding and keeps no
// reference to it, so the stream may alias storage internals.
//
// When keepLimit ≥ 0 the builder additionally retains the decoded
// records (values cloned) until the stream exceeds that many, then
// drops them. Snapshot capture and chunk fetch pass -1: no snapshot
// carries records beside its chunks.
//
// A builder armed with Reuse is incremental: a chunk none of whose
// records changed since the previous pass is taken from that pass by
// reference instead of being allocated and hashed again. The result
// is the same either way — a pass with nothing to reuse is the
// from-scratch pass.
type ChunkBuilder struct {
	size    int
	keep    bool
	limit   int
	records []RWRecord
	chunks  [][]byte
	digests []Digest
	count   int

	// The chunk being cut: its encoding so far, how many records that
	// holds, the length of its head (count and first key), and whether
	// any of its records is newer than the previous pass.
	enc   Encoder
	n     int
	head  int
	dirty bool

	// The previous pass over the same store (Reuse).
	prevChunks  [][]byte
	prevDigests []Digest
	since       uint64
	reused      int
}

// NewChunkBuilder returns a builder cutting chunks of size records.
// keepLimit < 0 disables record retention.
func NewChunkBuilder(size, keepLimit int) *ChunkBuilder {
	if size <= 0 {
		size = DefaultChunkRecords
	}
	return &ChunkBuilder{size: size, keep: keepLimit >= 0, limit: keepLimit}
}

// Reuse arms the builder with the product of a previous pass: chunks
// and their digests cut from one atomic ordered walk of the same store
// at commit sequence since. The store must never delete keys, and the
// stream must then be fed through AddVersioned from one atomic walk of
// it. since == 0 leaves nothing to reuse.
func (b *ChunkBuilder) Reuse(chunks [][]byte, digests []Digest, since uint64) {
	b.prevChunks, b.prevDigests, b.since = chunks, digests, since
}

// Add appends one record to the stream. Keys must arrive in strictly
// ascending order (the builder trusts its caller; honest captures
// stream from a sorted index).
func (b *ChunkBuilder) Add(k Key, v Value) { b.AddVersioned(k, v, math.MaxUint64) }

// AddVersioned is Add for a record installed at commit sequence ver,
// which is what decides whether its chunk can be reused.
func (b *ChunkBuilder) AddVersioned(k Key, v Value, ver uint64) {
	if b.n == 0 {
		b.enc.U32(0) // the record count, known when the chunk is cut
		b.head = 4 + 4 + len(k)
	}
	b.enc.Str(string(k))
	b.enc.Bytes(v)
	b.n++
	b.count++
	if ver > b.since {
		b.dirty = true
	}
	if b.keep {
		if b.count > b.limit {
			b.keep = false
			b.records = nil
		} else {
			b.records = append(b.records, RWRecord{Key: k, Value: v.Clone()})
		}
	}
	if b.n == b.size {
		b.flush()
	}
}

// flush cuts the chunk being encoded. It is the previous pass's chunk
// of the same index, byte for byte, when none of its records is newer
// than that pass and both share a head — the same record count and
// first key: unchanged records were all part of the previous walk; no
// key between two of them can have existed then, or (keys are never
// deleted) it would still sit between them now; so they are the run
// of that many consecutive records the previous chunk started at the
// same key. Inserted keys shift every later boundary, and the head
// check then fails for the chunks behind them.
func (b *ChunkBuilder) flush() {
	if b.n == 0 {
		return
	}
	enc := b.enc.Sum()
	binary.BigEndian.PutUint32(enc, uint32(b.n))
	i := len(b.chunks)
	if !b.dirty && i < len(b.prevChunks) && bytes.HasPrefix(b.prevChunks[i], enc[:b.head]) {
		b.chunks = append(b.chunks, b.prevChunks[i])
		b.digests = append(b.digests, b.prevDigests[i])
		b.reused++
	} else {
		b.chunks = append(b.chunks, b.enc.Detach())
		b.digests = append(b.digests, HashBytes(enc))
	}
	b.enc.buf = b.enc.buf[:0]
	b.n, b.dirty = 0, false
}

// Reused returns how many of the chunks cut so far were taken from the
// previous pass instead of being encoded.
func (b *ChunkBuilder) Reused() int { return b.reused }

// Finish flushes the tail chunk and returns the encoded chunks, their
// digests, the retained records (nil when the stream exceeded
// keepLimit), and the total record count.
func (b *ChunkBuilder) Finish() (chunks [][]byte, digests []Digest, records []RWRecord, count int) {
	b.flush()
	return b.chunks, b.digests, b.records, b.count
}

// chunkRecords returns how many records chunk i must carry: ChunkSize
// for every chunk but a shorter final one.
func (s *Snapshot) chunkRecords(i int) int {
	want := s.RecordCount - uint64(i)*uint64(s.ChunkSize)
	if want > uint64(s.ChunkSize) {
		want = uint64(s.ChunkSize)
	}
	return int(want)
}

// VerifyChunk checks one fetched chunk payload against the manifest —
// digest match, clean decode, exact record count, ascending keys —
// and returns its records. Any failure means the payload is not the
// chunk the f+1-authenticated manifest committed to, whoever sent it.
func (s *Snapshot) VerifyChunk(i int, payload []byte) ([]RWRecord, error) {
	if i < 0 || i >= len(s.ChunkDigests) {
		return nil, fmt.Errorf("types: chunk index %d out of range (%d chunks)", i, len(s.ChunkDigests))
	}
	if HashBytes(payload) != s.ChunkDigests[i] {
		return nil, fmt.Errorf("types: chunk %d digest mismatch", i)
	}
	recs, err := DecodeChunk(payload)
	if err != nil {
		return nil, fmt.Errorf("types: chunk %d: %w", i, err)
	}
	if len(recs) != s.chunkRecords(i) {
		return nil, fmt.Errorf("types: chunk %d carries %d records, manifest says %d", i, len(recs), s.chunkRecords(i))
	}
	for j := 1; j < len(recs); j++ {
		if recs[j-1].Key >= recs[j].Key {
			return nil, fmt.Errorf("types: chunk %d keys not strictly ascending", i)
		}
	}
	return recs, nil
}
