package types

import (
	"encoding/binary"
	"fmt"
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
// drops them. A replica never cuts chunks this way: its store keeps
// the ledger as these chunks already (storage.Backend.Chunks). The
// builder is the reference cut that store is tested against.
type ChunkBuilder struct {
	size    int
	keep    bool
	limit   int
	records []RWRecord
	chunks  [][]byte
	digests []Digest
	count   int

	// The chunk being cut: its encoding so far and how many records
	// that holds.
	enc Encoder
	n   int
}

// NewChunkBuilder returns a builder cutting chunks of size records.
// keepLimit < 0 disables record retention.
func NewChunkBuilder(size, keepLimit int) *ChunkBuilder {
	if size <= 0 {
		size = DefaultChunkRecords
	}
	return &ChunkBuilder{size: size, keep: keepLimit >= 0, limit: keepLimit}
}

// Add appends one record to the stream. Keys must arrive in strictly
// ascending order (the builder trusts its caller; honest captures
// stream from a sorted index).
func (b *ChunkBuilder) Add(k Key, v Value) {
	if b.n == 0 {
		b.enc.U32(0) // the record count, known when the chunk is cut
	}
	b.enc.Str(string(k))
	b.enc.Bytes(v)
	b.n++
	b.count++
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

// flush cuts the chunk being encoded.
func (b *ChunkBuilder) flush() {
	if b.n == 0 {
		return
	}
	enc := b.enc.Sum()
	binary.BigEndian.PutUint32(enc, uint32(b.n))
	b.chunks = append(b.chunks, b.enc.Detach())
	b.digests = append(b.digests, HashBytes(enc))
	b.enc.buf = b.enc.buf[:0]
	b.n = 0
}

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
