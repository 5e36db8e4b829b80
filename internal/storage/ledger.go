package storage

import (
	"cmp"
	"encoding/binary"
	"hash/maphash"
	"math"
	"slices"
	"sort"
	"time"
	"unsafe"

	"thunderbolt/internal/metrics"
	"thunderbolt/internal/types"
)

// The ledger's three parts (see the package comment): a run of
// immutable chunks, an open-addressing index over it, and a write
// buffer that a fold turns into rewritten chunks.

// chunk is ChunkSize consecutive records of the key-ordered ledger (the
// last chunk may hold fewer). enc is exactly the snapshot chunk
// encoding — u32 record count, then a u32-length-prefixed key and value
// per record — and is never written once built: a fold that changes a
// record builds a new enc, so every view a reader or a snapshot took of
// the old one stays valid. off (each record's start in enc) and ver
// (its install version) are private to the store and are updated in
// place under the write lock. None of the three backing arrays holds a
// pointer, so the garbage collector marks a chunk as three objects,
// whatever its record count.
type chunk struct {
	enc    []byte
	off    []uint32
	ver    []uint64
	digest types.Digest // HashBytes(enc), unless stale
	stale  bool         // enc was rebuilt after digest was taken
}

// at returns the bounds of record j's key and value within enc.
func (c *chunk) at(j int) (ks, ke, vs, ve int) {
	r := int(c.off[j])
	ks = r + 4
	ke = ks + int(binary.BigEndian.Uint32(c.enc[r:]))
	vs = ke + 4
	ve = vs + int(binary.BigEndian.Uint32(c.enc[ke:]))
	return
}

// key returns record j's key as a string over enc's bytes, without a
// copy: enc is immutable, so the string is too, and it keeps enc alive
// for as long as it is held.
func (c *chunk) key(j int) string {
	r := int(c.off[j])
	k := c.enc[r+4 : r+4+int(binary.BigEndian.Uint32(c.enc[r:]))]
	return unsafe.String(unsafe.SliceData(k), len(k))
}

// val returns record j's value as a capacity-clipped view of enc, so
// an append to it reallocates instead of overwriting the next record.
// An empty value reads as nil, as the chunk decoder returns it.
func (c *chunk) val(j int) types.Value {
	_, _, vs, ve := c.at(j)
	if vs == ve {
		return nil
	}
	return c.enc[vs:ve:ve]
}

// pending is one buffered write: a key's newest value since the last
// fold. ord is the ordinal of the record it overwrites, noOrd for a key
// the chunks do not hold yet; pos is the index slot of the key's entry,
// which points at this buffer entry until the fold.
type pending struct {
	key types.Key
	val types.Value
	ver uint64
	ord uint32
	pos uint32
}

const noOrd = math.MaxUint32

// A record's ordinal is its chunk number shifted above its slot in the
// chunk (Store.shift bits, enough for the chunk size), so ordinals sort
// in ledger order and split without a division. Index entries are a
// 32-bit hash tag over a 32-bit reference; 0 marks an empty slot. A
// reference is 1 + an ordinal, or bufRef | a write-buffer position.
const bufRef = 1 << 31

// seed keys the index hash. The index is private and its order never
// shows, so one per process will do.
var seed = maphash.MakeSeed()

func hashKey(k string) uint64 { return maphash.String(seed, k) }

func entry(h uint64, ref uint32) uint64 { return h>>32<<32 | uint64(ref) }

// LedgerMetrics are the registry instruments a store records into: the
// ledger's record, chunk and byte counts and the write-buffer length
// as gauges, and each fold's duration. The zero value records nothing;
// otherwise every member must be set.
type LedgerMetrics struct {
	Records, Chunks, Bytes, Buffered *metrics.Gauge
	FoldNs                           *metrics.Histogram
}

// ord returns the ordinal of chunk c's slot j.
func (s *Store) ord(c, j int) uint32 { return uint32(c<<s.shift | j) }

// locate splits an ordinal into its chunk and slot.
func (s *Store) locate(ord uint32) (*chunk, int) {
	return &s.chunks[ord>>s.shift], int(ord & (1<<s.shift - 1))
}

// keyOf returns the key an index reference names.
func (s *Store) keyOf(ref uint32) string {
	if ref&bufRef != 0 {
		return string(s.buf[ref&^bufRef].key)
	}
	c, j := s.locate(ref - 1)
	return c.key(j)
}

// find returns the index slot of k's entry and true, or the empty slot
// where k's entry would go and false. The index must not be empty.
func (s *Store) find(k string) (uint32, bool) {
	h := hashKey(k)
	mask := uint64(len(s.index) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := s.index[i]
		if e == 0 {
			return uint32(i), false
		}
		if e>>32 == h>>32 && s.keyOf(uint32(e)) == k {
			return uint32(i), true
		}
	}
}

// lookup finds k's current record: its buffered write (p), or else its
// chunk and slot. The caller holds the lock.
func (s *Store) lookup(k string) (p *pending, c *chunk, j int, ok bool) {
	if len(s.index) == 0 {
		return nil, nil, 0, false
	}
	pos, ok := s.find(k)
	if !ok {
		return nil, nil, 0, false
	}
	ref := uint32(s.index[pos])
	if ref&bufRef != 0 {
		return &s.buf[ref&^bufRef], nil, 0, true
	}
	c, j = s.locate(ref - 1)
	return nil, c, j, true
}

// place puts ref for key k into the first empty slot of its probe
// sequence (k must not be indexed yet) and returns the slot.
func (s *Store) place(k string, ref uint32) uint32 {
	h := hashKey(k)
	mask := uint64(len(s.index) - 1)
	i := h & mask
	for s.index[i] != 0 {
		i = (i + 1) & mask
	}
	s.index[i] = entry(h, ref)
	return uint32(i)
}

// indexSize is the table length for n keys: a power of two no more
// than four fifths full. A hit, the common probe, then reads 2.6
// entries on average, almost always within one cache line.
func indexSize(n int) int {
	size := 16
	for size*4 < n*5 {
		size <<= 1
	}
	return size
}

// growIndex re-hashes every entry into a table sized for n keys when
// the current one is too small, keeping the buffer's slot positions
// current.
func (s *Store) growIndex(n int) {
	size := indexSize(n)
	if len(s.index) >= size {
		return
	}
	old := s.index
	s.index = make([]uint64, size)
	for _, e := range old {
		if e == 0 {
			continue
		}
		ref := uint32(e)
		pos := s.place(s.keyOf(ref), ref)
		if ref&bufRef != 0 {
			s.buf[ref&^bufRef].pos = pos
		}
	}
}

// reindex rebuilds the index over the chunks (the buffer must be
// empty): after a fold that inserted keys every later ordinal moved.
func (s *Store) reindex() {
	size := indexSize(s.records)
	if len(s.index) < size {
		s.index = make([]uint64, size)
	} else {
		clear(s.index)
	}
	for c := range s.chunks {
		ch := &s.chunks[c]
		for j := range ch.off {
			s.place(ch.key(j), s.ord(c, j)+1)
		}
	}
}

// putLocked buffers one write at version ver.
func (s *Store) putLocked(k types.Key, v types.Value, ver uint64) {
	if len(s.index) > 0 {
		if pos, ok := s.find(string(k)); ok {
			ref := uint32(s.index[pos])
			if ref&bufRef != 0 {
				p := &s.buf[ref&^bufRef]
				p.val, p.ver = v, ver
				return
			}
			s.buf = append(s.buf, pending{key: k, val: v, ver: ver, ord: ref - 1, pos: pos})
			s.index[pos] = entry(s.index[pos], bufRef|uint32(len(s.buf)-1))
			return
		}
	}
	s.growIndex(s.records + s.inserts + 1)
	s.buf = append(s.buf, pending{key: k, val: v, ver: ver, ord: noOrd})
	s.buf[len(s.buf)-1].pos = s.place(string(k), bufRef|uint32(len(s.buf)-1))
	s.inserts++
}

// foldAt is the buffer length that forces a fold outside a capture: a
// quarter of the ledger, and never less than one chunk. Folding costs
// O(ledger bytes) at worst, so the bound keeps it O(1) per write for a
// store that never captures.
func (s *Store) foldAt() int { return max(s.size, s.records/4) }

// foldLocked empties the write buffer into the chunks. Overwrites
// rebuild the encoding of each chunk they touch, one allocation per
// chunk; inserts re-cut every chunk from the first insert's position
// on (record-count boundaries shift behind a new key) and rebuild the
// index. Rebuilt chunks are marked stale, and Chunks hashes them.
func (s *Store) foldLocked() {
	if len(s.buf) == 0 {
		return
	}
	start := time.Now()
	// Overwrites in ledger order, then inserts in key order (noOrd
	// sorts last). The buffer's own order no longer matters: every
	// index entry that points into it is rewritten below.
	slices.SortFunc(s.buf, func(a, b pending) int {
		if c := cmp.Compare(a.ord, b.ord); c != 0 {
			return c
		}
		return cmp.Compare(a.key, b.key)
	})
	split := sort.Search(len(s.buf), func(i int) bool { return s.buf[i].ord == noOrd })
	over, ins := s.buf[:split], s.buf[split:]
	first := len(s.chunks) // first chunk to re-cut
	if len(ins) > 0 {
		first = s.chunkFor(string(ins[0].key))
	}
	for len(over) > 0 && int(over[0].ord>>s.shift) < first {
		c := over[0].ord >> s.shift
		n := 1
		for n < len(over) && over[n].ord>>s.shift == c {
			n++
		}
		s.rewrite(&s.chunks[c], over[:n])
		if len(ins) == 0 {
			for i := range over[:n] {
				p := &over[i]
				s.index[p.pos] = entry(s.index[p.pos], p.ord+1)
			}
		}
		over = over[n:]
	}
	if len(ins) > 0 {
		s.recut(first, over, ins)
		s.records += len(ins)
		s.inserts = 0
		s.reindex()
	}
	clear(s.buf)
	s.buf = s.buf[:0]
	if s.m.FoldNs != nil {
		s.m.FoldNs.Observe(time.Since(start))
	}
	s.report()
}

// chunkFor returns the first chunk an insert of k re-cuts: the first
// one whose last key sorts after k, else the last chunk if it has room,
// else one past the end (k starts a new chunk).
func (s *Store) chunkFor(k string) int {
	c := sort.Search(len(s.chunks), func(c int) bool {
		ch := &s.chunks[c]
		return ch.key(len(ch.off)-1) > k
	})
	if c == len(s.chunks) && c > 0 && len(s.chunks[c-1].off) < s.size {
		c--
	}
	return c
}

// rewrite rebuilds one chunk's encoding with the buffered overwrites of
// some of its records (over, in slot order). Unchanged bytes are copied
// in runs; offsets behind a value whose length changed shift in place.
func (s *Store) rewrite(ch *chunk, over []pending) {
	old := ch.enc
	size := len(old)
	for i := range over {
		_, j := s.locate(over[i].ord)
		_, _, vs, ve := ch.at(j)
		size += len(over[i].val) - (ve - vs)
	}
	enc := make([]byte, 0, size)
	from, delta, next := 0, 0, 0
	for i := range over {
		_, j := s.locate(over[i].ord)
		if delta != 0 {
			for k := next; k < j; k++ {
				ch.off[k] = uint32(int(ch.off[k]) + delta)
			}
		}
		_, ke, vs, ve := ch.at(j)
		enc = append(enc, old[from:ke]...)
		enc = binary.BigEndian.AppendUint32(enc, uint32(len(over[i].val)))
		enc = append(enc, over[i].val...)
		from = ve
		ch.off[j] = uint32(int(ch.off[j]) + delta)
		delta += len(over[i].val) - (ve - vs)
		ch.ver[j] = over[i].ver
		next = j + 1
	}
	enc = append(enc, old[from:]...)
	if delta != 0 {
		for k := next; k < len(ch.off); k++ {
			ch.off[k] = uint32(int(ch.off[k]) + delta)
		}
	}
	s.bytes += len(enc) - len(old)
	ch.enc, ch.stale = enc, true
}

// recut re-cuts the ledger from chunk first on: the records there, with
// the overwrites in over (ledger order) applied, merged with the
// inserts in ins (key order).
func (s *Store) recut(first int, over, ins []pending) {
	merged := make([]record, 0, (len(s.chunks)-first)*s.size+len(ins))
	for c := first; c < len(s.chunks); c++ {
		ch := &s.chunks[c]
		s.bytes -= len(ch.enc)
		for j := range ch.off {
			k := ch.key(j)
			for len(ins) > 0 && string(ins[0].key) < k {
				merged = append(merged, record{ins[0].key, ins[0].val, ins[0].ver})
				ins = ins[1:]
			}
			if len(over) > 0 && over[0].ord == s.ord(c, j) {
				merged = append(merged, record{types.Key(k), over[0].val, over[0].ver})
				over = over[1:]
			} else {
				merged = append(merged, record{types.Key(k), ch.val(j), ch.ver[j]})
			}
		}
	}
	for i := range ins {
		merged = append(merged, record{ins[i].key, ins[i].val, ins[i].ver})
	}
	tail := s.cut(len(merged), func(i int) (types.Key, types.Value, uint64) {
		return merged[i].key, merged[i].val, merged[i].ver
	})
	for i := range tail {
		s.bytes += len(tail[i].enc)
	}
	s.chunks = append(s.chunks[:first], tail...)
}

// build replaces an empty store's ledger with n records, rec(i) being
// the i-th in key order (no key repeated): the path of a store's first
// batch and of checkpoint recovery.
func (s *Store) build(n int, rec func(i int) (types.Key, types.Value, uint64)) {
	s.chunks = s.cut(n, rec)
	s.records = n
	s.bytes = 0
	for i := range s.chunks {
		s.bytes += len(s.chunks[i].enc)
	}
	s.reindex()
	s.report()
}

// cut encodes n records, rec(i) being the i-th in key order, into
// chunks. Each chunk is sized first and then written into one
// exact-size encoding.
func (s *Store) cut(n int, rec func(i int) (types.Key, types.Value, uint64)) []chunk {
	out := make([]chunk, 0, (n+s.size-1)/s.size)
	for lo := 0; lo < n; lo += s.size {
		hi := min(lo+s.size, n)
		size := 4
		for i := lo; i < hi; i++ {
			k, v, _ := rec(i)
			size += 8 + len(k) + len(v)
		}
		ch := chunk{enc: make([]byte, 4, size), off: make([]uint32, hi-lo), ver: make([]uint64, hi-lo), stale: true}
		binary.BigEndian.PutUint32(ch.enc, uint32(hi-lo))
		for i := lo; i < hi; i++ {
			k, v, ver := rec(i)
			ch.off[i-lo], ch.ver[i-lo] = uint32(len(ch.enc)), ver
			ch.enc = binary.BigEndian.AppendUint32(ch.enc, uint32(len(k)))
			ch.enc = append(ch.enc, k...)
			ch.enc = binary.BigEndian.AppendUint32(ch.enc, uint32(len(v)))
			ch.enc = append(ch.enc, v...)
		}
		out = append(out, ch)
	}
	return out
}

// report refreshes the ledger gauges.
func (s *Store) report() {
	if s.m == (LedgerMetrics{}) {
		return
	}
	s.m.Records.Set(int64(s.records + s.inserts))
	s.m.Chunks.Set(int64(len(s.chunks)))
	s.m.Bytes.Set(int64(s.bytes))
	s.m.Buffered.Set(int64(len(s.buf)))
}
