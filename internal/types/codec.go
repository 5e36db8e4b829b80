package types

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// Encoder builds a canonical binary encoding. All integers are
// big-endian and all variable-length fields are length-prefixed, so
// encodings are unique: no two distinct logical values share bytes.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{buf: make([]byte, 0, 256)} }

// encPool recycles encoder buffers across the hot encode paths
// (block/transaction marshalling, digest computation). Buffers that
// grew beyond maxPooledBuf are dropped instead of pinned forever.
var encPool = sync.Pool{New: func() any { return &Encoder{buf: make([]byte, 0, 1024)} }}

const maxPooledBuf = 1 << 20

// GetEncoder returns a reset encoder from the pool. Pair with
// PutEncoder; any slice obtained via Sum must not be retained past
// the PutEncoder call (use Detach for an owned copy).
func GetEncoder() *Encoder {
	e := encPool.Get().(*Encoder)
	e.buf = e.buf[:0]
	return e
}

// PutEncoder returns e to the pool.
func PutEncoder(e *Encoder) {
	if cap(e.buf) <= maxPooledBuf {
		encPool.Put(e)
	}
}

// Sum returns the accumulated bytes. The returned slice aliases the
// encoder's buffer; callers must not mutate it while still appending.
func (e *Encoder) Sum() []byte { return e.buf }

// Detach returns an exact-size copy of the accumulated bytes, safe to
// retain after the encoder goes back to the pool.
func (e *Encoder) Detach() []byte {
	out := make([]byte, len(e.buf))
	copy(out, e.buf)
	return out
}

// BeginLen reserves a u32 length slot for a nested length-prefixed
// encoding and returns its position; close it with EndLen. This nests
// sub-encodings (transactions inside a block) into one buffer with the
// exact wire bytes Bytes(sub.MarshalBinary()) would produce, without
// the intermediate allocation.
func (e *Encoder) BeginLen() int {
	at := len(e.buf)
	e.buf = append(e.buf, 0, 0, 0, 0)
	return at
}

// EndLen backfills the length slot opened at position at.
func (e *Encoder) EndLen(at int) {
	binary.BigEndian.PutUint32(e.buf[at:], uint32(len(e.buf)-at-4))
}

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U32 appends a big-endian uint32.
func (e *Encoder) U32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// U64 appends a big-endian uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// I64 appends a big-endian int64 (two's complement).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Bytes appends a length-prefixed byte string.
func (e *Encoder) Bytes(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Digest appends a fixed 32-byte digest.
func (e *Encoder) Digest(d Digest) { e.buf = append(e.buf, d[:]...) }

// Decoder reads back values produced by Encoder. The first decoding
// error sticks: every subsequent call returns zero values, and Err
// reports the failure. This keeps call sites free of per-field error
// handling while still surfacing truncated or corrupt input.
type Decoder struct {
	buf    []byte
	off    int
	err    error
	shared bool
}

// NewDecoder wraps b for reading. Bytes() returns owned copies, so b
// may be reused by the caller once decoding finishes.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// NewSharedDecoder wraps b for reading with single-buffer slicing:
// Bytes() returns subslices of b instead of per-field copies, so the
// whole decode costs zero byte copies. The caller transfers ownership
// of b — it must never be mutated or recycled afterwards, because the
// decoded values alias it for their entire lifetime. The hot receive
// paths (block/certificate/vote decode) use this with freshly
// allocated transport payloads; the decoded object pins exactly the
// message that carried it, which it would otherwise have copied
// field by field (the ~8.5k allocs/block the decode benchmarks
// tracked).
func NewSharedDecoder(b []byte) *Decoder { return &Decoder{buf: b, shared: true} }

// Err returns the first error encountered, or nil.
func (d *Decoder) Err() error { return d.err }

// Finish returns an error if decoding failed or bytes remain.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("types: %d trailing bytes after decode", len(d.buf)-d.off)
	}
	return nil
}

var errShort = errors.New("types: short buffer")

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.buf)-d.off < n {
		d.err = errShort
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a big-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I64 reads a big-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Bytes reads a length-prefixed byte string: a copy under NewDecoder,
// a subslice of the input under NewSharedDecoder. Empty strings decode
// as nil either way.
func (d *Decoder) Bytes() []byte {
	b := d.view()
	if len(b) == 0 {
		return nil
	}
	if d.shared {
		return b
	}
	return append([]byte(nil), b...)
}

// sub returns a decoder over the next length-prefixed field, sharing
// this decoder's buffer-ownership mode — how nested encodings (the
// transactions and results inside a block) decode without first being
// copied out of the parent buffer.
func (d *Decoder) sub() Decoder {
	return Decoder{buf: d.view(), shared: d.shared}
}

// view reads a length-prefixed byte string without copying; the
// returned slice aliases the decoder's buffer. Internal decode paths
// use it for nested encodings that are themselves fully copied out
// field by field.
func (d *Decoder) view() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if n > math.MaxInt32 {
		d.err = fmt.Errorf("types: implausible length %d", n)
		return nil
	}
	return d.take(int(n))
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string { return string(d.view()) }

// Digest reads a fixed 32-byte digest.
func (d *Decoder) Digest() Digest {
	var out Digest
	b := d.take(32)
	if b != nil {
		copy(out[:], b)
	}
	return out
}

// --- Transaction wire format ---

// encode appends the transaction's wire form, including mutable
// routing fields (Kind) and the latency timestamp.
func (tx *Transaction) encode(e *Encoder) {
	e.U64(tx.Client)
	e.U64(tx.Nonce)
	e.U8(uint8(tx.Kind))
	e.U8(uint8(tx.OrigKind))
	e.U32(uint32(len(tx.Shards)))
	for _, s := range tx.Shards {
		e.U32(uint32(s))
	}
	e.Str(tx.Contract)
	e.U32(uint32(len(tx.Args)))
	for _, a := range tx.Args {
		e.Bytes(a)
	}
	e.Bytes(tx.Code)
	e.I64(tx.SubmitUnixNano)
}

// MarshalBinary encodes the transaction for network transfer.
func (tx *Transaction) MarshalBinary() ([]byte, error) {
	e := GetEncoder()
	defer PutEncoder(e)
	tx.encode(e)
	return e.Detach(), nil
}

// UnmarshalBinary decodes a transaction encoded by MarshalBinary.
// The input is copied once up front and the decoded fields alias that
// copy, so the caller keeps ownership of b.
func (tx *Transaction) UnmarshalBinary(b []byte) error {
	d := NewSharedDecoder(append([]byte(nil), b...))
	return tx.decodeBody(d)
}

// decodeBody decodes the transaction's wire form from d, which wraps
// exactly the transaction's bytes (trailing bytes are an error).
func (tx *Transaction) decodeBody(d *Decoder) error {
	return tx.decodeBodyArena(d, nil)
}

// decodeBodyArena is decodeBody with an optional shared argument
// arena: batch decoders (block decode) pass one arena for all their
// transactions' Args headers, replacing a per-transaction slice
// allocation with sub-slices of one growing backing array (returned
// slices are capacity-clipped, so a later grow never aliases them).
func (tx *Transaction) decodeBodyArena(d *Decoder, argArena *[][]byte) error {
	b := d.buf
	tx.idOK = false
	tx.Client = d.U64()
	tx.Nonce = d.U64()
	tx.Kind = TxKind(d.U8())
	tx.OrigKind = TxKind(d.U8())
	ns := d.U32()
	if d.Err() == nil && int(ns) > len(b) {
		return fmt.Errorf("types: implausible shard count %d", ns)
	}
	tx.Shards = make([]ShardID, 0, ns)
	for i := uint32(0); i < ns && d.Err() == nil; i++ {
		tx.Shards = append(tx.Shards, ShardID(d.U32()))
	}
	tx.Contract = d.InternStr() // contract names are a tiny fixed set
	na := d.U32()
	if d.Err() == nil && int(na) > len(b) {
		return fmt.Errorf("types: implausible arg count %d", na)
	}
	if argArena != nil {
		a := *argArena
		start := len(a)
		for i := uint32(0); i < na && d.Err() == nil; i++ {
			a = append(a, d.Bytes())
		}
		*argArena = a
		tx.Args = a[start:len(a):len(a)]
	} else {
		tx.Args = make([][]byte, 0, na)
		for i := uint32(0); i < na && d.Err() == nil; i++ {
			tx.Args = append(tx.Args, d.Bytes())
		}
	}
	tx.Code = d.Bytes()
	tx.SubmitUnixNano = d.I64()
	return d.Finish()
}

// --- TxResult wire format ---

func encodeRecords(e *Encoder, recs []RWRecord) {
	e.U32(uint32(len(recs)))
	for _, r := range recs {
		e.Str(string(r.Key))
		e.Bytes(r.Value)
	}
}

// decodeRecordsArena decodes one record list, appending into *arena
// when provided so a whole block's results share one backing array
// (regrowth strands earlier sublists on the old array, which stays
// valid). The returned slice is capacity-clipped so later appends to
// the arena cannot alias it.
func decodeRecordsArena(d *Decoder, arena *[]RWRecord) []RWRecord {
	n := d.U32()
	if d.Err() != nil {
		return nil
	}
	var recs []RWRecord
	start := 0
	if arena != nil {
		recs = *arena
		start = len(recs)
	} else {
		recs = make([]RWRecord, 0, min(int(n), 1024))
	}
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		// Keys come from a small hot set (account cells); interning
		// them collapses the per-record string allocation to a table
		// hit after warmup.
		recs = append(recs, RWRecord{Key: Key(d.InternStr()), Value: d.Bytes()})
	}
	if arena != nil {
		*arena = recs
		return recs[start:len(recs):len(recs)]
	}
	return recs
}

// decodeLedger decodes a record list that carries one chunk of a
// snapshot's ledger. Unlike a block's read/write sets, such a stream
// names every key of the state exactly once, so there is nothing for
// the intern table to share — and interning it would let a 200k-key
// cold stream fill the never-evicting table ahead of the keys that
// blocks repeat. Keys are private copies.
func decodeLedger(d *Decoder) []RWRecord {
	n := d.U32()
	if d.Err() != nil {
		return nil
	}
	recs := make([]RWRecord, 0, min(int(n), 1024))
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		recs = append(recs, RWRecord{Key: Key(d.Str()), Value: d.Bytes()})
	}
	return recs
}

// encode appends the preplay result's wire form.
func (r *TxResult) encode(e *Encoder) {
	e.Digest(r.TxID)
	e.U32(r.ScheduleIdx)
	e.U32(r.Reexecutions)
	encodeRecords(e, r.ReadSet)
	encodeRecords(e, r.WriteSet)
}

// MarshalBinary encodes the preplay result.
func (r *TxResult) MarshalBinary() ([]byte, error) {
	e := GetEncoder()
	defer PutEncoder(e)
	r.encode(e)
	return e.Detach(), nil
}

// UnmarshalBinary decodes a TxResult encoded by MarshalBinary (one
// up-front copy; decoded records alias it).
func (r *TxResult) UnmarshalBinary(b []byte) error {
	d := NewSharedDecoder(append([]byte(nil), b...))
	return r.decodeBody(d)
}

// decodeBody decodes the result's wire form from d, which wraps
// exactly the result's bytes.
func (r *TxResult) decodeBody(d *Decoder) error {
	return r.decodeBodyArena(d, nil)
}

// decodeBodyArena is decodeBody with the record lists drawn from a
// shared arena (see decodeRecordsArena).
func (r *TxResult) decodeBodyArena(d *Decoder, arena *[]RWRecord) error {
	r.TxID = d.Digest()
	r.ScheduleIdx = d.U32()
	r.Reexecutions = d.U32()
	r.ReadSet = decodeRecordsArena(d, arena)
	r.WriteSet = decodeRecordsArena(d, arena)
	return d.Finish()
}
