package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"thunderbolt/internal/types"
)

// On-disk format of the durable backend (see durable.go for the
// engine). A data directory holds:
//
//	checkpoint.ckpt     full-state checkpoint (atomic rename install)
//	wal-<seq16x>.seg    append-only record segments, named by the
//	                    sequence number of their first record
//
// Every record and the checkpoint body are CRC-framed:
//
//	u32 payload length | u32 CRC-32C(payload) | payload
//
// so a torn tail (crash mid-write) is detected by a short or
// mismatching frame and truncated away rather than misread. Record
// payloads are canonical types.Encoder encodings:
//
//	u64 seq | u32 nWrites | { key, value } * nWrites | note
//
// and the checkpoint payload is:
//
//	u64 seq | u64 nKeys | { key, value, u64 version } * nKeys | meta

var crcTable = crc32.MakeTable(crc32.Castagnoli)

const (
	segMagic  = "TBWAL001"
	ckptMagic = "TBCKPT01"
	frameHdr  = 8 // u32 length + u32 crc

	ckptName = "checkpoint.ckpt"
	ckptTmp  = "checkpoint.tmp"
)

func segName(startSeq uint64) string {
	return fmt.Sprintf("wal-%016x.seg", startSeq)
}

// segStartSeq parses the first-record sequence number out of a
// segment file name; ok is false for foreign files.
func segStartSeq(name string) (uint64, bool) {
	base := filepath.Base(name)
	if !strings.HasPrefix(base, "wal-") || !strings.HasSuffix(base, ".seg") {
		return 0, false
	}
	v, err := strconv.ParseUint(base[len("wal-"):len(base)-len(".seg")], 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// listSegments returns the data directory's segment paths in ascending
// first-sequence order.
func listSegments(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []string
	for _, e := range ents {
		if _, ok := segStartSeq(e.Name()); ok && !e.IsDir() {
			segs = append(segs, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(segs) // zero-padded hex names sort by sequence
	return segs, nil
}

// appendFrame appends one CRC frame around payload to buf.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	return append(buf, payload...)
}

// readFrame slices one frame's payload out of b at off. A short,
// implausible, or corrupt frame returns ok=false: the caller treats
// off as the torn tail and truncates there.
func readFrame(b []byte, off int) (payload []byte, next int, ok bool) {
	if off+frameHdr > len(b) {
		return nil, 0, false
	}
	n := int(binary.BigEndian.Uint32(b[off:]))
	crc := binary.BigEndian.Uint32(b[off+4:])
	if n < 0 || off+frameHdr+n > len(b) {
		return nil, 0, false
	}
	payload = b[off+frameHdr : off+frameHdr+n]
	if crc32.Checksum(payload, crcTable) != crc {
		return nil, 0, false
	}
	return payload, off + frameHdr + n, true
}

// walRecord is one decoded WAL record.
type walRecord struct {
	seq    uint64
	writes []types.RWRecord
	note   []byte
}

// encodeRecordPayload appends the canonical record payload for one
// apply to the encoder.
func encodeRecordPayload(e *types.Encoder, seq uint64, writes []types.RWRecord, note []byte) {
	e.U64(seq)
	e.U32(uint32(len(writes)))
	for _, w := range writes {
		e.Str(string(w.Key))
		e.Bytes(w.Value)
	}
	e.Bytes(note)
}

// decodeRecordPayload parses one record payload. Decoded writes and
// the note alias b (the caller owns the segment buffer for the life
// of the open).
func decodeRecordPayload(b []byte) (walRecord, error) {
	d := types.NewSharedDecoder(b)
	rec := walRecord{seq: d.U64()}
	n := d.U32()
	if d.Err() == nil && int(n) > len(b) {
		return rec, fmt.Errorf("storage: implausible write count %d", n)
	}
	rec.writes = make([]types.RWRecord, 0, n)
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		rec.writes = append(rec.writes, types.RWRecord{Key: types.Key(d.Str()), Value: d.Bytes()})
	}
	// Copy the note out of the shared buffer: recovered notes are
	// retained past replay (until the owner consumes them), and an
	// aliasing note would pin its entire segment buffer.
	if note := d.Bytes(); len(note) > 0 {
		rec.note = append([]byte(nil), note...)
	}
	return rec, d.Finish()
}

// checkpoint is a decoded checkpoint file; recs are in file order
// (ascending by key).
type checkpoint struct {
	seq  uint64
	recs []record
	meta []byte
}

// writeCheckpoint atomically installs a checkpoint with the given
// payload: write to a temp file, fsync, rename over the live name,
// fsync the directory. A crash at any point leaves either the old or
// the new checkpoint intact, never a torn one (the CRC frame rejects
// a torn temp file that was never renamed).
func writeCheckpoint(dir string, payload []byte, sync bool) error {
	buf := appendFrame([]byte(ckptMagic), payload)

	tmp := filepath.Join(dir, ckptTmp)
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, ckptName)); err != nil {
		return err
	}
	if sync {
		return syncDir(dir)
	}
	return nil
}

// readCheckpoint loads the checkpoint; nil when none exists. A
// checkpoint that exists but fails validation is an error, never a
// silent "start from genesis": the WAL segments it compacted are
// gone, so replaying without it would hit a sequence gap and the
// torn-tail rule would then destroy the remaining valid log — a
// corrupt checkpoint needs an operator, not an empty store. (A crash
// can never tear the live checkpoint: writes go to a temp file and
// install by atomic rename.)
func readCheckpoint(dir string) (*checkpoint, error) {
	b, err := os.ReadFile(filepath.Join(dir, ckptName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	corrupt := func(why string) (*checkpoint, error) {
		return nil, fmt.Errorf("storage: corrupt checkpoint in %s (%s); refusing to recover over it", dir, why)
	}
	if len(b) < len(ckptMagic) || string(b[:len(ckptMagic)]) != ckptMagic {
		return corrupt("bad magic")
	}
	payload, _, ok := readFrame(b, len(ckptMagic))
	if !ok {
		return corrupt("bad frame")
	}
	d := types.NewSharedDecoder(payload)
	ck := &checkpoint{seq: d.U64()}
	n := d.U64()
	if d.Err() == nil && n > uint64(len(payload)) {
		return corrupt("implausible key count")
	}
	ck.recs = make([]record, 0, n)
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		k := types.Key(d.Str())
		v := types.Value(d.Bytes())
		ck.recs = append(ck.recs, record{key: k, val: v, ver: d.U64()})
	}
	// The meta sidecar must not alias b (the whole checkpoint buffer
	// would stay pinned for the backend's lifetime).
	ck.meta = append([]byte(nil), d.Bytes()...)
	if len(ck.meta) == 0 {
		ck.meta = nil
	}
	if d.Finish() != nil {
		return corrupt("truncated payload")
	}
	return ck, nil
}

func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}
