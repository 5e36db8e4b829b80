package storage

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"thunderbolt/internal/types"
)

// Durable is the disk-backed Backend: an in-memory versioned index (a
// private Store) kept authoritative for reads, with every apply also
// appended to a CRC-framed segment WAL. Durability is group-committed:
// records accumulate in a write buffer and one fsync covers the whole
// group (size- or time-triggered), so a burst of committed block
// deltas costs one disk sync instead of one per block. The price is a
// bounded durability lag — a crash loses at most the last unsynced
// group, which recovery treats exactly like any other missed suffix
// (torn-tail truncation back to the last durable record, then the
// node's normal in-epoch catch-up replays the rest from peers).
//
// Reopening a directory rebuilds the index by loading the newest
// checkpoint and replaying the WAL records after it; periodic
// checkpoints (every CheckpointEvery records) bound that replay cost
// and let old segments be deleted (compaction).
type Durable struct {
	opts DurableOptions
	dir  string
	mem  *Store

	// mu serializes the apply path (sequence assignment + WAL append
	// must agree on order), segment rotation, and checkpointing.
	// Reads bypass it entirely (they go to mem).
	mu        sync.Mutex
	seg       *os.File
	segStart  uint64 // sequence of the current segment's first record
	segSize   int64
	pending   []byte // encoded frames awaiting the group fsync
	sinceCkpt int
	metaFn    func() []byte
	closed    bool
	err       error // sticky I/O failure; the backend is dead once set

	recMeta  []byte
	recNotes [][]byte

	done chan struct{}
	wg   sync.WaitGroup
}

var (
	_ Backend     = (*Durable)(nil)
	_ Recoverable = (*Durable)(nil)
)

// Recoverable is implemented by backends that persist an owner-defined
// sidecar alongside the state: an opaque meta blob captured atomically
// with every checkpoint, plus the opaque per-record notes appended via
// ApplyNote. The node uses it to persist its commit-path dedup state
// (which must advance in lockstep with the store) and recover both to
// the same position after a restart.
type Recoverable interface {
	// SetMetaFunc registers the sidecar capture. It is invoked
	// synchronously inside ApplyNote/Close when a checkpoint is cut,
	// i.e. on the caller's goroutine — the returned bytes must
	// describe the owner state as of the apply being recorded.
	SetMetaFunc(fn func() []byte)
	// RecoveredMeta returns the meta blob of the checkpoint recovery
	// started from (nil when recovery started from genesis).
	RecoveredMeta() []byte
	// RecoveredNotes returns the notes of every WAL record replayed
	// after the checkpoint, in apply order.
	RecoveredNotes() [][]byte
	// ReleaseRecovered drops the recovered meta and notes once the
	// owner has consumed them, so they do not sit in memory for the
	// backend's lifetime.
	ReleaseRecovered()
}

// DurableOptions parameterizes OpenDurable. The zero value (plus Dir)
// is usable.
type DurableOptions struct {
	// Dir is the data directory (created if missing). Required.
	Dir string
	// GroupBytes triggers the group fsync once this many buffered
	// record bytes accumulate (default 256 KiB).
	GroupBytes int
	// GroupInterval bounds how long a record may wait for its group
	// fsync (default 2ms). Smaller = tighter durability lag, more
	// syncs.
	GroupInterval time.Duration
	// NoSync skips fsync entirely (writes still reach the OS). For
	// tests and throwaway runs; a power failure can then lose more
	// than the last group.
	NoSync bool
	// SegmentBytes rolls the WAL to a fresh segment file past this
	// size (default 8 MiB).
	SegmentBytes int64
	// CheckpointEvery cuts a checkpoint (and compacts old segments)
	// after this many records (default 8192; negative disables).
	CheckpointEvery int
	// KeepLog bounds in-memory commit-log retention, as NewWithLog.
	KeepLog int
	// ChunkRecords sizes the index's chunks, as NewChunked (0 keeps
	// types.DefaultChunkRecords).
	ChunkRecords int
}

func (o DurableOptions) withDefaults() DurableOptions {
	if o.GroupBytes <= 0 {
		o.GroupBytes = 256 << 10
	}
	if o.GroupInterval <= 0 {
		o.GroupInterval = 2 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 8192
	}
	return o
}

// OpenDurable opens (or creates) the data directory, rebuilds the
// in-memory index from the newest checkpoint plus WAL replay, and
// truncates any torn tail back to the last durable record.
func OpenDurable(opts DurableOptions) (*Durable, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("storage: durable backend needs a data directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	d := &Durable{
		opts: opts,
		dir:  opts.Dir,
		mem:  NewChunked(opts.ChunkRecords, opts.KeepLog),
		done: make(chan struct{}),
	}
	if err := d.recover(); err != nil {
		return nil, err
	}
	d.wg.Add(1)
	go d.flusher()
	return d, nil
}

// recover loads the checkpoint, replays segments, truncates the torn
// tail, and opens the append target.
func (d *Durable) recover() error {
	ck, err := readCheckpoint(d.dir)
	if err != nil {
		return err
	}
	if ck != nil {
		d.mem.load(ck.seq, ck.recs)
		d.recMeta = ck.meta
	}
	segs, err := listSegments(d.dir)
	if err != nil {
		return err
	}
	appendTo := "" // surviving segment to keep appending into
	for i, path := range segs {
		keep, stop, err := d.replaySegment(path)
		if err != nil {
			return err
		}
		if keep {
			appendTo = path
		}
		if stop {
			// Torn or gapped tail: everything after it is
			// unreachable history — delete the later segments.
			for _, late := range segs[i+1:] {
				if err := os.Remove(late); err != nil {
					return err
				}
			}
			break
		}
	}
	if appendTo == "" {
		return d.newSegmentLocked()
	}
	f, err := os.OpenFile(appendTo, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	d.seg, d.segSize = f, st.Size()
	d.segStart, _ = segStartSeq(appendTo)
	return nil
}

// replaySegment applies one segment's records. keep reports whether
// the file survives as a valid (possibly truncated) segment; stop
// reports that replay must not continue into later segments (torn
// tail or sequence gap found here).
func (d *Durable) replaySegment(path string) (keep, stop bool, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return false, false, err
	}
	hdr := len(segMagic) + 8
	if len(b) < hdr || string(b[:len(segMagic)]) != segMagic {
		// Header never made it to disk: the file holds no records.
		return false, true, os.Remove(path)
	}
	off := hdr
	for off < len(b) {
		payload, next, ok := readFrame(b, off)
		if !ok {
			return true, true, os.Truncate(path, int64(off))
		}
		rec, derr := decodeRecordPayload(payload)
		if derr != nil {
			return true, true, os.Truncate(path, int64(off))
		}
		switch {
		case rec.seq <= d.mem.Seq():
			// Pre-checkpoint history in a segment that outlived its
			// compaction (crash between checkpoint install and
			// segment deletion): already part of the checkpoint.
		case rec.seq == d.mem.Seq()+1:
			d.mem.applyAt(rec.seq, rec.writes)
			d.sinceCkpt++ // replayed records count toward the cadence
			if len(rec.note) > 0 {
				d.recNotes = append(d.recNotes, rec.note)
			}
		default:
			// A sequence gap can only come from corruption; treat
			// the rest of the log as unreachable.
			return true, true, os.Truncate(path, int64(off))
		}
		off = next
	}
	return true, false, nil
}

// newSegmentLocked creates and switches to a fresh segment whose first
// record will carry the next sequence number. Callers hold d.mu (or
// are in single-threaded recovery).
func (d *Durable) newSegmentLocked() error {
	start := d.mem.Seq() + 1
	path := filepath.Join(d.dir, segName(start))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	hdr := append([]byte(segMagic), make([]byte, 8)...)
	binary.BigEndian.PutUint64(hdr[len(segMagic):], start)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if !d.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if d.seg != nil {
		d.seg.Close()
	}
	d.seg, d.segStart, d.segSize = f, start, int64(len(hdr))
	return nil
}

// SetMetaFunc registers the checkpoint sidecar capture (Recoverable).
func (d *Durable) SetMetaFunc(fn func() []byte) {
	d.mu.Lock()
	d.metaFn = fn
	d.mu.Unlock()
}

// RecoveredMeta returns the recovered checkpoint sidecar (Recoverable).
func (d *Durable) RecoveredMeta() []byte { return d.recMeta }

// RecoveredNotes returns the replayed record notes (Recoverable).
func (d *Durable) RecoveredNotes() [][]byte { return d.recNotes }

// ReleaseRecovered frees the recovery sidecar (Recoverable).
func (d *Durable) ReleaseRecovered() { d.recMeta, d.recNotes = nil, nil }

// Apply installs a write batch atomically and appends it to the WAL.
func (d *Durable) Apply(writes []types.RWRecord) uint64 {
	return d.ApplyNote(writes, nil)
}

// ApplyNote is Apply plus an opaque recovery note persisted in the
// same WAL record. The batch is visible to readers immediately;
// durability follows with the group fsync.
func (d *Durable) ApplyNote(writes []types.RWRecord, note []byte) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		panic("storage: apply on closed durable backend")
	}
	if d.err != nil {
		panic(fmt.Sprintf("storage: durable backend failed earlier: %v", d.err))
	}
	// Checkpoints are cut BEFORE this apply's record exists: the
	// owner performs a record's sidecar mutations only after the
	// corresponding ApplyNote returns, so a checkpoint covering
	// records [..n] is consistent exactly when cut before record n+1
	// — cutting it after appending the current record would capture a
	// meta that misses this record's pending mutations while
	// compaction deletes the note that carries them.
	if d.opts.CheckpointEvery > 0 && d.sinceCkpt >= d.opts.CheckpointEvery {
		d.checkpointLocked()
	}
	seq := d.mem.Apply(writes)
	e := types.GetEncoder()
	encodeRecordPayload(e, seq, writes, note)
	d.pending = appendFrame(d.pending, e.Sum())
	types.PutEncoder(e)
	d.sinceCkpt++
	if len(d.pending) >= d.opts.GroupBytes {
		d.flushLocked()
	}
	if d.err != nil {
		panic(fmt.Sprintf("storage: wal append failed: %v", d.err))
	}
	return seq
}

// Set installs a single value through the WAL.
func (d *Durable) Set(k types.Key, v types.Value) {
	d.Apply([]types.RWRecord{{Key: k, Value: v}})
}

// flushLocked writes the pending group to the segment and fsyncs it —
// the group commit. Rolls the segment afterwards if oversized.
func (d *Durable) flushLocked() {
	if len(d.pending) == 0 || d.err != nil {
		return
	}
	n, err := d.seg.Write(d.pending)
	d.segSize += int64(n)
	if err == nil && !d.opts.NoSync {
		err = d.seg.Sync()
	}
	if err != nil {
		d.err = err
		return
	}
	d.pending = d.pending[:0]
	if d.segSize >= d.opts.SegmentBytes && d.segStart <= d.mem.Seq() {
		if err := d.newSegmentLocked(); err != nil {
			d.err = err
		}
	}
}

// checkpointLocked cuts a full-state checkpoint (with the owner's meta
// sidecar), rolls to a fresh segment, and deletes the old ones —
// bounding reopen replay to the records since this point.
func (d *Durable) checkpointLocked() {
	d.flushLocked()
	if d.err != nil {
		return
	}
	var meta []byte
	if d.metaFn != nil {
		meta = d.metaFn()
	}
	// Every write to mem goes through this backend under d.mu, which
	// the caller holds: the sequence and key count read here are the
	// ones the walk below sees.
	e := types.NewEncoder()
	e.U64(d.mem.Seq())
	e.U64(uint64(d.mem.Len()))
	d.mem.ascendVersioned(func(r types.RWRecord, ver uint64) bool {
		e.Str(string(r.Key))
		e.Bytes(r.Value)
		e.U64(ver)
		return true
	})
	e.Bytes(meta)
	if err := writeCheckpoint(d.dir, e.Sum(), !d.opts.NoSync); err != nil {
		d.err = err
		return
	}
	if err := d.newSegmentLocked(); err != nil {
		d.err = err
		return
	}
	segs, err := listSegments(d.dir)
	if err != nil {
		d.err = err
		return
	}
	current := filepath.Join(d.dir, segName(d.segStart))
	for _, s := range segs {
		if s != current {
			if err := os.Remove(s); err != nil {
				d.err = err
				return
			}
		}
	}
	d.sinceCkpt = 0
}

// flusher is the group-commit timer: it bounds how long a record can
// wait for its fsync when the size trigger never fires.
func (d *Durable) flusher() {
	defer d.wg.Done()
	tick := time.NewTicker(d.opts.GroupInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			d.mu.Lock()
			d.flushLocked()
			d.mu.Unlock()
		case <-d.done:
			return
		}
	}
}

// Sync forces the pending group durable.
func (d *Durable) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.flushLocked()
	return d.err
}

// Close flushes, cuts a final checkpoint (cheap reopen), and releases
// the backend. Call only after the owning node has stopped: the meta
// capture reads owner state.
func (d *Durable) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return d.err
	}
	d.closed = true
	d.mu.Unlock()
	close(d.done)
	d.wg.Wait()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.flushLocked()
	if d.err == nil && d.opts.CheckpointEvery > 0 && d.sinceCkpt > 0 {
		d.checkpointLocked()
	}
	if d.seg != nil {
		if err := d.seg.Close(); err != nil && d.err == nil {
			d.err = err
		}
		d.seg = nil
	}
	return d.err
}

// CloseAbrupt tears the backend down without flushing the pending
// group and without cutting the final checkpoint — the process-crash
// model chaos harnesses want: on-disk state stays exactly as the last
// group commit left it, so a reopen exercises real WAL replay (and
// the group-commit durability lag).
func (d *Durable) CloseAbrupt() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.mu.Unlock()
	close(d.done)
	d.wg.Wait()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.seg != nil {
		d.seg.Close()
		d.seg = nil
	}
}

// --- reads: straight to the in-memory index ---

func (d *Durable) Get(k types.Key) (types.Value, bool) { return d.mem.Get(k) }
func (d *Durable) GetVersioned(k types.Key) (types.Value, uint64, bool) {
	return d.mem.GetVersioned(k)
}
func (d *Durable) Version(k types.Key) uint64          { return d.mem.Version(k) }
func (d *Durable) Seq() uint64                         { return d.mem.Seq() }
func (d *Durable) Log() []CommitRecord                 { return d.mem.Log() }
func (d *Durable) Len() int                            { return d.mem.Len() }
func (d *Durable) Snapshot() map[types.Key]types.Value { return d.mem.Snapshot() }
func (d *Durable) Ascend(fn func(types.RWRecord) bool) { d.mem.Ascend(fn) }
func (d *Durable) Chunks() Chunks                      { return d.mem.Chunks() }
func (d *Durable) Keys() []types.Key                   { return d.mem.Keys() }
func (d *Durable) Instrument(m LedgerMetrics)          { d.mem.Instrument(m) }
