package storage

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"thunderbolt/internal/types"
)

// The backend conformance suite: every Backend implementation must
// pass these identically — the executable form of the interface
// contract the node, cluster, and snapshot layers rely on.

// eachBackend runs fn once per backend implementation.
func eachBackend(t *testing.T, keepLog int, fn func(t *testing.T, b Backend)) {
	t.Run("memory", func(t *testing.T) {
		fn(t, NewWithLog(keepLog))
	})
	t.Run("wal", func(t *testing.T) {
		d, err := OpenDurable(DurableOptions{Dir: t.TempDir(), KeepLog: keepLog})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = d.Close() })
		fn(t, d)
	})
}

// dumpOf returns a backend's state in ascending key order, values
// cloned.
func dumpOf(b Backend) []types.RWRecord {
	var out []types.RWRecord
	b.Ascend(func(r types.RWRecord) bool {
		out = append(out, types.RWRecord{Key: r.Key, Value: r.Value.Clone()})
		return true
	})
	return out
}

func rec(k string, v string) types.RWRecord {
	return types.RWRecord{Key: types.Key(k), Value: types.Value(v)}
}

func TestConformanceVersioning(t *testing.T) {
	eachBackend(t, 0, func(t *testing.T, b Backend) {
		if b.Seq() != 0 || b.Len() != 0 {
			t.Fatalf("fresh backend not empty: seq=%d len=%d", b.Seq(), b.Len())
		}
		s1 := b.Apply([]types.RWRecord{rec("a", "1"), rec("b", "2")})
		s2 := b.Apply([]types.RWRecord{rec("b", "3")})
		if s1 != 1 || s2 != 2 {
			t.Fatalf("sequence numbers %d,%d want 1,2", s1, s2)
		}
		if v, ver, ok := b.GetVersioned("a"); !ok || string(v) != "1" || ver != s1 {
			t.Fatalf("a = %q@%d ok=%v", v, ver, ok)
		}
		if v, ver, ok := b.GetVersioned("b"); !ok || string(v) != "3" || ver != s2 {
			t.Fatalf("b = %q@%d ok=%v", v, ver, ok)
		}
		if ver := b.Version("missing"); ver != 0 {
			t.Fatalf("missing key version %d want 0", ver)
		}
		// Empty applies and Set both consume exactly one sequence
		// number (the commit path's step counter must not depend on
		// whether a wave produced writes).
		if s := b.Apply(nil); s != 3 {
			t.Fatalf("empty apply seq %d want 3", s)
		}
		b.Set("c", types.Value("9"))
		if b.Seq() != 4 || b.Version("c") != 4 {
			t.Fatalf("after Set: seq=%d ver(c)=%d want 4,4", b.Seq(), b.Version("c"))
		}
	})
}

func TestConformanceAtomicApply(t *testing.T) {
	eachBackend(t, 0, func(t *testing.T, b Backend) {
		// Every key of one batch carries the same install version.
		batch := []types.RWRecord{rec("x", "1"), rec("y", "1"), rec("z", "1")}
		seq := b.Apply(batch)
		for _, w := range batch {
			if ver := b.Version(w.Key); ver != seq {
				t.Fatalf("key %s version %d want %d", w.Key, ver, seq)
			}
		}
		// Concurrent appliers: sequence numbers stay dense and every
		// key's version equals some issued sequence (no torn stamps).
		const appliers, each = 4, 50
		var wg sync.WaitGroup
		for a := 0; a < appliers; a++ {
			wg.Add(1)
			go func(a int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					b.Apply([]types.RWRecord{rec(fmt.Sprintf("k%d", a), fmt.Sprintf("%d", i))})
				}
			}(a)
		}
		wg.Wait()
		if got, want := b.Seq(), seq+appliers*each; got != want {
			t.Fatalf("seq %d want %d", got, want)
		}
	})
}

func TestConformanceDumpOrderAndAliasing(t *testing.T) {
	eachBackend(t, 0, func(t *testing.T, b Backend) {
		b.Apply([]types.RWRecord{rec("b", "2"), rec("a", "1"), rec("c", "3")})
		dump := dumpOf(b)
		if len(dump) != 3 {
			t.Fatalf("dump has %d records", len(dump))
		}
		for i := 1; i < len(dump); i++ {
			if dump[i-1].Key >= dump[i].Key {
				t.Fatalf("dump not strictly ascending at %d: %s >= %s", i, dump[i-1].Key, dump[i].Key)
			}
		}
		// Ascend streams the same sequence.
		var streamed []types.RWRecord
		b.Ascend(func(r types.RWRecord) bool {
			streamed = append(streamed, types.RWRecord{Key: r.Key, Value: r.Value.Clone()})
			return true
		})
		if len(streamed) != len(dump) {
			t.Fatalf("ascend yielded %d records, dump %d", len(streamed), len(dump))
		}
		for i := range dump {
			if dump[i].Key != streamed[i].Key || !dump[i].Value.Equal(streamed[i].Value) {
				t.Fatalf("ascend diverges from dump at %d", i)
			}
		}
		// Early stop.
		count := 0
		b.Ascend(func(types.RWRecord) bool { count++; return false })
		if count != 1 {
			t.Fatalf("ascend ignored early stop: %d visits", count)
		}
		// A value read out is clipped to itself: appending to it must
		// not write into the record behind it, before a fold or after.
		for _, fold := range []bool{false, true} {
			if fold {
				b.Chunks()
			}
			v, _ := b.Get(dump[0].Key)
			_ = append(v, 'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X')
			if got, _ := b.Get(dump[1].Key); !got.Equal(dump[1].Value) {
				t.Fatalf("appending to %s's value changed %s to %q", dump[0].Key, dump[1].Key, got)
			}
		}
		// Keys sorted.
		keys := b.Keys()
		for i := 1; i < len(keys); i++ {
			if keys[i-1] >= keys[i] {
				t.Fatalf("keys not sorted at %d", i)
			}
		}
	})
}

// driveSequence applies a fixed batch/note sequence to a backend —
// the shared script for cross-backend and replay identity checks.
func driveSequence(b Backend) {
	for i := 0; i < 40; i++ {
		var writes []types.RWRecord
		for j := 0; j <= i%3; j++ {
			writes = append(writes, rec(fmt.Sprintf("k%02d", (i*7+j)%16), fmt.Sprintf("v%d", i)))
		}
		if i%5 == 0 {
			b.ApplyNote(writes, []byte(fmt.Sprintf("note-%d", i)))
		} else {
			b.Apply(writes)
		}
		if i%11 == 3 {
			b.ApplyNote(nil, []byte(fmt.Sprintf("bare-%d", i))) // note-only record
		}
	}
}

func dumpBytes(t *testing.T, b Backend) []byte {
	t.Helper()
	e := types.NewEncoder()
	for _, r := range dumpOf(b) {
		e.Str(string(r.Key))
		e.Bytes(r.Value)
	}
	e.U64(b.Seq())
	return e.Sum()
}

// TestConformanceCrossBackendIdentity drives the identical apply
// sequence through both backends and requires bit-identical state,
// sequence position, and retained commit logs.
func TestConformanceCrossBackendIdentity(t *testing.T) {
	mem := NewWithLog(64)
	wal, err := OpenDurable(DurableOptions{Dir: t.TempDir(), KeepLog: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	driveSequence(mem)
	driveSequence(wal)
	if !bytes.Equal(dumpBytes(t, mem), dumpBytes(t, wal)) {
		t.Fatal("memory and WAL backends diverge under the same apply sequence")
	}
	ml, wl := mem.Log(), wal.Log()
	if len(ml) != len(wl) {
		t.Fatalf("commit logs differ in length: %d vs %d", len(ml), len(wl))
	}
	for i := range ml {
		if ml[i].Seq != wl[i].Seq || len(ml[i].Writes) != len(wl[i].Writes) {
			t.Fatalf("commit log record %d differs", i)
		}
		for j := range ml[i].Writes {
			if ml[i].Writes[j].Key != wl[i].Writes[j].Key ||
				!ml[i].Writes[j].Value.Equal(wl[i].Writes[j].Value) {
				t.Fatalf("commit log record %d write %d differs", i, j)
			}
		}
	}
}

// TestConformanceWALReplayIdentity closes and reopens the durable
// backend and requires the replayed state (and retained commit log)
// to be bit-identical to the pre-close state — with and without an
// intervening checkpoint.
func TestConformanceWALReplayIdentity(t *testing.T) {
	for _, ckptEvery := range []int{-1, 7} {
		t.Run(fmt.Sprintf("checkpointEvery=%d", ckptEvery), func(t *testing.T) {
			dir := t.TempDir()
			open := func() *Durable {
				d, err := OpenDurable(DurableOptions{
					Dir: dir, KeepLog: 64, CheckpointEvery: ckptEvery,
					SegmentBytes: 512, // force rotations mid-sequence
				})
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			d := open()
			driveSequence(d)
			before := dumpBytes(t, d)
			beforeLog := d.Log()
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}

			re := open()
			defer re.Close()
			if !bytes.Equal(before, dumpBytes(t, re)) {
				t.Fatal("reopened state diverges from pre-close state")
			}
			// With a checkpoint the pre-checkpoint commit log is
			// folded into the checkpoint (retention is bounded by
			// construction); without one the full retained log must
			// replay identically.
			if ckptEvery < 0 {
				reLog := re.Log()
				if len(reLog) != len(beforeLog) {
					t.Fatalf("replayed commit log has %d records, want %d", len(reLog), len(beforeLog))
				}
				for i := range reLog {
					if reLog[i].Seq != beforeLog[i].Seq {
						t.Fatalf("replayed commit log record %d seq %d want %d", i, reLog[i].Seq, beforeLog[i].Seq)
					}
				}
			}
		})
	}
}

// TestConformanceOrderedIndex interleaves batches that insert new keys
// (before, between and after the existing ones) with batches that only
// overwrite, walking between them: every walk form must list exactly
// the keys applied so far, strictly ascending, with current values and
// install versions — whether or not the ordered index had to be
// re-derived for that walk.
func TestConformanceOrderedIndex(t *testing.T) {
	eachBackend(t, 0, func(t *testing.T, b Backend) {
		want := map[types.Key]types.RWRecord{}
		vers := map[types.Key]uint64{}
		apply := func(recs ...types.RWRecord) {
			seq := b.Apply(recs)
			for _, r := range recs {
				want[r.Key] = r
				vers[r.Key] = seq
			}
		}
		check := func(step string) {
			t.Helper()
			dump, keys := dumpOf(b), b.Keys()
			var walked []types.RWRecord
			b.Ascend(func(r types.RWRecord) bool {
				walked = append(walked, types.RWRecord{Key: r.Key, Value: r.Value.Clone()})
				return true
			})
			for _, r := range walked {
				if ver := b.Version(r.Key); ver != vers[r.Key] {
					t.Fatalf("%s: %s at version %d, installed at %d", step, r.Key, ver, vers[r.Key])
				}
			}
			if ch := b.Chunks(); ch.Seq != b.Seq() || ch.Records != len(want) {
				t.Fatalf("%s: chunks of %d records at seq %d, backend holds %d at %d", step, ch.Records, ch.Seq, len(want), b.Seq())
			}
			if len(dump) != len(want) || len(keys) != len(want) || len(walked) != len(want) {
				t.Fatalf("%s: dump/keys/walk list %d/%d/%d records, want %d", step, len(dump), len(keys), len(walked), len(want))
			}
			for i, r := range dump {
				if i > 0 && dump[i-1].Key >= r.Key {
					t.Fatalf("%s: not strictly ascending at %d: %s >= %s", step, i, dump[i-1].Key, r.Key)
				}
				if keys[i] != r.Key || walked[i].Key != r.Key || !walked[i].Value.Equal(r.Value) {
					t.Fatalf("%s: dump, keys and walk disagree at %d", step, i)
				}
				if !r.Value.Equal(want[r.Key].Value) {
					t.Fatalf("%s: %s = %q want %q", step, r.Key, r.Value, want[r.Key].Value)
				}
			}
		}
		check("empty")
		apply(rec("m", "1"), rec("d", "1"), rec("t", "1"))
		check("seeded")
		apply(rec("d", "2"), rec("t", "2")) // overwrites only: index stays valid
		check("overwritten")
		apply(rec("a", "1"))                               // before the first key
		apply(rec("g", "1"), rec("m", "3"), rec("p", "1")) // in the middle, around an overwrite
		apply(rec("z", "1"))                               // after the last key
		check("inserted")
		apply(rec("a", "2"), rec("z", "2"), rec("b", "1"), rec("y", "1"))
		check("mixed")
	})
}

// TestConformanceKeysCallerOwned: the slice Keys returns is the
// caller's — scribbling over it must not disturb later walks.
func TestConformanceKeysCallerOwned(t *testing.T) {
	eachBackend(t, 0, func(t *testing.T, b Backend) {
		b.Apply([]types.RWRecord{rec("a", "1"), rec("b", "2"), rec("c", "3")})
		keys := b.Keys()
		for i := range keys {
			keys[i] = "zzz"
		}
		keys = append(keys[:1], "junk")
		again := b.Keys()
		if len(again) != 3 || again[0] != "a" || again[1] != "b" || again[2] != "c" {
			t.Fatalf("mutating a Keys result changed the backend's keys: %v", again)
		}
		var walked []types.Key
		b.Ascend(func(r types.RWRecord) bool { walked = append(walked, r.Key); return true })
		if len(walked) != 3 || walked[0] != "a" || walked[2] != "c" {
			t.Fatalf("mutating a Keys result changed the walk: %v", walked)
		}
	})
}

// TestConformanceAscendEarlyStop: a walk stops at the record whose
// callback returns false, wherever that is, and the backend stays
// usable (the walk's lock is released).
func TestConformanceAscendEarlyStop(t *testing.T) {
	eachBackend(t, 0, func(t *testing.T, b Backend) {
		for i := 0; i < 10; i++ {
			b.Set(types.Key(fmt.Sprintf("k%d", i)), types.Value("v"))
		}
		for _, stopAt := range []int{1, 4, 10} {
			visits := 0
			b.Ascend(func(types.RWRecord) bool { visits++; return visits < stopAt })
			if visits != stopAt {
				t.Fatalf("Ascend made %d visits, want stop after %d", visits, stopAt)
			}
		}
		b.Set("after", types.Value("v")) // would deadlock if a stopped walk kept its lock
		if b.Len() != 11 {
			t.Fatalf("len %d after write following stopped walks, want 11", b.Len())
		}
	})
}

// TestConformanceAscendAtomicBatches: a walk sees every Apply batch
// entirely or not at all. A writer keeps stamping one generation
// number onto a fixed key set (and inserting one new key per batch, so
// walks also race index re-derivation); a walk that ever sees two
// generations among the fixed keys has torn a batch.
func TestConformanceAscendAtomicBatches(t *testing.T) {
	eachBackend(t, 0, func(t *testing.T, b Backend) {
		const fixed, generations = 64, 300
		batch := func(gen int) []types.RWRecord {
			recs := make([]types.RWRecord, 0, fixed+1)
			for i := 0; i < fixed; i++ {
				recs = append(recs, rec(fmt.Sprintf("f%03d", i), fmt.Sprint(gen)))
			}
			return append(recs, rec(fmt.Sprintf("n%05d", gen), "x"))
		}
		b.Apply(batch(0))
		done := make(chan struct{})
		go func() {
			defer close(done)
			for gen := 1; gen <= generations; gen++ {
				b.Apply(batch(gen))
			}
		}()
		for walking := true; walking; {
			select {
			case <-done:
				walking = false // one last walk over the final state
			default:
			}
			var gen string
			var seen, extra int
			b.Ascend(func(r types.RWRecord) bool {
				if r.Key[0] != 'f' {
					extra++
					return true
				}
				if seen++; seen == 1 {
					gen = string(r.Value)
				} else if string(r.Value) != gen {
					t.Errorf("walk tore a batch: %s is generation %s, earlier keys %s", r.Key, r.Value, gen)
					return false
				}
				return true
			})
			if seen != fixed && !t.Failed() {
				t.Fatalf("walk saw %d of the %d fixed keys", seen, fixed)
			}
			// Generation g is batch g+1, which inserted the walk's
			// (g+1)th key outside the fixed set.
			if want := fmt.Sprint(extra - 1); !t.Failed() && gen != want {
				t.Fatalf("walk saw generation %s with %d inserted keys", gen, extra)
			}
			// The chunk form is one state too: its sequence number names
			// the generation its records carry.
			ch := b.Chunks()
			for _, enc := range ch.Enc {
				recs, err := types.DecodeChunk(enc)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range recs {
					if r.Key[0] == 'f' && string(r.Value) != fmt.Sprint(ch.Seq-1) {
						t.Fatalf("chunks at seq %d hold %s at generation %s", ch.Seq, r.Key, r.Value)
					}
				}
			}
			if t.Failed() {
				<-done
				return
			}
		}
	})
}
