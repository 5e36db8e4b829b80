package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"thunderbolt/internal/types"
)

// ledgerModel is the plain-map reference a backend's ledger must match.
type ledgerModel struct {
	vals map[types.Key]types.Value
	vers map[types.Key]uint64
	keys []types.Key // sorted
	seq  uint64
}

func (m *ledgerModel) apply(seq uint64, writes []types.RWRecord) {
	m.seq = seq
	for _, w := range writes {
		if _, ok := m.vals[w.Key]; !ok {
			i, _ := slices.BinarySearch(m.keys, w.Key)
			m.keys = slices.Insert(m.keys, i, w.Key)
		}
		m.vals[w.Key], m.vers[w.Key] = w.Value, seq
	}
}

// cut is the reference capture: ChunkBuilder over the model's sorted
// dump.
func (m *ledgerModel) cut(size int) ([][]byte, []types.Digest, int) {
	cb := types.NewChunkBuilder(size, -1)
	for _, k := range m.keys {
		cb.Add(k, m.vals[k])
	}
	chunks, digests, _, count := cb.Finish()
	return chunks, digests, count
}

// held is a capture's chunks as returned, beside a private copy of their
// bytes: whatever the ledger does afterwards, the two must stay equal.
type held struct {
	enc, copy [][]byte
}

// TestLedgerMatchesModel drives seeded random applies — overwrites,
// inserts before, inside and after the existing keys, values that grow
// and shrink — with reads, folds, captures and reopens through both
// backends against a plain map. Every read must match the model; every
// capture's chunks and digests must equal ChunkBuilder's cut of the
// model's sorted dump; and the chunks of every earlier capture must
// still hold the bytes they were returned with.
func TestLedgerMatchesModel(t *testing.T) {
	const size = 5
	for _, backend := range []string{"memory", "wal"} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", backend, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				var b Backend = NewChunked(size, 0)
				reopen := func() {}
				if backend == "wal" {
					dir := t.TempDir()
					open := func() Backend {
						d, err := OpenDurable(DurableOptions{Dir: dir, NoSync: true, CheckpointEvery: 13, ChunkRecords: size})
						if err != nil {
							t.Fatal(err)
						}
						return d
					}
					b = open()
					reopen = func() {
						if err := b.Close(); err != nil {
							t.Fatal(err)
						}
						b = open()
					}
					t.Cleanup(func() { _ = b.Close() })
				}
				m := &ledgerModel{vals: map[types.Key]types.Value{}, vers: map[types.Key]uint64{}}
				fresh := 0
				value := func() types.Value {
					fresh++
					return types.Value(fmt.Sprintf("%0*d", rng.Intn(12), fresh))
				}
				newKey := func() types.Key {
					fresh++
					if len(m.keys) == 0 {
						return types.Key(fmt.Sprintf("m%06d", fresh))
					}
					switch rng.Intn(3) {
					case 0: // before every key
						return types.Key(fmt.Sprintf("!%06d", 999999-fresh))
					case 1: // just after an existing key
						return m.keys[rng.Intn(len(m.keys))] + types.Key(fmt.Sprintf("+%06d", fresh))
					default: // after every key
						return types.Key(fmt.Sprintf("~%06d", fresh))
					}
				}
				var captures []held
				checkReads := func(step string) {
					t.Helper()
					for _, k := range m.keys {
						v, ver, ok := b.GetVersioned(k)
						if !ok || !v.Equal(m.vals[k]) || ver != m.vers[k] {
							t.Fatalf("%s: %s = %q@%d ok=%v, want %q@%d", step, k, v, ver, ok, m.vals[k], m.vers[k])
						}
					}
					if _, ok := b.Get("absent"); ok {
						t.Fatalf("%s: absent key found", step)
					}
					if b.Len() != len(m.keys) || b.Seq() != m.seq {
						t.Fatalf("%s: len %d seq %d, want %d and %d", step, b.Len(), b.Seq(), len(m.keys), m.seq)
					}
				}
				checkCapture := func(step string) {
					t.Helper()
					got := b.Chunks()
					chunks, digests, count := m.cut(size)
					if got.Size != size || got.Records != count || got.Seq != m.seq || len(got.Enc) != len(chunks) || len(got.Digests) != len(digests) {
						t.Fatalf("%s: %d records in %d chunks of %d at seq %d, want %d in %d of %d at %d",
							step, got.Records, len(got.Enc), got.Size, got.Seq, count, len(chunks), size, m.seq)
					}
					for i := range chunks {
						if !bytes.Equal(got.Enc[i], chunks[i]) {
							t.Fatalf("%s: chunk %d differs from ChunkBuilder's", step, i)
						}
						if got.Digests[i] != digests[i] {
							t.Fatalf("%s: chunk %d digest differs from ChunkBuilder's", step, i)
						}
					}
					for n, c := range captures {
						for i := range c.enc {
							if !bytes.Equal(c.enc[i], c.copy[i]) {
								t.Fatalf("%s: chunk %d of capture %d was written after it was returned", step, i, n)
							}
						}
					}
					c := held{enc: got.Enc}
					for _, e := range got.Enc {
						c.copy = append(c.copy, bytes.Clone(e))
					}
					captures = append(captures, c)
				}

				for step := 0; step < 400; step++ {
					name := fmt.Sprintf("step %d", step)
					switch op := rng.Intn(20); {
					case op < 10: // a batch of overwrites and inserts
						var writes []types.RWRecord
						for n := 1 + rng.Intn(6); n > 0; n-- {
							k := types.Key("")
							if len(m.keys) > 0 && rng.Intn(3) > 0 {
								k = m.keys[rng.Intn(len(m.keys))]
							} else {
								k = newKey()
							}
							writes = append(writes, types.RWRecord{Key: k, Value: value()})
						}
						m.apply(b.Apply(writes), writes)
					case op < 13:
						checkReads(name)
					case op < 15: // an ordered walk folds the buffer
						var walked []types.Key
						b.Ascend(func(r types.RWRecord) bool {
							if !r.Value.Equal(m.vals[r.Key]) {
								t.Fatalf("%s: walked %s = %q, want %q", name, r.Key, r.Value, m.vals[r.Key])
							}
							walked = append(walked, r.Key)
							return true
						})
						if !slices.Equal(walked, m.keys) {
							t.Fatalf("%s: walked %d keys, want %d in order", name, len(walked), len(m.keys))
						}
					case op < 19:
						checkCapture(name)
					default:
						reopen()
						checkReads(name + " after reopen")
					}
				}
				checkCapture("last")
			})
		}
	}
}

// TestLedgerIsInvisibleToGC: once folded, a 100k-record ledger is a few
// hundred heap objects — chunks and the index, none of them holding a
// pointer — not one or more per record.
func TestLedgerIsInvisibleToGC(t *testing.T) {
	const records = 100_000
	objects := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapObjects
	}
	before := objects()
	s := New()
	seed := make([]types.RWRecord, records)
	for i := range seed {
		seed[i] = types.RWRecord{Key: types.Key(fmt.Sprintf("acct%07d", i)), Value: types.Value("12345678")}
	}
	s.Apply(seed)
	// Overwrites and inserts through the buffer, then one fold.
	for i := 0; i < 2_000; i++ {
		s.Apply([]types.RWRecord{
			{Key: types.Key(fmt.Sprintf("acct%07d", i*37)), Value: types.Value("87654321")},
			{Key: types.Key(fmt.Sprintf("acct%07d+", i*41)), Value: types.Value("1")},
		})
	}
	seed = nil
	s.Chunks()
	added := int64(objects()) - int64(before)
	t.Logf("%d records, %d heap objects", s.Len(), added)
	if added >= 1000 {
		t.Fatalf("a folded %d-record ledger holds %d heap objects, want < 1000", s.Len(), added)
	}
	runtime.KeepAlive(s)
}

// TestGetAllocatesNothing: a read of a chunk-resident key, a buffered
// key and an absent key costs no allocation.
func TestGetAllocatesNothing(t *testing.T) {
	s := NewChunked(4, 0)
	for i := 0; i < 20; i++ {
		s.Set(types.Key(fmt.Sprintf("k%02d", i)), types.Value("v"))
	}
	s.Chunks()
	s.Set("k07", types.Value("buffered"))
	for _, k := range []types.Key{"k03", "k07", "k19", "absent"} {
		if n := testing.AllocsPerRun(100, func() { s.Get(k) }); n != 0 {
			t.Fatalf("Get(%s) allocates %.0f times", k, n)
		}
	}
}

// TestFirstBatchLastWriteWins: a store's first batch, cut straight into
// chunks, keeps the last write of a repeated key, sorted or not.
func TestFirstBatchLastWriteWins(t *testing.T) {
	for _, batch := range [][]types.RWRecord{
		{rec("a", "1"), rec("b", "1"), rec("b", "2"), rec("c", "1"), rec("d", "1")},
		{rec("d", "1"), rec("b", "1"), rec("a", "1"), rec("b", "2"), rec("c", "1")},
	} {
		s := NewChunked(2, 0)
		s.Apply(batch)
		if v, _ := s.Get("b"); string(v) != "2" || s.Len() != 4 {
			t.Fatalf("b = %q over %d keys, want 2 over 4", v, s.Len())
		}
		if got := dumpOf(s); len(got) != 4 || got[1].Key != "b" || string(got[1].Value) != "2" {
			t.Fatalf("dump %v", got)
		}
	}
}
