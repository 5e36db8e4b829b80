package types

import (
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// resetIntern empties the process-wide intern table, so a test or
// benchmark iteration starts from a cold table whatever ran before it.
func resetIntern() {
	internMu.Lock()
	defer internMu.Unlock()
	internFrozen.Store(&map[string]string{})
	internWarm = make(map[string]string)
	internWarmHits = 0
}

func internKey(prefix string, i int) []byte { return []byte(fmt.Sprintf("%s:acct%07d", prefix, i)) }

// sameString reports whether a and b are one string — equal, and
// backed by the same bytes.
func sameString(a, b string) bool {
	return a == b && unsafe.StringData(a) == unsafe.StringData(b)
}

func TestInternCanonicalAcrossMerges(t *testing.T) {
	resetIntern()
	const n = 10_000 // crosses several geometric merges
	first := make([]string, n)
	for i := range first {
		first[i] = Intern(internKey("c", i))
	}
	for i, want := range first {
		if got := Intern(internKey("c", i)); !sameString(got, want) {
			t.Fatalf("key %d interned to a second copy after the table grew", i)
		}
	}
	// Everything looked up again has been promoted: the steady state
	// is the lock-free, allocation-free hit path.
	b := internKey("c", n/2)
	if allocs := testing.AllocsPerRun(100, func() { Intern(b) }); allocs != 0 {
		t.Fatalf("hit path allocates %.0f times per lookup", allocs)
	}
}

func TestInternFullTableMissesPrivateCopy(t *testing.T) {
	resetIntern()
	for i := 0; i < maxInternEntries; i++ {
		Intern(internKey("c", i))
	}
	if got := len(*internFrozen.Load()); got != maxInternEntries || len(internWarm) != 0 {
		t.Fatalf("full table holds %d frozen + %d pending entries, want all %d frozen", got, len(internWarm), maxInternEntries)
	}
	// A miss on a full table returns a private copy without the lock:
	// it must come back while another goroutine holds internMu.
	internMu.Lock()
	done := make(chan string)
	go func() { done <- Intern(internKey("x", 1)) }()
	select {
	case s := <-done:
		if s != string(internKey("x", 1)) {
			t.Errorf("miss returned %q", s)
		}
	case <-time.After(5 * time.Second):
		t.Error("a miss on a full table waited for internMu")
	}
	internMu.Unlock()
	if a, b := Intern(internKey("x", 1)), Intern(internKey("x", 1)); sameString(a, b) {
		t.Fatal("a full table interned a new key")
	}
	if a, b := Intern(internKey("c", 7)), Intern(internKey("c", 7)); !sameString(a, b) {
		t.Fatal("a full table lost an entry")
	}
}

// TestChunkDecodeBypassesIntern: decoding a 200k-key snapshot — a cold
// stream that names every key once — must leave the table to the keys
// that blocks repeat.
func TestChunkDecodeBypassesIntern(t *testing.T) {
	resetIntern()
	const records = 200_000
	cb := NewChunkBuilder(DefaultChunkRecords, -1)
	for i := 0; i < records; i++ {
		cb.Add(Key(internKey("cold", i)), Value("v"))
	}
	chunks, digests, _, count := cb.Finish()
	snap := &Snapshot{ChunkSize: DefaultChunkRecords, RecordCount: uint64(count), ChunkDigests: digests}
	for i, payload := range chunks {
		if _, err := snap.VerifyChunk(i, payload); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(*internFrozen.Load()) + len(internWarm); got != 0 {
		t.Fatalf("chunk decode interned %d keys", got)
	}
	for i := 0; i < 1000; i++ {
		if a, b := Intern(internKey("hot", i)), Intern(internKey("hot", i)); !sameString(a, b) {
			t.Fatalf("hot key %d not interned after a %d-key chunk stream", i, records)
		}
	}
}

func TestInternConcurrent(t *testing.T) {
	resetIntern()
	const workers, keys = 8, 5000
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]string, keys)
			for i := 0; i < keys; i++ {
				got[w][i] = Intern(internKey("k", (i*7+w)%keys))
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < keys; i++ {
		want := Intern(internKey("k", i))
		for w := 0; w < workers; w++ {
			// got[w][j] holds key (j*7+w)%keys; check every worker's
			// copy of key i is the canonical one.
			for j := 0; j < keys; j++ {
				if (j*7+w)%keys == i {
					if !sameString(got[w][j], want) {
						t.Fatalf("worker %d holds a second copy of key %d", w, i)
					}
					break
				}
			}
		}
	}
}

// BenchmarkInternGrow100k fills a cold table with 100k distinct keys
// (the first 64k enter it, the rest miss a full table): growth must be
// amortised O(1) per key. CI fails it above 100 ms/op; the rebuild-
// every-64-inserts table it replaced took seconds.
func BenchmarkInternGrow100k(b *testing.B) {
	keys := make([][]byte, 100_000)
	for i := range keys {
		keys[i] = internKey("c", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		resetIntern()
		b.StartTimer()
		for _, k := range keys {
			Intern(k)
		}
	}
}
