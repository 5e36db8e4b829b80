package storage

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"thunderbolt/internal/types"
)

func TestGetSet(t *testing.T) {
	s := New()
	if _, ok := s.Get("missing"); ok {
		t.Fatal("missing key reported present")
	}
	s.Set("a", types.Value("1"))
	v, ok := s.Get("a")
	if !ok || string(v) != "1" {
		t.Fatalf("got %q ok=%v", v, ok)
	}
}

func TestApplyAtomicVersioning(t *testing.T) {
	s := New()
	seq1 := s.Apply([]types.RWRecord{{Key: "a", Value: types.Value("1")}, {Key: "b", Value: types.Value("2")}})
	seq2 := s.Apply([]types.RWRecord{{Key: "a", Value: types.Value("3")}})
	if seq2 <= seq1 {
		t.Fatalf("sequence not increasing: %d then %d", seq1, seq2)
	}
	if _, ver, _ := s.GetVersioned("a"); ver != seq2 {
		t.Fatalf("a version=%d want %d", ver, seq2)
	}
	if _, ver, _ := s.GetVersioned("b"); ver != seq1 {
		t.Fatalf("b version=%d want %d", ver, seq1)
	}
	if s.Version("nope") != 0 {
		t.Fatal("missing key should have version 0")
	}
	if s.Seq() != seq2 {
		t.Fatalf("Seq=%d want %d", s.Seq(), seq2)
	}
}

func TestApplyRetainsBuffers(t *testing.T) {
	// Apply's contract is hand-over: the store buffers the caller's
	// value uncloned (callers never mutate it afterwards), so until the
	// next fold a read observes exactly the installed bytes with no copy
	// in between. The fold copies the value into a chunk and lets the
	// caller's buffer go, so a value stops pinning whatever it was
	// decoded from.
	s := New()
	s.Set("seed", types.Value("x")) // a store's first batch is cut into chunks at once
	v := types.Value("abc")
	s.Apply([]types.RWRecord{{Key: "k", Value: v}})
	got, _ := s.Get("k")
	if string(got) != "abc" {
		t.Fatalf("Get=%q want %q", got, "abc")
	}
	if &got[0] != &v[0] {
		t.Fatal("expected the store to retain the caller's buffer without copying")
	}
	s.Chunks() // folds
	got, _ = s.Get("k")
	if string(got) != "abc" || &got[0] == &v[0] {
		t.Fatalf("after a fold Get=%q aliases the caller's buffer: %v", got, &got[0] == &v[0])
	}
}

func TestSnapshotIsolation(t *testing.T) {
	s := New()
	s.Set("a", types.Value("1"))
	snap := s.Snapshot()
	s.Set("a", types.Value("2"))
	if string(snap["a"]) != "1" {
		t.Fatal("snapshot observed later write")
	}
	snap["a"][0] = 'Z'
	got, _ := s.Get("a")
	if string(got) != "2" {
		t.Fatal("mutating snapshot affected store")
	}
}

func TestCommitLogRetention(t *testing.T) {
	s := NewWithLog(2)
	for i := 0; i < 5; i++ {
		s.Apply([]types.RWRecord{{Key: "k", Value: types.Value(fmt.Sprintf("%d", i))}})
	}
	log := s.Log()
	if len(log) != 2 {
		t.Fatalf("retained %d records, want 2", len(log))
	}
	if string(log[1].Writes[0].Value) != "4" {
		t.Fatalf("latest record wrong: %+v", log[1])
	}
	// Empty batches are not logged but still consume a sequence number.
	before := s.Seq()
	s.Apply(nil)
	if len(s.Log()) != 2 || s.Seq() != before+1 {
		t.Fatal("empty batch logging behavior wrong")
	}
}

func TestKeysSorted(t *testing.T) {
	s := New()
	for _, k := range []types.Key{"c", "a", "b"} {
		s.Set(k, types.Value("x"))
	}
	ks := s.Keys()
	if len(ks) != 3 || ks[0] != "a" || ks[2] != "c" {
		t.Fatalf("keys not sorted: %v", ks)
	}
	if s.Len() != 3 {
		t.Fatalf("Len=%d", s.Len())
	}
}

func TestConcurrentApplyAndGet(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := types.Key(fmt.Sprintf("k%d", g))
			for i := 0; i < 200; i++ {
				s.Apply([]types.RWRecord{{Key: k, Value: types.Value(fmt.Sprintf("%d", i))}})
				if v, ok := s.Get(k); !ok || len(v) == 0 {
					t.Errorf("lost write on %s", k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Seq() != 8*200 {
		t.Fatalf("Seq=%d want %d", s.Seq(), 8*200)
	}
}

func TestVersionMonotonicQuick(t *testing.T) {
	s := New()
	last := uint64(0)
	f := func(key string, val []byte) bool {
		seq := s.Apply([]types.RWRecord{{Key: types.Key(key), Value: val}})
		ok := seq > last
		last = seq
		if v, ver, _ := s.GetVersioned(types.Key(key)); ver != seq || !v.Equal(val) {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
