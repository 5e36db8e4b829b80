package depgraph

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"thunderbolt/internal/types"
)

func layersSeed(def int64) int64 {
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return def
}

func conflicts(a, b *Access) bool {
	for _, w := range a.Writes {
		for _, k := range b.Writes {
			if w == k {
				return true
			}
		}
		for _, k := range b.Reads {
			if w == k {
				return true
			}
		}
	}
	for _, r := range a.Reads {
		for _, k := range b.Writes {
			if r == k {
				return true
			}
		}
	}
	return false
}

// TestLayersProperties: for random footprints, Layers must (1)
// partition all indices exactly once, (2) never co-locate two
// conflicting transactions in one layer, and (3) respect schedule
// order — every conflict's earlier transaction sits in a strictly
// lower layer (topological order of the conflict graph).
func TestLayersProperties(t *testing.T) {
	seed := layersSeed(11)
	t.Logf("layers seed %d (set CHAOS_SEED to replay)", seed)
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 50; trial++ {
		nKeys := 1 + rng.Intn(12)
		keys := make([]types.Key, nKeys)
		for i := range keys {
			keys[i] = types.Key(fmt.Sprintf("k%d", i))
		}
		n := rng.Intn(60)
		accs := make([]Access, n)
		for i := range accs {
			for j := 0; j < 1+rng.Intn(3); j++ {
				k := keys[rng.Intn(nKeys)]
				if rng.Intn(2) == 0 {
					accs[i].Reads = append(accs[i].Reads, k)
				} else {
					accs[i].Writes = append(accs[i].Writes, k)
				}
			}
		}
		layers := Layers(accs)

		layerOf := make([]int, n)
		seen := 0
		for l, layer := range layers {
			for _, i := range layer {
				layerOf[i] = l
				seen++
			}
		}
		if seen != n {
			t.Fatalf("trial %d: layers cover %d of %d indices", trial, seen, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if !conflicts(&accs[i], &accs[j]) {
					continue
				}
				if layerOf[i] >= layerOf[j] {
					t.Fatalf("trial %d: conflicting txs %d (layer %d) and %d (layer %d) not ordered",
						trial, i, layerOf[i], j, layerOf[j])
				}
			}
		}
	}
}

func TestLayersEmpty(t *testing.T) {
	if l := Layers(nil); l != nil {
		t.Fatalf("empty plan should be nil, got %v", l)
	}
}

// BenchmarkHasPathCached drives the reachability-heavy Read path: a
// chain of uncommitted writers over one hot key plus interleaved
// readers, so every placement probes hasPath against live chain
// entries. The generation-stamped visited marks and the positive
// reachability memo are what keep allocs/op flat here.
func BenchmarkHasPathCached(b *testing.B) {
	const depth = 32
	val := types.Value("v")
	ids := make([]types.Digest, depth+1)
	for i := range ids {
		ids[i] = types.HashBytes([]byte(fmt.Sprintf("bench-%d", i)))
	}
	g := New(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Build an uncommitted writer chain: tx j reads key j-1 and
		// writes key j, so edges link the whole batch.
		txs := make([]*Tx, depth)
		for j := 0; j < depth; j++ {
			h := g.Begin(ids[j])
			if j > 0 {
				if _, err := g.Read(h, types.Key(fmt.Sprintf("k%d", j-1))); err != nil {
					b.Fatal(err)
				}
			}
			if err := g.Write(h, types.Key(fmt.Sprintf("k%d", j)), val); err != nil {
				b.Fatal(err)
			}
			txs[j] = h
		}
		// A probe reading across the chain exercises hasPath against
		// every uncommitted writer it walks past.
		p := g.Begin(ids[depth])
		for j := depth - 1; j >= 0; j -= 4 {
			if _, err := g.Read(p, types.Key(fmt.Sprintf("k%d", j))); err != nil {
				b.Fatal(err)
			}
		}
		g.Abort(p)
		for _, h := range txs {
			if err := g.Finish(h); err != nil {
				b.Fatal(err)
			}
			if o := <-h.Done(); !o.Committed {
				b.Fatal("chain tx aborted")
			}
		}
		g.Reset(nil)
	}
}
