package types

import (
	"sync"
	"sync/atomic"
)

// String interning for the hot decode paths. SmallBank-shaped traffic
// re-decodes the same small key universe (account checking/savings
// cells, contract names) thousands of times per block: without
// interning every RWRecord key and contract name is a fresh string
// allocation pinning its block's arrival buffer. The table trades one
// lookup for those allocations — a hit returns the one canonical
// string, so repeated keys across blocks share storage and the decode
// allocation count stops scaling with the read/write-set size.
//
// The table is a plain bounded map: entries are never evicted, and
// once full, misses fall back to a private copy. That bound (64k
// entries × ≤64 bytes) caps the memory an adversarial key stream can
// pin at ~4 MiB while keeping the common case — a stable hot key set
// — allocation-free after warmup. Because nothing is ever evicted,
// whatever fills the table first owns it: streams that name every key
// of a large state once (snapshot chunks, ledger bodies) decode
// without interning (decodeLedger), so they cannot fill it ahead of
// the keys that blocks repeat.

const (
	// maxInternLen bounds the byte length of interned strings; longer
	// ones are copied per use (they are not "hot keys").
	maxInternLen = 64
	// maxInternEntries bounds the table population.
	maxInternEntries = 1 << 16
)

// The table is copy-on-write: the hit path — the steady state once
// the hot key set has warmed up — is one atomic pointer load plus a
// plain map index, which the compiler performs without materializing
// string(b) and without any lock. Misses insert under a mutex into a
// pending map no reader sees; once the pending work — inserts plus
// repeat lookups of pending keys — has grown to the size of the
// frozen map (internMergeBatch at least), the frozen entries are
// copied into the pending map and it is published as the new frozen
// map. A merge thus copies at most as many entries as slow-path
// operations preceded it: filling the table is amortised O(1) per new
// key (a 64k-key warmup copies about 64k entries in all), and the
// read path never sees a map being written. Until its merge, a
// pending key's lookups cost the mutex and one allocation each.
var (
	internFrozen   atomic.Pointer[map[string]string]
	internMu       sync.Mutex
	internWarm     = make(map[string]string)
	internWarmHits int
)

func init() { internFrozen.Store(&map[string]string{}) }

// internMergeBatch is the smallest amount of pending work that
// triggers a merge, so a near-empty table does not re-merge per key.
const internMergeBatch = 64

// Intern returns the canonical string for b, copying at most once per
// distinct value for the lifetime of the process (within the table
// bounds). The returned string never aliases b.
func Intern(b []byte) string {
	if len(b) == 0 || len(b) > maxInternLen {
		return string(b)
	}
	frozen := *internFrozen.Load()
	if s, ok := frozen[string(b)]; ok { // compiler-optimized: no allocation
		return s
	}
	s := string(b)
	if len(frozen) >= maxInternEntries {
		// Full, and a full table is all frozen (see below): the private
		// copy is the answer, with no lock to take.
		return s
	}
	internMu.Lock()
	defer internMu.Unlock()
	if cur, ok := internWarm[s]; ok {
		internWarmHits++
		internMergeIfDueLocked()
		return cur
	}
	// Re-read under the lock: a concurrent merge may have promoted s or
	// filled the table.
	frozen = *internFrozen.Load()
	if cur, ok := frozen[s]; ok {
		return cur
	}
	if len(frozen) >= maxInternEntries {
		return s
	}
	internWarm[s] = s
	internMergeIfDueLocked()
	return s
}

// internMergeIfDueLocked publishes frozen ∪ warm as the new frozen map
// once the pending work has caught up with the frozen map's size, or
// the table has reached its bound (so that a full table is entirely
// frozen and Intern can tell without the lock). No reader has ever
// seen the warm map, so it becomes the new frozen map in place: the
// merge inserts only the old frozen entries. Callers hold internMu.
func internMergeIfDueLocked() {
	frozen := *internFrozen.Load()
	if len(internWarm)+internWarmHits < max(internMergeBatch, len(frozen)) &&
		len(frozen)+len(internWarm) < maxInternEntries {
		return
	}
	merged := internWarm
	for k, v := range frozen {
		merged[k] = v
	}
	internFrozen.Store(&merged)
	internWarm = make(map[string]string)
	internWarmHits = 0
}

// InternStr reads a length-prefixed string through the intern table —
// the decode-path twin of Str for fields drawn from a small hot set
// (storage keys, contract names).
func (d *Decoder) InternStr() string { return Intern(d.view()) }
