package node

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"thunderbolt/internal/contract"
	"thunderbolt/internal/crypto"
	"thunderbolt/internal/metrics"
	"thunderbolt/internal/storage"
	"thunderbolt/internal/types"
)

// The capture differential: whatever an incremental capture reuses,
// its product must equal a capture built with nothing to reuse.

const diffChunk = 8 // records per chunk: small, so few keys make many chunks

// captured is what one capture leaves on the node.
type captured struct {
	snap   *types.Snapshot
	chunks [][]byte
}

func lastCapture(n *Node) captured { return captured{n.lastSnap, n.snapChunks} }

// diffCaptures reports the first difference between two captures of
// one state, nil when they are interchangeable.
func diffCaptures(got, want captured) error {
	g, w := got.snap, want.snap
	if g.RecordCount != w.RecordCount || g.ChunkSize != w.ChunkSize {
		return fmt.Errorf("geometry %d records / chunks of %d, want %d / %d", g.RecordCount, g.ChunkSize, w.RecordCount, w.ChunkSize)
	}
	if len(got.chunks) != len(want.chunks) || len(g.ChunkDigests) != len(w.ChunkDigests) || len(got.chunks) != len(g.ChunkDigests) {
		return fmt.Errorf("%d chunks with %d digests, want %d with %d", len(got.chunks), len(g.ChunkDigests), len(want.chunks), len(w.ChunkDigests))
	}
	for i := range want.chunks {
		if !bytes.Equal(got.chunks[i], want.chunks[i]) {
			return fmt.Errorf("chunk %d differs", i)
		}
		if g.ChunkDigests[i] != w.ChunkDigests[i] {
			return fmt.Errorf("chunk %d digest differs", i)
		}
		if g.ChunkDigests[i] != types.HashBytes(got.chunks[i]) {
			return fmt.Errorf("chunk %d digest is not the digest of its payload", i)
		}
	}
	if g.Digest() != w.Digest() {
		return fmt.Errorf("snapshot digest %s, want %s", g.Digest(), w.Digest())
	}
	return nil
}

// captureBothWays captures through the node — the store's chunks,
// hashed only where a fold rebuilt them — and then cuts the same state
// from scratch, with a ChunkBuilder over an ordered walk, and returns
// both.
func captureBothWays(n *Node) (incremental, scratch captured) {
	n.capture()
	incremental = lastCapture(n)
	cb := types.NewChunkBuilder(diffChunk, -1)
	n.cfg.Store.Ascend(func(r types.RWRecord) bool {
		cb.Add(r.Key, r.Value)
		return true
	})
	chunks, digests, _, count := cb.Finish()
	s := incremental.snap
	scratch = captured{&types.Snapshot{
		Epoch: s.Epoch, N: s.N, EndRound: s.EndRound, Shifts: s.Shifts, Commits: s.Commits,
		ChunkSize: diffChunk, RecordCount: uint64(count), ChunkDigests: digests,
		DedupWindow: s.DedupWindow, Sessions: s.Sessions,
	}, chunks}
	return incremental, scratch
}

func captureDiffNode(t *testing.T, id types.ReplicaID, st storage.Backend) *Node {
	t.Helper()
	signers, verifier, err := crypto.InsecureScheme{}.Committee(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{
		ID: id, N: 4,
		Transport: &nullTransport{id: id},
		Signer:    signers[id], Verifier: verifier,
		Registry: contract.NewRegistry(), Store: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// captureDiff drives one replica (n) and a donor that stays one install
// ahead of it through the same writes.
type captureDiff struct {
	t     *testing.T
	rng   *rand.Rand
	n     *Node
	donor *Node
	keys  []types.Key
	fresh int // distinguishes inserted keys and written values
}

func (d *captureDiff) value() types.Value {
	d.fresh++
	return types.Value(fmt.Sprintf("v%d", d.fresh))
}

func (d *captureDiff) apply(stores []storage.Backend, writes []types.RWRecord) {
	for _, st := range stores {
		st.Apply(writes)
	}
}

func (d *captureDiff) both() []storage.Backend {
	return []storage.Backend{d.n.cfg.Store, d.donor.cfg.Store}
}

// overwrite rewrites count existing keys.
func (d *captureDiff) overwrite(count int) []types.RWRecord {
	var writes []types.RWRecord
	for i := 0; i < count; i++ {
		writes = append(writes, types.RWRecord{Key: d.keys[d.rng.Intn(len(d.keys))], Value: d.value()})
	}
	return writes
}

// insert adds one new key: before every existing key, between two of
// them, or after all of them.
func (d *captureDiff) insert(where string) types.RWRecord {
	d.fresh++
	var k types.Key
	switch where {
	case "before":
		k = types.Key(fmt.Sprintf("!%06d", 999999-d.fresh)) // each sorts before the last
	case "middle":
		k = d.keys[d.rng.Intn(len(d.keys))] + types.Key(fmt.Sprintf("+%06d", d.fresh))
	case "after":
		k = types.Key(fmt.Sprintf("~%06d", d.fresh))
	}
	d.keys = append(d.keys, k)
	return types.RWRecord{Key: k, Value: d.value()}
}

// check captures both ways and requires equality; wantReuse also
// requires the incremental capture to have shared at least one chunk.
func (d *captureDiff) check(step string, wantReuse bool) {
	d.t.Helper()
	before := d.n.nm.snapChunksReused.Value()
	inc, scratch := captureBothWays(d.n)
	if err := diffCaptures(inc, scratch); err != nil {
		d.t.Fatalf("%s: incremental capture differs from a from-scratch one: %v", step, err)
	}
	if got := int(inc.snap.RecordCount); got != len(d.keys) {
		d.t.Fatalf("%s: captured %d records, store holds %d keys", step, got, len(d.keys))
	}
	if reused := d.n.nm.snapChunksReused.Value() - before; wantReuse && reused == 0 {
		d.t.Fatalf("%s: nothing reused — the incremental path went untested", step)
	}
}

func TestIncrementalCaptureMatchesFromScratch(t *testing.T) {
	for _, backend := range []string{"memory", "wal"} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", backend, seed), func(t *testing.T) {
				var reopen func() storage.Backend
				var st storage.Backend = storage.NewChunked(diffChunk, 0)
				if backend == "wal" {
					dir := t.TempDir()
					open := func() *storage.Durable {
						// A short checkpoint cadence, so a reopen restores
						// versions from a checkpoint and from replayed records.
						w, err := storage.OpenDurable(storage.DurableOptions{Dir: dir, NoSync: true, CheckpointEvery: 16, ChunkRecords: diffChunk})
						if err != nil {
							t.Fatal(err)
						}
						return w
					}
					w := open()
					reopen = func() storage.Backend {
						if err := w.Close(); err != nil {
							t.Fatal(err)
						}
						w = open()
						return w
					}
					t.Cleanup(func() { _ = w.Close() })
					st = w
				}
				d := &captureDiff{t: t, rng: rand.New(rand.NewSource(seed))}
				d.n = captureDiffNode(t, 0, st)
				d.donor = captureDiffNode(t, 1, storage.NewChunked(diffChunk, 0))

				// Seed to one record short of two chunks.
				var seedBatch []types.RWRecord
				for i := 0; i < 2*diffChunk-1; i++ {
					k := types.Key(fmt.Sprintf("k%04d", i))
					d.keys = append(d.keys, k)
					seedBatch = append(seedBatch, types.RWRecord{Key: k, Value: d.value()})
				}
				d.apply(d.both(), seedBatch)
				d.check("first capture", false)
				d.check("nothing written", true)

				// Record counts k·size−1, k·size, k·size+1, and on through
				// the next boundary, one inserted key per capture.
				for i := 0; i < diffChunk+2; i++ {
					where := []string{"after", "middle", "before"}[d.rng.Intn(3)]
					d.apply(d.both(), []types.RWRecord{d.insert(where)})
					d.check(fmt.Sprintf("%d records after insert %s", len(d.keys), where), false)
				}

				for round := 0; round < 40; round++ {
					switch op := d.rng.Intn(10); {
					case op < 5: // overwrites only, few enough to leave chunks clean
						d.apply(d.both(), d.overwrite(1+d.rng.Intn(3)))
						d.check(fmt.Sprintf("round %d overwrite", round), len(d.keys) > 5*diffChunk)
					case op < 8: // new keys at every position, around overwrites
						writes := d.overwrite(d.rng.Intn(3))
						for _, where := range []string{"before", "middle", "after"} {
							if d.rng.Intn(2) == 0 {
								writes = append(writes, d.insert(where))
							}
						}
						d.apply(d.both(), writes)
						d.check(fmt.Sprintf("round %d insert", round), false)
					case op == 8: // a snapshot install between captures
						ahead := append(d.overwrite(2), d.insert("middle"), d.insert("after"))
						d.apply([]storage.Backend{d.donor.cfg.Store}, ahead)
						reconfigureTo(d.donor, d.n.epoch+1)
						d.n.installSnapshot(d.donor.lastSnap, ahead, d.donor.snapChunks)
						if d.n.epoch != d.donor.lastSnap.Epoch {
							t.Fatalf("round %d: install did not land (epoch %d)", round, d.n.epoch)
						}
						d.check(fmt.Sprintf("round %d after install", round), false)
						d.apply(d.both(), d.overwrite(1))
						d.check(fmt.Sprintf("round %d overwrite after install", round), len(d.keys) > 5*diffChunk)
					case reopen != nil: // a close/reopen between captures
						d.n.cfg.Store = reopen()
						// A reopened store rebuilt its chunks from the checkpoint and
						// the WAL: its first capture hashes them all once.
						d.check(fmt.Sprintf("round %d after reopen", round), false)
						d.apply(d.both(), d.overwrite(1))
						d.check(fmt.Sprintf("round %d overwrite after reopen", round), len(d.keys) > 5*diffChunk)
					}
				}
			})
		}
	}
}

// TestCaptureDifferentialCatchesWrongReuse is the mutation check on
// the differential above: a capture that takes a dirty chunk from the
// previous one must fail the comparison.
func TestCaptureDifferentialCatchesWrongReuse(t *testing.T) {
	st := storage.NewChunked(diffChunk, 0)
	n := captureDiffNode(t, 0, st)
	var batch []types.RWRecord
	for i := 0; i < 4*diffChunk; i++ {
		batch = append(batch, types.RWRecord{Key: types.Key(fmt.Sprintf("k%04d", i)), Value: types.Value("old")})
	}
	st.Apply(batch)
	n.capture()
	prev := lastCapture(n)
	st.Apply([]types.RWRecord{{Key: batch[diffChunk+1].Key, Value: types.Value("new")}})
	inc, scratch := captureBothWays(n)
	if err := diffCaptures(inc, scratch); err != nil {
		t.Fatalf("an honest capture failed the differential: %v", err)
	}

	// The mutation: chunk 1, which the write dirtied, taken from the
	// capture before, digest and all.
	inc.chunks[1], inc.snap.ChunkDigests[1] = prev.chunks[1], prev.snap.ChunkDigests[1]
	if err := diffCaptures(inc, scratch); err == nil {
		t.Fatal("a capture that reused a dirty chunk passed the differential")
	}
}

// TestCaptureTelemetry: every capture reports how many chunks it
// hashed and how many it took unchanged from the one before — as
// registry counters, as the EvSnapCapture flight event's payload, and
// as one snap_capture_ns sample — and the store reports its ledger
// into the node's registry: the gauges after each apply and fold, and
// one ledger_fold_ns sample per fold.
func TestCaptureTelemetry(t *testing.T) {
	st := storage.NewChunked(diffChunk, 0)
	n := captureDiffNode(t, 0, st)
	var batch []types.RWRecord
	for i := 0; i < 4*diffChunk; i++ {
		batch = append(batch, types.RWRecord{Key: types.Key(fmt.Sprintf("k%04d", i)), Value: types.Value("old")})
	}
	st.Apply(batch)
	n.capture() // 4 chunks, nothing to reuse
	st.Apply([]types.RWRecord{{Key: batch[0].Key, Value: types.Value("new")}})
	if got := n.Metrics().Snapshot().Gauges[mLedgerBuffered]; got != 1 {
		t.Errorf("%s = %d before the capture, want 1", mLedgerBuffered, got)
	}
	n.capture() // chunk 0 dirty, 3 shared

	snap := n.Metrics().Snapshot()
	for name, want := range map[string]int64{mLedgerRecords: 4 * diffChunk, mLedgerChunks: 4, mLedgerBuffered: 0} {
		if got := snap.Gauges[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Gauges[mLedgerBytes]; got != int64(len(bytes.Join(n.snapChunks, nil))) {
		t.Errorf("%s = %d, the chunks hold %d bytes", mLedgerBytes, got, len(bytes.Join(n.snapChunks, nil)))
	}
	if got := snap.Histograms[mLedgerFoldNs].Count; got != 1 {
		t.Errorf("%s holds %d samples, want 1", mLedgerFoldNs, got)
	}
	if got := snap.Counters[mSnapChunksEncoded]; got != 5 {
		t.Errorf("%s = %d, want 5", mSnapChunksEncoded, got)
	}
	if got := snap.Counters[mSnapChunksReused]; got != 3 {
		t.Errorf("%s = %d, want 3", mSnapChunksReused, got)
	}
	if got := snap.Histograms[mSnapCaptureNs].Count; got != 2 {
		t.Errorf("%s holds %d samples, want 2", mSnapCaptureNs, got)
	}
	var events []metrics.Event
	for _, e := range n.Flight().Events() {
		if e.Kind == metrics.EvSnapCapture {
			events = append(events, e)
		}
	}
	if len(events) != 2 || events[0].A != 4 || events[0].B != 0 || events[1].A != 1 || events[1].B != 3 {
		t.Errorf("capture flight events %v, want encoded/reused 4/0 then 1/3", events)
	}
}
