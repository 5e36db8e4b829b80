package types

import (
	"fmt"
	"testing"
)

// chunkedSnapshot returns a manifest over records ledger records cut
// into chunks of chunkSize, the chunk payloads, and the ledger.
func chunkedSnapshot(records, chunkSize int) (*Snapshot, [][]byte, []RWRecord) {
	s := &Snapshot{
		Epoch: 2, N: 4, EndRound: 512, Commits: 9000,
		DedupWindow: 128,
	}
	var ledger []RWRecord
	for i := 0; i < records; i++ {
		ledger = append(ledger, RWRecord{
			Key:   Key(fmt.Sprintf("c:acct%06d", i)),
			Value: Value(fmt.Sprintf("%d", 1000+i)),
		})
	}
	return s, chunkInto(s, ledger, chunkSize), ledger
}

func TestChunkManifestRoundTrip(t *testing.T) {
	s, chunks, ledger := chunkedSnapshot(10, 4)
	if len(chunks) != 3 || len(s.ChunkDigests) != 3 || s.RecordCount != 10 {
		t.Fatalf("want 3 chunks over 10 records, got %d chunks, count %d", len(chunks), s.RecordCount)
	}
	if !s.Canonical() {
		t.Fatal("manifest should be canonical")
	}
	b, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if !got.Canonical() {
		t.Fatal("decoded manifest not canonical")
	}
	if got.Digest() != s.Digest() {
		t.Fatal("manifest digest changed across encode/decode")
	}
	// Every chunk verifies against the decoded manifest and the
	// verified records reassemble the original ledger exactly.
	var all []RWRecord
	for i, c := range chunks {
		recs, err := got.VerifyChunk(i, c)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		all = append(all, recs...)
	}
	if len(all) != len(ledger) {
		t.Fatalf("reassembled %d records, want %d", len(all), len(ledger))
	}
	for i := range all {
		if all[i].Key != ledger[i].Key || !all[i].Value.Equal(ledger[i].Value) {
			t.Fatalf("record %d mismatch after reassembly", i)
		}
	}
}

func TestVerifyChunkRejectsForgery(t *testing.T) {
	s, chunks, _ := chunkedSnapshot(10, 4)
	if _, err := s.VerifyChunk(0, chunks[1]); err == nil {
		t.Fatal("chunk served under the wrong index verified")
	}
	if _, err := s.VerifyChunk(3, chunks[0]); err == nil {
		t.Fatal("out-of-range index verified")
	}
	bad := append([]byte(nil), chunks[2]...)
	bad[len(bad)-1] ^= 1
	if _, err := s.VerifyChunk(2, bad); err == nil {
		t.Fatal("corrupt payload verified")
	}
	if _, err := s.VerifyChunk(1, chunks[1][:len(chunks[1])-1]); err == nil {
		t.Fatal("truncated payload verified")
	}
}

// TestVerifyLedgerBindsBody checks that a ledger body re-chunked by a
// server binds to the manifest: the honest records verify chunk by
// chunk, while well-formed chunks of forged or missing records — what
// a lying server pairs with an honest manifest — do not.
func TestVerifyLedgerBindsBody(t *testing.T) {
	s, chunks, ledger := chunkedSnapshot(10, 4)
	for i, c := range chunks {
		if _, err := s.VerifyChunk(i, c); err != nil {
			t.Fatalf("honest ledger chunk %d rejected: %v", i, err)
		}
	}
	forged := append([]RWRecord(nil), ledger...)
	forged[3].Value = Value("stolen")
	if _, err := s.VerifyChunk(0, chunkInto(&Snapshot{}, forged, 4)[0]); err == nil {
		t.Fatal("forged ledger body passed against the manifest")
	}
	short := chunkInto(&Snapshot{}, ledger[:9], 4)
	if _, err := s.VerifyChunk(2, short[2]); err == nil {
		t.Fatal("short ledger body passed against the manifest")
	}
}

func TestMerkleFold(t *testing.T) {
	d := func(tag string) Digest { return HashBytes([]byte(tag)) }
	if MerkleFold(nil) != MerkleFold([]Digest{}) {
		t.Fatal("empty folds disagree")
	}
	even := []Digest{d("a"), d("b"), d("c"), d("d")}
	odd := []Digest{d("a"), d("b"), d("c")}
	if MerkleFold(even) == MerkleFold(odd) {
		t.Fatal("different lengths fold to the same root")
	}
	swapped := []Digest{d("b"), d("a"), d("c"), d("d")}
	if MerkleFold(even) == MerkleFold(swapped) {
		t.Fatal("order does not bind the root")
	}
	mutated := []Digest{d("a"), d("b"), d("c"), d("x")}
	if MerkleFold(even) == MerkleFold(mutated) {
		t.Fatal("content does not bind the root")
	}
	again := []Digest{d("a"), d("b"), d("c"), d("d")}
	if MerkleFold(even) != MerkleFold(again) {
		t.Fatal("fold not deterministic")
	}
}

func TestChunkBuilderStreamsAndKeeps(t *testing.T) {
	s, want, ledger := chunkedSnapshot(10, 4)
	// Records retained under a keep limit must not change the chunks.
	cb := NewChunkBuilder(4, 5) // keep limit below the stream size
	for _, r := range ledger {
		cb.Add(r.Key, r.Value)
	}
	chunks, digests, records, count := cb.Finish()
	if count != 10 || records != nil {
		t.Fatalf("keep limit 5 over 10 records: records=%v count=%d", records != nil, count)
	}
	if len(chunks) != len(want) {
		t.Fatalf("chunk count %d, want %d", len(chunks), len(want))
	}
	for i := range chunks {
		if string(chunks[i]) != string(want[i]) {
			t.Fatalf("chunk %d bytes differ from a builder that keeps nothing", i)
		}
		if digests[i] != s.ChunkDigests[i] {
			t.Fatalf("chunk %d digest differs from manifest", i)
		}
	}
	// Under the limit the records are retained.
	small := NewChunkBuilder(4, 16)
	for _, r := range ledger {
		small.Add(r.Key, r.Value)
	}
	_, _, kept, _ := small.Finish()
	if len(kept) != 10 {
		t.Fatalf("keep limit 16 over 10 records retained %d", len(kept))
	}
	if kept[0].Key != ledger[0].Key {
		t.Fatal("retained records corrupted")
	}
}
