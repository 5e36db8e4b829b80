package types

import (
	"testing"
)

// testLedger is a three-record ledger in ascending key order.
func testLedger() []RWRecord {
	return []RWRecord{
		{Key: "c:acct000001", Value: Value("100")},
		{Key: "c:acct000002", Value: Value("250")},
		{Key: "s:acct000001", Value: Value("7")},
	}
}

// chunkInto cuts recs (ascending keys) into chunks of size records,
// sets s's manifest to match, and returns the chunk payloads.
func chunkInto(s *Snapshot, recs []RWRecord, size int) [][]byte {
	cb := NewChunkBuilder(size, -1)
	for _, r := range recs {
		cb.Add(r.Key, r.Value)
	}
	chunks, digests, _, count := cb.Finish()
	s.ChunkSize, s.RecordCount, s.ChunkDigests = uint32(size), uint64(count), digests
	s.digOK = false
	return chunks
}

func testSnapshot() *Snapshot {
	s := &Snapshot{
		Epoch: 3, N: 4, EndRound: 41, Commits: 1234,
		Shifts:      []ReplicaID{0, 2},
		DedupWindow: 128,
		Sessions: []ClientSession{
			{Client: 1, Floor: 17, Bits: []uint64{0b1010, 0}},
			{Client: 9, Floor: 3, Bits: []uint64{0, 1 << 63}},
		},
	}
	chunkInto(s, testLedger(), 2) // three records → two chunks
	return s
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := testSnapshot()
	b, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if got.Epoch != s.Epoch || got.N != s.N ||
		got.EndRound != s.EndRound || got.Commits != s.Commits ||
		got.DedupWindow != s.DedupWindow {
		t.Fatalf("header mismatch: %+v vs %+v", got, s)
	}
	if got.ChunkSize != s.ChunkSize || got.RecordCount != s.RecordCount ||
		len(got.ChunkDigests) != len(s.ChunkDigests) ||
		len(got.Sessions) != len(s.Sessions) {
		t.Fatalf("body length mismatch")
	}
	if len(got.Shifts) != len(s.Shifts) || got.Shifts[0] != s.Shifts[0] || got.Shifts[1] != s.Shifts[1] {
		t.Fatalf("shifts mismatch: %v vs %v", got.Shifts, s.Shifts)
	}
	for i := range s.ChunkDigests {
		if got.ChunkDigests[i] != s.ChunkDigests[i] {
			t.Fatalf("chunk digest %d mismatch", i)
		}
	}
	for i := range s.Sessions {
		if got.Sessions[i].Client != s.Sessions[i].Client || got.Sessions[i].Floor != s.Sessions[i].Floor {
			t.Fatalf("sessions[%d] mismatch", i)
		}
		for j := range s.Sessions[i].Bits {
			if got.Sessions[i].Bits[j] != s.Sessions[i].Bits[j] {
				t.Fatalf("sessions[%d].bits[%d] mismatch", i, j)
			}
		}
	}
	if got.Digest() != s.Digest() {
		t.Fatal("digest not stable across encode/decode")
	}
	if !got.Canonical() {
		t.Fatal("round-tripped snapshot not canonical")
	}
}

func TestSnapshotDigestBindsContent(t *testing.T) {
	base := testSnapshot().Digest()
	mutations := []func(*Snapshot){
		func(s *Snapshot) { s.Epoch++ },
		func(s *Snapshot) { s.N++ },
		func(s *Snapshot) { s.EndRound++ },
		func(s *Snapshot) { s.Shifts[1] = 3 },
		func(s *Snapshot) { s.Shifts = s.Shifts[:1] },
		func(s *Snapshot) { s.Commits++ },
		// The digest covers the manifest, not the raw records, so a
		// ledger edit surfaces through the rebuilt chunk digests.
		func(s *Snapshot) {
			recs := testLedger()
			recs[0].Value = Value("999")
			chunkInto(s, recs, int(s.ChunkSize))
		},
		func(s *Snapshot) { s.ChunkSize *= 2 },
		func(s *Snapshot) { s.RecordCount++ },
		func(s *Snapshot) { s.ChunkDigests[0][0] ^= 1 },
		func(s *Snapshot) { s.ChunkDigests[0], s.ChunkDigests[1] = s.ChunkDigests[1], s.ChunkDigests[0] },
		func(s *Snapshot) { s.DedupWindow *= 2 },
		func(s *Snapshot) { s.Sessions[0].Floor++ },
		func(s *Snapshot) { s.Sessions[1].Bits[1] ^= 1 },
	}
	for i, mut := range mutations {
		s := testSnapshot()
		mut(s)
		if s.Digest() == base {
			t.Errorf("mutation %d did not change the digest", i)
		}
	}
}

func TestSnapshotCanonical(t *testing.T) {
	s := testSnapshot()
	if !s.Canonical() {
		t.Fatal("well-formed snapshot should be canonical")
	}
	unsorted := testSnapshot()
	unsorted.Sessions[0], unsorted.Sessions[1] = unsorted.Sessions[1], unsorted.Sessions[0]
	if unsorted.Canonical() {
		t.Fatal("unsorted sessions accepted as canonical")
	}
	wrongBits := testSnapshot()
	wrongBits.Sessions[0].Bits = wrongBits.Sessions[0].Bits[:1]
	if wrongBits.Canonical() {
		t.Fatal("bitmap shorter than the window accepted as canonical")
	}
	badWindow := testSnapshot()
	badWindow.DedupWindow = 100 // not a multiple of 64
	if badWindow.Canonical() {
		t.Fatal("non-multiple-of-64 window accepted as canonical")
	}
	unsortedShifts := testSnapshot()
	unsortedShifts.Shifts = []ReplicaID{2, 0}
	if unsortedShifts.Canonical() {
		t.Fatal("unsorted shift proposers accepted as canonical")
	}
	repeatedShift := testSnapshot()
	repeatedShift.Shifts = []ReplicaID{2, 2}
	if repeatedShift.Canonical() {
		t.Fatal("a proposer's shift counted twice accepted as canonical")
	}
	outsideShift := testSnapshot()
	outsideShift.Shifts = []ReplicaID{0, 4} // N = 4
	if outsideShift.Canonical() {
		t.Fatal("shift proposer outside the committee accepted as canonical")
	}
	noChunk := testSnapshot()
	noChunk.ChunkSize = 0
	if noChunk.Canonical() {
		t.Fatal("zero chunk size accepted as canonical")
	}
	wrongChunks := testSnapshot()
	wrongChunks.ChunkDigests = wrongChunks.ChunkDigests[:1]
	if wrongChunks.Canonical() {
		t.Fatal("chunk count disagreeing with record count accepted as canonical")
	}
}

func TestSnapshotRejectsTruncation(t *testing.T) {
	b, _ := testSnapshot().MarshalBinary()
	for _, cut := range []int{1, len(b) / 2, len(b) - 1} {
		var s Snapshot
		if err := s.UnmarshalBinary(b[:cut]); err == nil {
			t.Errorf("truncation at %d decoded cleanly", cut)
		}
	}
}
