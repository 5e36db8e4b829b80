package types

import (
	"bytes"
	"fmt"
	"sort"
)

// Snapshot is the state-transfer unit: the canonical committed state
// of the cluster at one deterministic position (Epoch, EndRound) of the
// committed sequence. Every replica captures one at the start of each
// epoch it enters by reconfiguration (EndRound 0) and at fixed
// committed-leader-round boundaries inside the epoch. Every honest
// replica executes the same committed sequence, so every honest
// replica captures a bit-identical snapshot for the same position —
// which is what lets a stranded replica authenticate one by collecting
// f+1 matching digests from independent peers instead of trusting any
// single server.
//
// A replica that missed history beyond the retention horizon, or a
// whole reconfiguration (crashed or partitioned across it), installs
// the snapshot as one batched state application and re-enters Epoch at
// EndRound: peers discarded the previous DAG at the reconfiguration
// and prune rounds below the horizon, so round-by-round replay of the
// missed history is impossible by design (see the GC/epoch recovery
// contract in the README "Recovery" section).
type Snapshot struct {
	// Epoch is the epoch the captured wave sequence belongs to and the
	// epoch this snapshot admits a replica into. The committee itself
	// is static; per-epoch shard and leader assignments are derived
	// deterministically from Epoch and N.
	Epoch Epoch
	// N is the committee size the snapshot was captured under, binding
	// the digest to the configuration.
	N uint32

	// EndRound is the round of the last slot the captured wave sequence
	// committed in Epoch, a round whose slots were all decided: 0 for
	// the capture at the epoch's start, where the new DAG has ordered
	// nothing yet.
	EndRound Round

	// Shifts lists the proposers whose Shift blocks Epoch has committed
	// so far, strictly ascending. An installer restores the set instead
	// of re-deriving it from a DAG that no longer holds the early Shift
	// blocks, so it reconfigures on the same wave as its peers. Empty at
	// an epoch's start.
	Shifts []ReplicaID

	// Commits is the length of the committed-transaction sequence at
	// capture (the commit-log position the first post-snapshot commit
	// will occupy).
	Commits uint64

	// ChunkSize, RecordCount, and ChunkDigests are the chunk manifest:
	// the ledger split into fixed-size key-ordered chunks of ChunkSize
	// records each (a shorter final chunk), RecordCount records in
	// total, with ChunkDigests[i] the content digest of chunk i's
	// canonical encoding (see ChunkBuilder). The records themselves
	// never travel with the snapshot: the digest commits to the Merkle
	// fold of these digests, so the f+1 signers that authenticate the
	// manifest authenticate every chunk, and each fetched chunk then
	// verifies independently against its manifest entry (VerifyChunk).
	ChunkSize    uint32
	RecordCount  uint64
	ChunkDigests []Digest

	// DedupWindow binds the digest to the per-client nonce window the
	// sessions were built under. Like N, it is part of the committee
	// contract: an installer configured differently would diverge from
	// the committee's dedup evolution and must reject the snapshot.
	DedupWindow uint32

	// Sessions is the per-client dedup state resolved by the committed
	// prefix, in strictly ascending client order: each client's
	// applied-nonce floor plus the out-of-order window bitmap above
	// it. This replaces shipping the full applied-transaction set —
	// the snapshot's dedup payload is bounded by clients × window no
	// matter how long the chain has run.
	Sessions []ClientSession

	// dig caches the content digest (see Block.dig for the ownership
	// discipline: snapshots are immutable once built, decode resets
	// the cache).
	dig   Digest
	digOK bool
}

// ClientSession is one client's compact dedup state: every nonce ≤
// Floor is resolved, and Bits is the window bitmap over (Floor,
// Floor+window] — bit for nonce n lives at position n mod window
// (absolute addressing, so honestly built bitmaps are bit-identical
// without any rotation bookkeeping).
type ClientSession struct {
	Client uint64
	Floor  uint64
	Bits   []uint64
}

// SortDigests puts digests into the canonical strictly-ascending byte
// order builders must emit.
func SortDigests(ds []Digest) {
	sort.Slice(ds, func(i, j int) bool { return bytes.Compare(ds[i][:], ds[j][:]) < 0 })
}

// Canonical reports whether the snapshot is in canonical form: Shift
// proposers strictly ascending and inside the committee, one chunk
// digest per ChunkSize records, and sessions strictly ascending by
// client with bitmaps sized to DedupWindow. Honest builders always
// emit canonical snapshots; receivers reject anything else before
// counting it toward an install quorum, so a malformed or deliberately
// inflated copy can never masquerade as a fresh digest of the same
// logical state.
func (s *Snapshot) Canonical() bool {
	for i, p := range s.Shifts {
		if uint32(p) >= s.N || (i > 0 && s.Shifts[i-1] >= p) {
			return false
		}
	}
	if s.ChunkSize == 0 {
		return false
	}
	wantChunks := int((s.RecordCount + uint64(s.ChunkSize) - 1) / uint64(s.ChunkSize))
	if len(s.ChunkDigests) != wantChunks {
		return false
	}
	if s.DedupWindow == 0 || s.DedupWindow%64 != 0 {
		return false
	}
	words := int(s.DedupWindow / 64)
	for i, cs := range s.Sessions {
		if i > 0 && s.Sessions[i-1].Client >= cs.Client {
			return false
		}
		if len(cs.Bits) != words {
			return false
		}
	}
	return true
}

// Digest returns the canonical content address of the snapshot,
// computed once and cached. The preimage is the manifest — header,
// chunk geometry, the Merkle fold of the chunk digests, and the dedup
// state — so f+1 signatures over it authenticate every chunk.
func (s *Snapshot) Digest() Digest {
	if !s.digOK {
		e := GetEncoder()
		s.encodeHeader(e)
		e.U32(uint32(len(s.ChunkDigests)))
		e.Digest(MerkleFold(s.ChunkDigests))
		s.encodeDedup(e)
		s.dig = HashBytes(e.Sum())
		PutEncoder(e)
		s.digOK = true
	}
	return s.dig
}

func (s *Snapshot) encodeHeader(e *Encoder) {
	e.U64(uint64(s.Epoch))
	e.U32(s.N)
	e.U64(uint64(s.EndRound))
	e.U32(uint32(len(s.Shifts)))
	for _, p := range s.Shifts {
		e.U32(uint32(p))
	}
	e.U64(s.Commits)
	e.U32(s.ChunkSize)
	e.U64(s.RecordCount)
}

func (s *Snapshot) encodeDedup(e *Encoder) {
	e.U32(s.DedupWindow)
	e.U32(uint32(len(s.Sessions)))
	for _, cs := range s.Sessions {
		e.U64(cs.Client)
		e.U64(cs.Floor)
		e.U32(uint32(len(cs.Bits)))
		for _, w := range cs.Bits {
			e.U64(w)
		}
	}
}

// MarshalBinary encodes the snapshot canonically: the header, the full
// chunk digest list (fetchers need every entry), then the dedup state.
func (s *Snapshot) MarshalBinary() ([]byte, error) {
	e := GetEncoder()
	defer PutEncoder(e)
	s.encodeHeader(e)
	e.U32(uint32(len(s.ChunkDigests)))
	for _, d := range s.ChunkDigests {
		e.Digest(d)
	}
	s.encodeDedup(e)
	return e.Detach(), nil
}

// UnmarshalBinary decodes a snapshot encoded by MarshalBinary.
func (s *Snapshot) UnmarshalBinary(b []byte) error {
	s.digOK = false
	d := NewDecoder(b)
	s.Epoch = Epoch(d.U64())
	s.N = d.U32()
	s.EndRound = Round(d.U64())
	ns := d.U32()
	if d.Err() == nil && int(ns) > len(b)/4 {
		return fmt.Errorf("types: implausible shift count %d", ns)
	}
	s.Shifts = make([]ReplicaID, 0, ns)
	for i := uint32(0); i < ns && d.Err() == nil; i++ {
		s.Shifts = append(s.Shifts, ReplicaID(d.U32()))
	}
	s.Commits = d.U64()
	s.ChunkSize = d.U32()
	s.RecordCount = d.U64()
	nd := d.U32()
	if d.Err() == nil && int(nd) > len(b)/32 {
		return fmt.Errorf("types: implausible chunk count %d", nd)
	}
	s.ChunkDigests = make([]Digest, 0, nd)
	for i := uint32(0); i < nd && d.Err() == nil; i++ {
		s.ChunkDigests = append(s.ChunkDigests, d.Digest())
	}
	s.DedupWindow = d.U32()
	nc := d.U32()
	if d.Err() == nil && int(nc) > len(b)/16 {
		return fmt.Errorf("types: implausible session count %d", nc)
	}
	s.Sessions = make([]ClientSession, 0, nc)
	for i := uint32(0); i < nc && d.Err() == nil; i++ {
		cs := ClientSession{Client: d.U64(), Floor: d.U64()}
		nw := d.U32()
		if d.Err() == nil && int(nw) > len(b)/8 {
			return fmt.Errorf("types: implausible bitmap length %d", nw)
		}
		cs.Bits = make([]uint64, 0, nw)
		for j := uint32(0); j < nw && d.Err() == nil; j++ {
			cs.Bits = append(cs.Bits, d.U64())
		}
		s.Sessions = append(s.Sessions, cs)
	}
	return d.Finish()
}
