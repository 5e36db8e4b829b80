package crypto

import (
	"errors"
	"fmt"
	"sync"

	"thunderbolt/internal/types"
)

// QuorumSize returns 2f+1 for a committee of n = 3f+1 replicas. For n
// not of the form 3f+1 it returns the smallest count guaranteeing
// intersection in an honest majority: n - f where f = (n-1)/3.
func QuorumSize(n int) int {
	f := (n - 1) / 3
	return n - f
}

// FaultBound returns f, the maximum number of Byzantine replicas a
// committee of n tolerates.
func FaultBound(n int) int { return (n - 1) / 3 }

// QuorumCollector accumulates signatures over one block digest until a
// 2f+1 quorum forms, then emits a certificate, verifying every vote it
// is handed: plain signatures over the digest itself, which is what a
// vote that travels alone carries. Fixtures, wire-level test drivers
// and the benchmark build certificates with it; a replica collects per
// (round, proposer) slot instead (node/votes.go), because votes reach
// it bundled, and before it knows which digest the slot will certify.
// Not safe for concurrent use.
type QuorumCollector struct {
	n        int
	block    types.Digest
	epoch    types.Epoch
	round    types.Round
	proposer types.ReplicaID
	verifier Verifier
	sigs     map[types.ReplicaID][]byte
	done     bool
}

// NewQuorumCollector starts collecting signatures for the block with
// the given identity fields in a committee of n replicas.
func NewQuorumCollector(n int, v Verifier, block types.Digest, epoch types.Epoch, round types.Round, proposer types.ReplicaID) *QuorumCollector {
	return &QuorumCollector{
		n: n, block: block, epoch: epoch, round: round, proposer: proposer,
		verifier: v, sigs: make(map[types.ReplicaID][]byte, QuorumSize(n)),
	}
}

// ErrBadSignature reports a vote that failed verification.
var ErrBadSignature = errors.New("crypto: signature verification failed")

// Add records replica r's signature. It returns a certificate exactly
// once: on the call that completes the quorum. Duplicate votes are
// ignored; invalid votes return ErrBadSignature.
func (q *QuorumCollector) Add(r types.ReplicaID, sig []byte) (*types.Certificate, error) {
	if int(r) >= q.n {
		return nil, fmt.Errorf("crypto: vote from out-of-committee replica %d", r)
	}
	if _, dup := q.sigs[r]; dup {
		return nil, nil
	}
	if !q.verifier.Verify(r, q.block, sig) {
		return nil, ErrBadSignature
	}
	// The signature is retained as handed in: every caller passes an
	// owned slice (a fresh local signature, or bytes of a delivered
	// message buffer the transport hands over), so no defensive copy.
	q.sigs[r] = sig
	if q.done || len(q.sigs) < QuorumSize(q.n) {
		return nil, nil
	}
	q.done = true
	cert := &types.Certificate{
		BlockDigest: q.block, Epoch: q.epoch, Round: q.round, Proposer: q.proposer,
		Sigs: make([]types.Signature, 0, len(q.sigs)),
	}
	// Deterministic signer order keeps certificates comparable in tests.
	for id := types.ReplicaID(0); int(id) < q.n; id++ {
		if s, ok := q.sigs[id]; ok {
			cert.Sigs = append(cert.Sigs, types.Signature{Signer: id, Sig: s})
		}
	}
	return cert, nil
}

// Count returns the number of valid votes collected so far.
func (q *QuorumCollector) Count() int { return len(q.sigs) }

// VerifyCertificate checks that cert carries 2f+1 valid signatures
// from distinct committee members vouching for its block digest. A
// signature vouches through its path: it must verify over the root the
// path leads to from the digest — the digest itself for an empty path
// (a vote that travelled alone, and every certificate a QuorumCollector
// builds), the voter's bundle root otherwise. Signatures over the
// digest itself go through the verifier's batch path when it offers one
// (BatchVerifier), which is where the ed25519 scheme parallelizes the
// per-vertex quorum check; one with a path is checked against its own
// root, which a CachingVerifier remembers — the bundle's other slots
// carry the same signature over the same root and cost it a lookup.
func VerifyCertificate(cert *types.Certificate, n int, v Verifier) error {
	if len(cert.Sigs) < QuorumSize(n) {
		return fmt.Errorf("crypto: certificate has %d signatures, need %d", len(cert.Sigs), QuorumSize(n))
	}
	// Dedup and flatten out of a pooled scratch: this runs once per
	// received certificate — the hottest verification call site — and
	// verifiers read the slices synchronously without retaining them.
	sc := certScratchPool.Get().(*certScratch)
	if sc.seen == nil {
		sc.seen = make(map[types.ReplicaID]bool, len(cert.Sigs))
	}
	signers, sigs := sc.signers[:0], sc.sigs[:0]
	valid := 0
	for _, s := range cert.Sigs {
		if int(s.Signer) >= n || sc.seen[s.Signer] {
			continue
		}
		sc.seen[s.Signer] = true
		if len(s.Path.Sibs) > 0 {
			if v.Verify(s.Signer, s.Path.Fold(cert.BlockDigest), s.Sig) {
				valid++
			}
			continue
		}
		signers = append(signers, s.Signer)
		sigs = append(sigs, s.Sig)
	}
	if len(signers) > 0 {
		for _, ok := range verifyBatch(v, signers, cert.BlockDigest, sigs) {
			if ok {
				valid++
			}
		}
	}
	clear(sc.seen)
	sc.signers = signers
	clear(sigs) // drop signature references before pooling
	sc.sigs = sigs
	certScratchPool.Put(sc)
	if valid < QuorumSize(n) {
		return fmt.Errorf("crypto: certificate has %d valid signatures, need %d", valid, QuorumSize(n))
	}
	return nil
}

// certScratch recycles VerifyCertificate's dedup/flatten buffers.
type certScratch struct {
	seen    map[types.ReplicaID]bool
	signers []types.ReplicaID
	sigs    [][]byte
}

var certScratchPool = sync.Pool{New: func() any { return new(certScratch) }}
