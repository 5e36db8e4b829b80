package crypto

import (
	"testing"

	"thunderbolt/internal/types"
)

func schemes() []Scheme { return []Scheme{Ed25519Scheme{}, InsecureScheme{}} }

func TestSignVerifyRoundTrip(t *testing.T) {
	for _, s := range schemes() {
		t.Run(s.Name(), func(t *testing.T) {
			signers, verifier, err := s.Committee(4, 1)
			if err != nil {
				t.Fatal(err)
			}
			d := types.HashBytes([]byte("block"))
			for _, sg := range signers {
				sig := sg.Sign(d)
				if !verifier.Verify(sg.ID(), d, sig) {
					t.Fatalf("replica %d: valid signature rejected", sg.ID())
				}
				// Wrong digest must fail.
				if verifier.Verify(sg.ID(), types.HashBytes([]byte("other")), sig) {
					t.Fatal("signature accepted for wrong digest")
				}
				// Wrong signer must fail.
				other := (sg.ID() + 1) % 4
				if verifier.Verify(other, d, sig) {
					t.Fatal("signature accepted for wrong signer")
				}
			}
		})
	}
}

func TestCommitteeDeterministicBySeed(t *testing.T) {
	for _, s := range schemes() {
		t.Run(s.Name(), func(t *testing.T) {
			s1, _, _ := s.Committee(4, 42)
			s2, _, _ := s.Committee(4, 42)
			d := types.HashBytes([]byte("x"))
			if string(s1[2].Sign(d)) != string(s2[2].Sign(d)) {
				t.Fatal("same seed produced different keys")
			}
			s3, _, _ := s.Committee(4, 43)
			if string(s1[2].Sign(d)) == string(s3[2].Sign(d)) {
				t.Fatal("different seeds produced identical keys")
			}
		})
	}
}

func TestCommitteeRejectsNonPositive(t *testing.T) {
	for _, s := range schemes() {
		if _, _, err := s.Committee(0, 1); err == nil {
			t.Fatalf("%s: expected error for n=0", s.Name())
		}
	}
}

func TestQuorumSize(t *testing.T) {
	cases := []struct{ n, q, f int }{
		{4, 3, 1}, {7, 5, 2}, {10, 7, 3}, {16, 11, 5}, {64, 43, 21}, {1, 1, 0},
	}
	for _, c := range cases {
		if QuorumSize(c.n) != c.q {
			t.Errorf("QuorumSize(%d)=%d want %d", c.n, QuorumSize(c.n), c.q)
		}
		if FaultBound(c.n) != c.f {
			t.Errorf("FaultBound(%d)=%d want %d", c.n, FaultBound(c.n), c.f)
		}
	}
}

func TestQuorumCollectorEmitsOnce(t *testing.T) {
	signers, verifier, _ := InsecureScheme{}.Committee(4, 1)
	d := types.HashBytes([]byte("blk"))
	q := NewQuorumCollector(4, verifier, d, 1, 2, 3)

	if c, err := q.Add(0, signers[0].Sign(d)); err != nil || c != nil {
		t.Fatalf("vote 1: cert=%v err=%v", c, err)
	}
	// Duplicate is ignored.
	if c, err := q.Add(0, signers[0].Sign(d)); err != nil || c != nil {
		t.Fatalf("duplicate vote: cert=%v err=%v", c, err)
	}
	if q.Count() != 1 {
		t.Fatalf("count=%d want 1", q.Count())
	}
	if c, _ := q.Add(1, signers[1].Sign(d)); c != nil {
		t.Fatal("cert emitted below quorum")
	}
	cert, err := q.Add(2, signers[2].Sign(d))
	if err != nil || cert == nil {
		t.Fatalf("quorum vote: cert=%v err=%v", cert, err)
	}
	if cert.Round != 2 || cert.Proposer != 3 || cert.Epoch != 1 {
		t.Fatalf("certificate fields wrong: %+v", cert)
	}
	if len(cert.Sigs) != 3 {
		t.Fatalf("certificate carries %d sigs, want 3", len(cert.Sigs))
	}
	// A fourth vote after emission must not emit again.
	if c, _ := q.Add(3, signers[3].Sign(d)); c != nil {
		t.Fatal("certificate emitted twice")
	}
	if err := VerifyCertificate(cert, 4, verifier); err != nil {
		t.Fatalf("emitted certificate does not verify: %v", err)
	}
}

func TestQuorumCollectorRejectsBadVotes(t *testing.T) {
	signers, verifier, _ := Ed25519Scheme{}.Committee(4, 1)
	d := types.HashBytes([]byte("blk"))
	q := NewQuorumCollector(4, verifier, d, 0, 1, 0)
	if _, err := q.Add(1, []byte("garbage")); err != ErrBadSignature {
		t.Fatalf("want ErrBadSignature, got %v", err)
	}
	// Signature by the wrong replica.
	if _, err := q.Add(1, signers[2].Sign(d)); err != ErrBadSignature {
		t.Fatalf("want ErrBadSignature for mismatched signer, got %v", err)
	}
	if _, err := q.Add(9, signers[0].Sign(d)); err == nil {
		t.Fatal("out-of-committee vote accepted")
	}
	if q.Count() != 0 {
		t.Fatalf("bad votes counted: %d", q.Count())
	}
}

func TestVerifyCertificateRejectsForgery(t *testing.T) {
	signers, verifier, _ := InsecureScheme{}.Committee(4, 1)
	d := types.HashBytes([]byte("blk"))
	cert := &types.Certificate{BlockDigest: d, Round: 1}
	// Too few signatures.
	cert.Sigs = []types.Signature{{Signer: 0, Sig: signers[0].Sign(d)}}
	if err := VerifyCertificate(cert, 4, verifier); err == nil {
		t.Fatal("undersized certificate accepted")
	}
	// Duplicated signer must not count twice.
	cert.Sigs = []types.Signature{
		{Signer: 0, Sig: signers[0].Sign(d)},
		{Signer: 0, Sig: signers[0].Sign(d)},
		{Signer: 1, Sig: signers[1].Sign(d)},
	}
	if err := VerifyCertificate(cert, 4, verifier); err == nil {
		t.Fatal("certificate with duplicate signer accepted")
	}
	// Invalid signature must not count.
	cert.Sigs = []types.Signature{
		{Signer: 0, Sig: signers[0].Sign(d)},
		{Signer: 1, Sig: []byte("bad")},
		{Signer: 2, Sig: signers[2].Sign(d)},
	}
	if err := VerifyCertificate(cert, 4, verifier); err == nil {
		t.Fatal("certificate with invalid signature accepted")
	}
}

func TestSchemeByName(t *testing.T) {
	if s, err := SchemeByName(""); err != nil || s.Name() != "ed25519" {
		t.Fatal("default scheme should be ed25519")
	}
	if s, err := SchemeByName("insecure"); err != nil || s.Name() != "insecure" {
		t.Fatal("insecure scheme not resolved")
	}
	if _, err := SchemeByName("rsa"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestVerifyBatchMatchesSequentialVerify(t *testing.T) {
	for _, scheme := range []Scheme{Ed25519Scheme{}, InsecureScheme{}} {
		signers, verifier, err := scheme.Committee(8, 3)
		if err != nil {
			t.Fatal(err)
		}
		bv, ok := verifier.(BatchVerifier)
		if !ok {
			if scheme.Name() == "insecure" {
				continue // uses verifyBatch's sequential fallback by design
			}
			t.Fatalf("%s verifier does not implement BatchVerifier", scheme.Name())
		}
		d := types.HashBytes([]byte("batch-block"))
		ids := []types.ReplicaID{0, 3, 5, 6, 7, 200}
		sigs := [][]byte{
			signers[0].Sign(d),
			signers[3].Sign(d),
			[]byte("garbage"),
			signers[7].Sign(d), // wrong signer for slot 6
			signers[7].Sign(d),
			signers[1].Sign(d), // out-of-committee replica id
		}
		got := bv.VerifyBatch(ids, d, sigs)
		for i := range ids {
			want := verifier.Verify(ids[i], d, sigs[i])
			if got[i] != want {
				t.Fatalf("%s: batch verdict %d = %v, sequential = %v", scheme.Name(), i, got[i], want)
			}
		}
		want := []bool{true, true, false, false, true, false}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: verdicts %v, want %v", scheme.Name(), got, want)
			}
		}
	}
}

func TestCachingVerifierNeverAdmitsForgery(t *testing.T) {
	signers, verifier, _ := Ed25519Scheme{}.Committee(4, 5)
	cv := NewCachingVerifier(verifier, 4)
	d := types.HashBytes([]byte("blk"))
	good := signers[1].Sign(d)
	if !cv.Verify(1, d, good) || !cv.Verify(1, d, good) {
		t.Fatal("valid signature rejected")
	}
	// Same signer and digest, different bytes: the memo must miss.
	forged := append([]byte(nil), good...)
	forged[0] ^= 0xff
	if cv.Verify(1, d, forged) {
		t.Fatal("forged signature admitted")
	}
	// Same bytes, different digest: the memo must miss.
	d2 := types.HashBytes([]byte("blk2"))
	if cv.Verify(1, d2, good) {
		t.Fatal("signature admitted for wrong digest")
	}
	// Batch path mixes hits and misses.
	got := cv.VerifyBatch(
		[]types.ReplicaID{1, 2, 1},
		d,
		[][]byte{good, signers[2].Sign(d), forged},
	)
	want := []bool{true, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch verdicts %v, want %v", got, want)
		}
	}
}

// TestCachingVerifierOwnSignature: the memo holds only what it
// verified, so a certificate carrying the replica's own valid
// signature is checked through the scheme like any other — every
// signature reaches it once — and one carrying a forgery under the
// replica's id is refused.
func TestCachingVerifierOwnSignature(t *testing.T) {
	signers, verifier, _ := Ed25519Scheme{}.Committee(4, 5)
	calls := 0
	cv := NewCachingVerifier(verifierFunc(func(r types.ReplicaID, d types.Digest, sig []byte) bool {
		calls++
		return verifier.Verify(r, d, sig)
	}), 0)
	d := types.HashBytes([]byte("blk"))
	cert := &types.Certificate{BlockDigest: d, Round: 1, Sigs: []types.Signature{
		{Signer: 0, Sig: signers[0].Sign(d)},
		{Signer: 1, Sig: signers[1].Sign(d)},
		{Signer: 2, Sig: signers[2].Sign(d)},
	}}
	if err := VerifyCertificate(cert, 4, cv); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("%d signatures reached the scheme, want 3: the memo starts empty", calls)
	}
	cert.Sigs[0].Sig = []byte("garbage")
	if err := VerifyCertificate(cert, 4, cv); err == nil {
		t.Fatal("certificate with a forged own signature accepted")
	}
}

type verifierFunc func(types.ReplicaID, types.Digest, []byte) bool

func (f verifierFunc) Verify(r types.ReplicaID, d types.Digest, sig []byte) bool {
	return f(r, d, sig)
}

func TestCachingVerifierEvictsAtCapacity(t *testing.T) {
	signers, verifier, _ := InsecureScheme{}.Committee(4, 9)
	cv := NewCachingVerifier(verifier, 2)
	for i := 0; i < 10; i++ {
		d := types.HashBytes([]byte{byte(i)})
		if !cv.Verify(0, d, signers[0].Sign(d)) {
			t.Fatalf("signature %d rejected", i)
		}
	}
	if len(cv.seen) > 2 || len(cv.order) > 2 {
		t.Fatalf("memo exceeded capacity: %d entries, %d queued", len(cv.seen), len(cv.order))
	}
	// Evicted entries still verify (through the inner verifier).
	d0 := types.HashBytes([]byte{0})
	if !cv.Verify(0, d0, signers[0].Sign(d0)) {
		t.Fatal("evicted signature no longer verifies")
	}
}

// bundledCerts has every one of the first quorum replicas seal votes
// for k slots into one bundle — one signature over the Merkle root of
// the k block digests — and assembles, per slot, the certificate a
// replica builds from such votes: each signer's bundle signature with
// the slot's path.
func bundledCerts(signers []Signer, n, k int) (certs []*types.Certificate, roots int) {
	digests := make([]types.Digest, k)
	for i := range digests {
		digests[i] = types.HashBytes([]byte{byte(i), 'b', 'l', 'k'})
		certs = append(certs, &types.Certificate{BlockDigest: digests[i], Round: 1, Proposer: types.ReplicaID(i % n)})
	}
	for id := 0; id < QuorumSize(n); id++ {
		// Each signer bundles the slots in its own order: different
		// trees, different roots, different paths for one slot.
		order := append(append([]types.Digest(nil), digests[id%k:]...), digests[:id%k]...)
		var tree types.MerkleTree
		sig := signers[id].Sign(tree.Build(order))
		roots++
		for i := range order {
			slot := (i + id%k) % k
			certs[slot].Sigs = append(certs[slot].Sigs, types.Signature{
				Signer: types.ReplicaID(id), Sig: sig, Path: tree.Path(i),
			})
		}
	}
	return certs, roots
}

// TestVerifyCertificateBundledVotes: certificates assembled from
// bundled votes verify whole under both schemes — by a verifier that
// saw none of the bundles — and a memo keyed by root charges one
// verification per signer for all k slots its bundle covered.
func TestVerifyCertificateBundledVotes(t *testing.T) {
	for _, scheme := range []Scheme{Ed25519Scheme{}, InsecureScheme{}} {
		for _, k := range []int{2, 3, 5, 8} {
			signers, verifier, _ := scheme.Committee(4, 11)
			certs, roots := bundledCerts(signers, 4, k)
			calls := 0
			cv := NewCachingVerifier(verifierFunc(func(r types.ReplicaID, d types.Digest, sig []byte) bool {
				calls++
				return verifier.Verify(r, d, sig)
			}), 0)
			for slot, c := range certs {
				if len(c.Sigs[0].Path.Sibs) == 0 {
					t.Fatalf("fixture: slot %d carries a plain signature", slot)
				}
				if err := VerifyCertificate(c, 4, verifier); err != nil {
					t.Fatalf("%s k=%d slot %d: %v", scheme.Name(), k, slot, err)
				}
				if err := VerifyCertificate(c, 4, cv); err != nil {
					t.Fatalf("%s k=%d slot %d (memo): %v", scheme.Name(), k, slot, err)
				}
			}
			if calls != roots {
				t.Fatalf("%s k=%d: %d verifications for %d certificates over %d bundle roots, want one per root", scheme.Name(), k, calls, len(certs), roots)
			}
		}
	}
}

// TestVerifyCertificateRejectsBadPaths: a signature counts only along
// the path it was sealed with, for the digest it was sealed over.
func TestVerifyCertificateRejectsBadPaths(t *testing.T) {
	signers, verifier, _ := InsecureScheme{}.Committee(4, 11)
	fresh := func() *types.Certificate { c, _ := bundledCerts(signers, 4, 4); return c[1] }
	if err := VerifyCertificate(fresh(), 4, verifier); err != nil {
		t.Fatal(err)
	}
	for name, tamper := range map[string]func(c *types.Certificate){
		"flipped sibling":   func(c *types.Certificate) { c.Sigs[0].Path.Sibs[0][3] ^= 1 },
		"flipped direction": func(c *types.Certificate) { c.Sigs[1].Path.Right ^= 1 },
		"path dropped":      func(c *types.Certificate) { c.Sigs[2].Path = types.MerklePath{} },
		"path truncated":    func(c *types.Certificate) { c.Sigs[0].Path.Sibs = c.Sigs[0].Path.Sibs[:1] },
		"other digest":      func(c *types.Certificate) { c.BlockDigest[0] ^= 1 },
	} {
		c := fresh()
		for i := range c.Sigs { // the fixture's paths share a backing array
			c.Sigs[i].Path.Sibs = append([]types.Digest(nil), c.Sigs[i].Path.Sibs...)
		}
		tamper(c)
		if err := VerifyCertificate(c, 4, verifier); err == nil {
			t.Fatalf("%s: certificate accepted", name)
		}
	}
	// A bundle root offered as a block digest under the plain signature:
	// the signature verifies over it, and that is all — what a replica
	// then needs is a block hashing to the root (types/merkle.go's tag).
	// Mixed certificates are fine: one plain vote, two bundled.
	c := fresh()
	c.Sigs[0] = types.Signature{Signer: 0, Sig: signers[0].Sign(c.BlockDigest)}
	if err := VerifyCertificate(c, 4, verifier); err != nil {
		t.Fatalf("certificate mixing plain and bundled signatures: %v", err)
	}
}

// TestCollectorCertificateStillVerifies: a certificate a QuorumCollector
// builds from signatures over the raw block digest — what fixtures, the
// wire drivers and benchmark/layers.go's certify produce — is a
// certificate of bundles of one, byte for byte what it always was.
func TestCollectorCertificateStillVerifies(t *testing.T) {
	for _, scheme := range []Scheme{Ed25519Scheme{}, InsecureScheme{}} {
		signers, verifier, _ := scheme.Committee(4, 3)
		d := types.HashBytes([]byte("layers"))
		q := NewQuorumCollector(4, verifier, d, 0, 7, 0)
		var cert *types.Certificate
		for i := 0; cert == nil; i++ {
			cert, _ = q.Add(types.ReplicaID(i), signers[i].Sign(d))
		}
		for _, s := range cert.Sigs {
			if len(s.Path.Sibs) != 0 || !verifier.Verify(s.Signer, d, s.Sig) {
				t.Fatalf("%s: collector signature is not a plain signature over the digest", scheme.Name())
			}
		}
		if err := VerifyCertificate(cert, 4, NewCachingVerifier(verifier, 0)); err != nil {
			t.Fatalf("%s: %v", scheme.Name(), err)
		}
	}
}
