package crypto

import (
	"crypto/ed25519"
	"fmt"
	"testing"

	"thunderbolt/internal/types"
)

// benchCert builds a quorum certificate over one digest for a
// committee of n, returning the certificate and its verifier.
func benchCert(b *testing.B, scheme Scheme, n int) (*types.Certificate, Verifier) {
	b.Helper()
	signers, ver, err := scheme.Committee(n, 7)
	if err != nil {
		b.Fatal(err)
	}
	d := types.HashBytes([]byte("bench-block"))
	cert := &types.Certificate{BlockDigest: d, Epoch: 1, Round: 9, Proposer: 0}
	for i := 0; i < QuorumSize(n); i++ {
		cert.Sigs = append(cert.Sigs, types.Signature{
			Signer: types.ReplicaID(i), Sig: signers[i].Sign(d),
		})
	}
	return cert, ver
}

// BenchmarkVerifyCertificateAfterVotes measures the proposer path: a
// node that already verified each signature as an incoming vote
// re-validates the certificate it assembled. With the caching
// verifier this is pure memo lookups.
func BenchmarkVerifyCertificateAfterVotes(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("ed25519/n=%d", n), func(b *testing.B) {
			cert, ver := benchCert(b, Ed25519Scheme{}, n)
			cv := NewCachingVerifier(ver, 0)
			for _, s := range cert.Sigs {
				if !cv.Verify(s.Signer, cert.BlockDigest, s.Sig) {
					b.Fatal("vote failed verification")
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := VerifyCertificate(cert, n, cv); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVerifyCertificate measures full certificate validation —
// the per-certificate receive cost on every replica — across schemes
// and committee sizes.
func BenchmarkVerifyCertificate(b *testing.B) {
	for _, tc := range []struct {
		scheme Scheme
		n      int
	}{
		{Ed25519Scheme{}, 4},
		{Ed25519Scheme{}, 16},
		{Ed25519Scheme{}, 64},
		{InsecureScheme{}, 16},
	} {
		b.Run(fmt.Sprintf("%s/n=%d", tc.scheme.Name(), tc.n), func(b *testing.B) {
			cert, ver := benchCert(b, tc.scheme, tc.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := VerifyCertificate(cert, tc.n, ver); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEdVerify is one signature check through the ed25519
// scheme's verifier, its signer's comb already built — the per-bundle
// cost a replica pays on the vote path. BenchmarkEdVerifyStdlib is the
// same check through crypto/ed25519.Verify.
func BenchmarkEdVerify(b *testing.B) {
	signers, v, err := Ed25519Scheme{}.Committee(4, 7)
	if err != nil {
		b.Fatal(err)
	}
	d := types.HashBytes([]byte("bench-vote"))
	sig := signers[1].Sign(d)
	if !v.Verify(1, d, sig) {
		b.Fatal("valid signature rejected")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !v.Verify(1, d, sig) {
			b.Fatal("valid signature rejected")
		}
	}
}

func BenchmarkEdVerifyStdlib(b *testing.B) {
	signers, v, err := Ed25519Scheme{}.Committee(4, 7)
	if err != nil {
		b.Fatal(err)
	}
	pub := v.(*edVerifier).keys[1].pub
	d := types.HashBytes([]byte("bench-vote"))
	sig := signers[1].Sign(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !ed25519.Verify(pub, d[:], sig) {
			b.Fatal("valid signature rejected")
		}
	}
}
