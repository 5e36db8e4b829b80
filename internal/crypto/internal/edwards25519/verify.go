package edwards25519

import (
	"bytes"
	"crypto/sha512"
)

// VerifyKey is an Ed25519 public key prepared for repeated
// verification: alongside its encoding it holds a radix-16 comb of −A,
// the same 32×8 affine layout as the base point's table, so that a
// verification needs no key decompression and no doublings beyond
// four. The comb is about 30 KiB and costs about a millisecond to
// build; it pays for itself after a few dozen verifications, which is
// why it suits a fixed committee key and not a one-off check.
type VerifyKey struct {
	a     [32]byte              // the key as encoded; it enters the challenge hash
	valid bool                  // a decodes to a curve point
	comb  [32]affineLookupTable // comb[i] holds 1..8 × 256^i·(−A)
}

// NewVerifyKey decodes pub and builds its comb. Like
// crypto/ed25519.Verify it panics unless pub is 32 bytes long; a key
// that is not a curve point rejects every signature.
func NewVerifyKey(pub []byte) *VerifyKey {
	if len(pub) != 32 {
		panic("edwards25519: bad public key length")
	}
	k := new(VerifyKey)
	copy(k.a[:], pub)
	var p Point
	if _, err := p.SetBytes(pub); err != nil {
		return k
	}
	k.valid = true
	p.Negate(&p)
	for i := range k.comb {
		k.comb[i].FromP3(&p)
		for j := 0; j < 8; j++ {
			p.Add(&p, &p)
		}
	}
	return k
}

// Verify reports whether sig is a valid signature of msg under k, with
// crypto/ed25519.Verify's verdict on every input: sig is 64 bytes with
// the top three bits of sig[63] clear, S = sig[32:] is canonical, and
// encode([S]B − [c]A) equals R = sig[:32], where
// c = SHA-512(R ‖ A ‖ msg) mod L.
//
// Its running time depends on its inputs. That is safe because every
// one of them — key, message, signature — is public. Messages of up to
// 64 bytes are hashed from a stack buffer, so verifying a digest
// allocates nothing.
func (k *VerifyKey) Verify(msg, sig []byte) bool {
	if !k.valid || len(sig) != 64 || sig[63]&224 != 0 {
		return false
	}
	var buf [128]byte
	h := sha512.Sum512(append(append(append(buf[:0], sig[:32]...), k.a[:]...), msg...))
	var c, s Scalar
	c.SetUniformBytes(h[:]) // 64 bytes: cannot fail
	if _, err := s.SetCanonicalBytes(sig[32:]); err != nil {
		return false
	}
	var r Point
	r.varTimeCombMult(&s, basepointTable(), &c, &k.comb)
	var enc [32]byte
	return bytes.Equal(r.bytes(&enc), sig[:32])
}

// varTimeCombMult sets v = s·P + c·Q, where pc and qc are the combs of P
// and Q, and returns v. It follows ScalarBaseMult's schedule for both
// points at once — the odd radix-16 digits, four doublings, then the
// even digits — so it costs at most 128 mixed additions and 4
// doublings, and skips the additions of zero digits.
func (v *Point) varTimeCombMult(s *Scalar, pc *[32]affineLookupTable, c *Scalar, qc *[32]affineLookupTable) *Point {
	sd, cd := s.signedRadix16(), c.signedRadix16()
	var t1 projP1xP1
	var t2 projP2
	v.Set(identity)
	for i := 1; i < 64; i += 2 {
		v.addDigit(&pc[i/2], sd[i], &t1)
		v.addDigit(&qc[i/2], cd[i], &t1)
	}
	t2.FromP3(v)
	for j := 0; j < 3; j++ {
		t2.FromP1xP1(t1.Double(&t2))
	}
	v.fromP1xP1(t1.Double(&t2))
	for i := 0; i < 64; i += 2 {
		v.addDigit(&pc[i/2], sd[i], &t1)
		v.addDigit(&qc[i/2], cd[i], &t1)
	}
	return v
}

// addDigit adds d·P to v, where t holds P, 2P, …, 8P and |d| ≤ 8. It
// branches and indexes on d, so d must be public.
func (v *Point) addDigit(t *affineLookupTable, d int8, tmp *projP1xP1) {
	switch {
	case d > 0:
		v.fromP1xP1(tmp.AddAffine(v, &t.points[d-1]))
	case d < 0:
		v.fromP1xP1(tmp.SubAffine(v, &t.points[-d-1]))
	}
}
