package crypto

import (
	"crypto/ed25519"
	"encoding/hex"
	"math/rand"
	"sync"
	"testing"

	"thunderbolt/internal/crypto/internal/edwards25519"
	"thunderbolt/internal/types"
)

// smallOrderPoints are the encodings of the eight points of order
// dividing 8: the identity, the point of order 2, two of order 4 and
// four of order 8.
var smallOrderPoints = []string{
	"0100000000000000000000000000000000000000000000000000000000000000",
	"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
	"0000000000000000000000000000000000000000000000000000000000000000",
	"0000000000000000000000000000000000000000000000000000000000000080",
	"c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
	"c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
	"26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
	"26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
}

// groupOrder is L = 2^252 + 27742317777372353535851937790883648493,
// little-endian.
var groupOrder = [32]byte{
	0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
	0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x10,
}

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// verifyCase is one (key, message, signature) input to compare
// against crypto/ed25519.Verify.
type verifyCase struct {
	name          string
	pub, msg, sig []byte
}

// verifyCases builds the differential corpus: valid signatures and
// their single-bit corruptions, random signature bytes, a
// non-canonical S, the top bits of sig[63], a non-canonical R, the
// small-order points as keys and as R, and wrong lengths.
func verifyCases(t testing.TB) []verifyCase {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	var cases []verifyCase
	add := func(name string, pub, msg, sig []byte) {
		cases = append(cases, verifyCase{name, pub, msg, sig})
	}
	flip := func(b []byte, bit int) []byte {
		c := append([]byte(nil), b...)
		c[bit/8] ^= 1 << (bit % 8)
		return c
	}

	priv := ed25519.NewKeyFromSeed(randBytes(ed25519.SeedSize))
	pub := []byte(priv.Public().(ed25519.PublicKey))
	msg := randBytes(32)
	sig := ed25519.Sign(priv, msg)
	add("valid", pub, msg, sig)
	for i := 0; i < 8; i++ {
		p := ed25519.NewKeyFromSeed(randBytes(ed25519.SeedSize))
		m := randBytes(rng.Intn(200)) // past the stack buffer too
		add("valid/random-key", []byte(p.Public().(ed25519.PublicKey)), m, ed25519.Sign(p, m))
	}
	for bit := 0; bit < 256; bit++ {
		add("flip-R", pub, msg, flip(sig, bit))
		add("flip-S", pub, msg, flip(sig, 256+bit))
		add("flip-msg", pub, flip(msg, bit), sig)
	}
	for i := 0; i < 200; i++ {
		add("random-sig", pub, msg, randBytes(64))
	}

	// S + L encodes the same scalar non-canonically.
	sPlusL := append([]byte(nil), sig...)
	carry := 0
	for i := 0; i < 32; i++ {
		v := int(sPlusL[32+i]) + int(groupOrder[i]) + carry
		sPlusL[32+i], carry = byte(v), v>>8
	}
	add("S+L", pub, msg, sPlusL)
	for _, top := range []byte{0x20, 0x40, 0x80, 0xe0} {
		c := append([]byte(nil), sig...)
		c[63] |= top
		add("sig[63]-top-bits", pub, msg, c)
	}

	// R = identity with S = 0 is a valid signature under the identity
	// key for every message; re-encoded with y = p + 1 or with the sign
	// bit set on x = 0, the same R must be rejected.
	ident := mustHex(t, smallOrderPoints[0])
	zeroS := make([]byte, 32)
	add("identity-key/identity-R", ident, msg, append(append([]byte(nil), ident...), zeroS...))
	yp1 := mustHex(t, "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f")
	add("non-canonical-R/y=p+1", ident, msg, append(yp1, zeroS...))
	negZero := mustHex(t, "0100000000000000000000000000000000000000000000000000000000000080")
	add("non-canonical-R/-0", ident, msg, append(negZero, zeroS...))
	add("non-canonical-key/y=p+1", yp1, msg, append(append([]byte(nil), ident...), zeroS...))

	// Small-order points as keys and as R, over several messages: with
	// S = 0 the check is R == −[c]A, which holds for some c mod 8.
	for _, a := range smallOrderPoints {
		for _, r := range smallOrderPoints {
			for j := 0; j < 4; j++ {
				m := randBytes(32)
				add("small-order-key-and-R", mustHex(t, a), m, append(mustHex(t, r), zeroS...))
			}
		}
		add("small-order-key/real-sig", mustHex(t, a), msg, sig)
		add("small-order-R", pub, msg, append(mustHex(t, a), sig[32:]...))
	}
	// A key that is not a curve point.
	for {
		k := randBytes(32)
		if _, err := new(edwards25519.Point).SetBytes(k); err != nil {
			add("off-curve-key", k, msg, sig)
			break
		}
	}

	for _, n := range []int{0, 1, 32, 63, 65, 128} {
		s := make([]byte, n)
		copy(s, sig)
		add("length", pub, msg, s)
	}
	return cases
}

// TestSmallOrderPoints pins the corpus: each listed encoding decodes to
// a point that three doublings take to the identity.
func TestSmallOrderPoints(t *testing.T) {
	for _, h := range smallOrderPoints {
		p, err := new(edwards25519.Point).SetBytes(mustHex(t, h))
		if err != nil {
			t.Fatalf("%s: %v", h, err)
		}
		for i := 0; i < 3; i++ {
			p.Add(p, p)
		}
		if p.Equal(edwards25519.NewIdentityPoint()) != 1 {
			t.Fatalf("%s is not of order dividing 8", h)
		}
	}
}

// TestEdVerifyMatchesStdlib compares the comb verifier's verdict with
// crypto/ed25519.Verify on every corpus input, and requires the corpus
// to exercise both verdicts.
func TestEdVerifyMatchesStdlib(t *testing.T) {
	keys := map[string]*edwards25519.VerifyKey{}
	accepted := 0
	for _, c := range verifyCases(t) {
		k := keys[string(c.pub)]
		if k == nil {
			k = edwards25519.NewVerifyKey(c.pub)
			keys[string(c.pub)] = k
		}
		got, want := k.Verify(c.msg, c.sig), ed25519.Verify(c.pub, c.msg, c.sig)
		if got != want {
			t.Fatalf("%s: verdict %v, stdlib %v\npub %x\nmsg %x\nsig %x", c.name, got, want, c.pub, c.msg, c.sig)
		}
		if got {
			accepted++
		}
	}
	if accepted < 10 {
		t.Fatalf("only %d corpus inputs verify; the corpus lost its valid signatures", accepted)
	}
}

// FuzzVerifyMatchesStdlib extends the differential test to arbitrary
// inputs; the corpus above is its seed set, run by plain go test.
func FuzzVerifyMatchesStdlib(f *testing.F) {
	seeded := map[string]int{}
	for _, c := range verifyCases(f) {
		if seeded[c.name] < 4 { // a few of each kind keeps the seed run short
			seeded[c.name]++
			f.Add(c.pub, c.msg, c.sig)
		}
	}
	f.Fuzz(func(t *testing.T, pub, msg, sig []byte) {
		if len(pub) != ed25519.PublicKeySize {
			return // both panic
		}
		got, want := edwards25519.NewVerifyKey(pub).Verify(msg, sig), ed25519.Verify(pub, msg, sig)
		if got != want {
			t.Fatalf("verdict %v, stdlib %v\npub %x\nmsg %x\nsig %x", got, want, pub, msg, sig)
		}
	})
}

// TestEdVerifyAllocs: once a signer's comb exists, verifying its
// signature over a digest allocates nothing.
func TestEdVerifyAllocs(t *testing.T) {
	signers, v, err := Ed25519Scheme{}.Committee(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := types.HashBytes([]byte("allocs"))
	sig := signers[2].Sign(d)
	if !v.Verify(2, d, sig) {
		t.Fatal("valid signature rejected")
	}
	if n := testing.AllocsPerRun(100, func() { v.Verify(2, d, sig) }); n != 0 {
		t.Fatalf("Verify allocates: %.1f allocs/op", n)
	}
}

// TestEdVerifierConcurrentFirstUse: one verifier is shared by every
// replica of a cluster. Eight goroutines verify, for every signer, a
// valid and a forged signature on a fresh verifier; every verdict is
// right, no comb exists before first use, and each signer's comb is
// built once: the pointer every goroutine saw does not change on a
// further Verify.
func TestEdVerifierConcurrentFirstUse(t *testing.T) {
	const n, workers = 7, 8
	signers, v, err := Ed25519Scheme{}.Committee(n, 9)
	if err != nil {
		t.Fatal(err)
	}
	ev := v.(*edVerifier)
	for i := range ev.keys {
		if ev.keys[i].vk != nil {
			t.Fatalf("Committee built signer %d's comb; combs must be built on first use", i)
		}
	}
	d := types.HashBytes([]byte("concurrent"))
	sigs := make([][]byte, n)
	for i, s := range signers {
		sigs[i] = s.Sign(d)
	}
	var wg sync.WaitGroup
	errs := make(chan string, workers*n*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < n; j++ {
				r := types.ReplicaID((j + w) % n) // goroutines start on different signers
				if !v.Verify(r, d, sigs[r]) {
					errs <- "valid signature rejected"
				}
				if v.Verify(r, d, sigs[(int(r)+1)%n]) {
					errs <- "another signer's signature accepted"
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	for i := range ev.keys {
		vk := ev.keys[i].vk
		if vk == nil {
			t.Fatalf("signer %d verified without a comb", i)
		}
		if !v.Verify(types.ReplicaID(i), d, sigs[i]) || ev.keys[i].vk != vk {
			t.Fatalf("signer %d's comb rebuilt on a further Verify", i)
		}
	}
}
