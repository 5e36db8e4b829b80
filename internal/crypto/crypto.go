// Package crypto provides the signing primitives Thunderbolt's DAG
// layer uses to certify vertices: per-replica signers, verifiers, and
// quorum certificates over block digests.
//
// Two schemes are provided behind one interface. Ed25519Scheme is the
// default for real deployments. It signs with stdlib crypto/ed25519,
// which is constant-time, and verifies with a variable-time verifier
// that holds a precomputed table per committee key
// (internal/edwards25519, VerifyKey): [S]B − [k]A comes from two
// radix-16 combs, one for the base point and one for the signer's −A,
// in 128 mixed additions and 4 doublings, where crypto/ed25519.Verify
// decompresses A and doubles about 253 times on every call, so a
// verification costs about 2.3× less (BenchmarkEdVerify beside
// BenchmarkEdVerifyStdlib). Variable time is safe because every input —
// key, digest, signature — is public. Each key's table (about 30 KiB,
// about 1 ms to build) is built on its signer's first verification,
// so Committee does no curve work. The verdict is crypto/ed25519's
// on every input; stdlib Verify remains as the tests' oracle.
// InsecureScheme replaces signatures with keyed digests; it preserves
// message sizes and protocol structure while removing asymmetric-crypto
// cost, which is what large-scale simulations (64+ replicas in one
// process) need. The paper's evaluation reports relative speedups, so
// the choice of scheme does not change any figure's shape.
package crypto

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"thunderbolt/internal/crypto/internal/edwards25519"
	"thunderbolt/internal/types"
)

// Signer produces signatures on behalf of one replica.
type Signer interface {
	// Sign signs the digest d.
	Sign(d types.Digest) []byte
	// ID returns the replica this signer belongs to.
	ID() types.ReplicaID
}

// Verifier checks signatures from any replica in the committee.
type Verifier interface {
	// Verify reports whether sig is a valid signature on d by replica r.
	Verify(r types.ReplicaID, d types.Digest, sig []byte) bool
}

// BatchVerifier is an optional Verifier extension for the
// certificate-validation hot path: verify a whole signature set over
// one digest in a single call. Implementations may amortize — the
// ed25519 scheme fans the batch out across cores — but must return
// exactly the same per-signature verdicts as repeated Verify calls.
type BatchVerifier interface {
	// VerifyBatch reports, for each i, whether sigs[i] is a valid
	// signature on d by signers[i]. The two slices must have equal
	// length.
	VerifyBatch(signers []types.ReplicaID, d types.Digest, sigs [][]byte) []bool
}

// verifyBatch dispatches to the batch path when v supports it, else
// falls back to sequential Verify calls.
func verifyBatch(v Verifier, signers []types.ReplicaID, d types.Digest, sigs [][]byte) []bool {
	if bv, ok := v.(BatchVerifier); ok {
		return bv.VerifyBatch(signers, d, sigs)
	}
	out := make([]bool, len(signers))
	for i, r := range signers {
		out[i] = v.Verify(r, d, sigs[i])
	}
	return out
}

// Scheme bundles key generation for a whole committee.
type Scheme interface {
	// Committee creates signers for n replicas plus a verifier that
	// recognizes all of them. The seed makes key generation
	// reproducible across processes (required so that independently
	// started replicas of a local testbed agree on public keys without
	// a key-exchange phase).
	Committee(n int, seed int64) ([]Signer, Verifier, error)
	// Name identifies the scheme for logs and configs.
	Name() string
}

// --- Ed25519 ---

// Ed25519Scheme signs with stdlib ed25519 keys derived from the seed.
type Ed25519Scheme struct{}

// Name implements Scheme.
func (Ed25519Scheme) Name() string { return "ed25519" }

// Committee implements Scheme.
func (Ed25519Scheme) Committee(n int, seed int64) ([]Signer, Verifier, error) {
	if n <= 0 {
		return nil, nil, errors.New("crypto: committee size must be positive")
	}
	signers := make([]Signer, n)
	v := &edVerifier{keys: make([]edKey, n)}
	for i := 0; i < n; i++ {
		var kseed [ed25519.SeedSize]byte
		binary.BigEndian.PutUint64(kseed[:8], uint64(seed))
		binary.BigEndian.PutUint32(kseed[8:12], uint32(i))
		h := sha256.Sum256(kseed[:])
		priv := ed25519.NewKeyFromSeed(h[:])
		signers[i] = &edSigner{id: types.ReplicaID(i), priv: priv}
		v.keys[i].pub = priv.Public().(ed25519.PublicKey)
	}
	return signers, v, nil
}

type edSigner struct {
	id   types.ReplicaID
	priv ed25519.PrivateKey
}

func (s *edSigner) Sign(d types.Digest) []byte { return ed25519.Sign(s.priv, d[:]) }
func (s *edSigner) ID() types.ReplicaID        { return s.id }

// edVerifier checks signatures against per-signer combs of the
// committee keys (edwards25519.VerifyKey), each built on its signer's
// first verification: Committee does no curve work, and a signer
// whose signatures never arrive never costs a comb. One verifier is
// shared by every replica of an in-process cluster, so the combs are
// built behind a sync.Once each.
type edVerifier struct {
	keys []edKey
}

type edKey struct {
	pub  ed25519.PublicKey
	once sync.Once
	vk   *edwards25519.VerifyKey
}

func (v *edVerifier) Verify(r types.ReplicaID, d types.Digest, sig []byte) bool {
	if int(r) >= len(v.keys) {
		return false
	}
	k := &v.keys[r]
	k.once.Do(func() { k.vk = edwards25519.NewVerifyKey(k.pub) })
	return k.vk.Verify(d[:], sig)
}

// batchParallelMin is the batch size at which fanning verification
// out across cores beats running it inline: each ed25519 verify costs
// tens of microseconds, dwarfing goroutine startup.
const batchParallelMin = 3

// VerifyBatch implements BatchVerifier. Certificate validation is the
// dominant asymmetric-crypto cost on every replica (2f+1 signatures
// per vertex); the batch is split across up to GOMAXPROCS workers.
func (v *edVerifier) VerifyBatch(signers []types.ReplicaID, d types.Digest, sigs [][]byte) []bool {
	out := make([]bool, len(signers))
	workers := runtime.GOMAXPROCS(0)
	if len(signers) < batchParallelMin || workers < 2 {
		for i, r := range signers {
			out[i] = v.Verify(r, d, sigs[i])
		}
		return out
	}
	if workers > len(signers) {
		workers = len(signers)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(signers) {
					return
				}
				out[i] = v.Verify(signers[i], d, sigs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// --- Insecure (simulation) ---

// InsecureScheme produces HMAC-SHA256 tags under per-replica keys that
// every party knows. It provides no security against a real adversary
// but exercises the same code paths (signature bytes on the wire,
// verification on receipt, quorum assembly) at a fraction of the cost.
type InsecureScheme struct{}

// Name implements Scheme.
func (InsecureScheme) Name() string { return "insecure" }

// Committee implements Scheme.
func (InsecureScheme) Committee(n int, seed int64) ([]Signer, Verifier, error) {
	if n <= 0 {
		return nil, nil, errors.New("crypto: committee size must be positive")
	}
	pads := make([]macPads, n)
	signers := make([]Signer, n)
	for i := 0; i < n; i++ {
		k := sha256.Sum256([]byte(fmt.Sprintf("insecure-key-%d-%d", seed, i)))
		pads[i] = newMACPads(k[:])
		signers[i] = &macSigner{id: types.ReplicaID(i), pads: pads[i]}
	}
	return signers, &macVerifier{pads: pads}, nil
}

// macPads holds a key's precomputed HMAC-SHA256 pad blocks with room
// for a 32-byte message appended, so one tag is two sha256.Sum256
// calls over stack-resident buffers — zero heap traffic. Going
// through crypto/hmac's hash.Hash interface instead costs an
// allocation per call on the vote/certificate hot path.
type macPads struct {
	inner [sha256.BlockSize + sha256.Size]byte // key ^ ipad || digest
	outer [sha256.BlockSize + sha256.Size]byte // key ^ opad || inner tag
}

func newMACPads(key []byte) macPads {
	if len(key) > sha256.BlockSize {
		k := sha256.Sum256(key)
		key = k[:]
	}
	var p macPads
	copy(p.inner[:], key)
	copy(p.outer[:], key)
	for i := 0; i < sha256.BlockSize; i++ {
		p.inner[i] ^= 0x36
		p.outer[i] ^= 0x5c
	}
	return p
}

// tag computes HMAC-SHA256(key, d) — bit-identical to crypto/hmac —
// into a stack array.
func (p *macPads) tag(d types.Digest) [sha256.Size]byte {
	in := p.inner
	copy(in[sha256.BlockSize:], d[:])
	t := sha256.Sum256(in[:])
	out := p.outer
	copy(out[sha256.BlockSize:], t[:])
	return sha256.Sum256(out[:])
}

type macSigner struct {
	id   types.ReplicaID
	pads macPads
}

// Sign allocates only the escaping 32-byte tag; signing happens once
// per vote — the consensus hot path.
func (s *macSigner) Sign(d types.Digest) []byte {
	t := s.pads.tag(d)
	sig := make([]byte, sha256.Size)
	copy(sig, t[:])
	return sig
}
func (s *macSigner) ID() types.ReplicaID { return s.id }

type macVerifier struct {
	pads []macPads // per-replica precomputed pad blocks
}

func (v *macVerifier) Verify(r types.ReplicaID, d types.Digest, sig []byte) bool {
	if int(r) >= len(v.pads) {
		return false
	}
	t := v.pads[r].tag(d)
	return hmac.Equal(t[:], sig)
}

// macVerifier deliberately does not implement BatchVerifier: HMAC
// tags are microseconds each, so verifyBatch's sequential fallback is
// already the right batch path; the scheme's size-faithfulness lives
// in Sign/Verify.

// --- verified-signature memo ---

// sigKey identifies one (signer, message, signature) triple; the
// signature bytes enter hashed so keys stay fixed-size.
type sigKey struct {
	signer types.ReplicaID
	digest types.Digest
	sig    types.Digest
}

// CachingVerifier wraps a Verifier with a bounded FIFO memo of
// signatures known to be valid: those it verified, and those its owner
// produced and recorded with Remember. A replica certifies vertices
// from vote bundles it verified as they arrived and never re-verifies
// what it assembled, so in steady state the memo sees no traffic; it
// serves the certificates that still arrive whole — replies to round
// pulls (MsgRoundReq) — where it keeps the replica from ever paying
// an asymmetric verification for its own signature, and makes a
// certificate served twice cost map lookups the second time. The key is
// what was signed: a voter's one signature over a bundle root sits in
// the certificate of every slot the bundle covered, and is verified for
// the first of them only. Only valid signatures enter, so a forged one
// is never admitted by a stale entry. Safe for concurrent use.
type CachingVerifier struct {
	inner Verifier
	cap   int

	mu    sync.Mutex
	seen  map[sigKey]struct{}
	order []sigKey // FIFO eviction queue
	next  int      // ring cursor once order reaches cap
}

// NewCachingVerifier wraps inner with a memo of at most capEntries
// verified signatures (default 8192 — several hundred rounds of
// quorum signatures for common committee sizes).
func NewCachingVerifier(inner Verifier, capEntries int) *CachingVerifier {
	if capEntries <= 0 {
		capEntries = 8192
	}
	return &CachingVerifier{
		inner: inner,
		cap:   capEntries,
		seen:  make(map[sigKey]struct{}, capEntries),
	}
}

func (c *CachingVerifier) key(r types.ReplicaID, d types.Digest, sig []byte) sigKey {
	return sigKey{signer: r, digest: d, sig: types.HashBytes(sig)}
}

func (c *CachingVerifier) hit(k sigKey) bool {
	c.mu.Lock()
	_, ok := c.seen[k]
	c.mu.Unlock()
	return ok
}

func (c *CachingVerifier) remember(k sigKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.seen[k]; dup {
		return
	}
	if len(c.order) < c.cap {
		c.order = append(c.order, k)
	} else {
		delete(c.seen, c.order[c.next])
		c.order[c.next] = k
		c.next = (c.next + 1) % c.cap
	}
	c.seen[k] = struct{}{}
}

// Remember records sig as replica r's valid signature over d without
// verifying it — for signatures the caller produced itself.
func (c *CachingVerifier) Remember(r types.ReplicaID, d types.Digest, sig []byte) {
	c.remember(c.key(r, d, sig))
}

// Verify implements Verifier.
func (c *CachingVerifier) Verify(r types.ReplicaID, d types.Digest, sig []byte) bool {
	k := c.key(r, d, sig)
	if c.hit(k) {
		return true
	}
	if !c.inner.Verify(r, d, sig) {
		return false
	}
	c.remember(k)
	return true
}

// VerifyBatch implements BatchVerifier: cached entries are answered
// from the memo and only the remainder goes to the inner verifier's
// batch path.
func (c *CachingVerifier) VerifyBatch(signers []types.ReplicaID, d types.Digest, sigs [][]byte) []bool {
	out := make([]bool, len(signers))
	// Miss bookkeeping runs out of a pooled scratch: a recovery
	// certificate is mostly misses (only this replica's own signature
	// and earlier replies are in the memo), so the result slice must be
	// this path's only allocation.
	sc := batchScratchPool.Get().(*batchScratch)
	missIdx, missKeys := sc.idx[:0], sc.keys[:0]
	for i := range signers {
		k := c.key(signers[i], d, sigs[i])
		if c.hit(k) {
			out[i] = true
		} else {
			missIdx = append(missIdx, i)
			missKeys = append(missKeys, k)
		}
	}
	if len(missIdx) == 0 {
		sc.idx, sc.keys = missIdx, missKeys
		batchScratchPool.Put(sc)
		return out
	}
	ms, mg := sc.signers[:0], sc.sigs[:0]
	for _, i := range missIdx {
		ms = append(ms, signers[i])
		mg = append(mg, sigs[i])
	}
	for j, ok := range verifyBatch(c.inner, ms, d, mg) {
		if ok {
			out[missIdx[j]] = true
			c.remember(missKeys[j])
		}
	}
	sc.idx, sc.keys, sc.signers = missIdx, missKeys, ms
	clear(mg) // drop signature references before pooling
	sc.sigs = mg
	batchScratchPool.Put(sc)
	return out
}

// batchScratch recycles VerifyBatch's miss-tracking slices; the inner
// verifier reads them synchronously and never retains them.
type batchScratch struct {
	idx     []int
	keys    []sigKey
	signers []types.ReplicaID
	sigs    [][]byte
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// SchemeByName resolves a scheme from its configuration name.
func SchemeByName(name string) (Scheme, error) {
	switch name {
	case "", "ed25519":
		return Ed25519Scheme{}, nil
	case "insecure":
		return InsecureScheme{}, nil
	default:
		return nil, fmt.Errorf("crypto: unknown scheme %q", name)
	}
}
