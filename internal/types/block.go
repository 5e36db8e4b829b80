package types

import "time"

// BlockKind tags the role a DAG vertex plays.
type BlockKind uint8

const (
	// NormalBlock carries transactions and preplay results.
	NormalBlock BlockKind = iota + 1
	// SkipBlock keeps the DAG advancing while the proposer waits for
	// conflicting cross-shard transactions to finalize (paper §5.4).
	SkipBlock
	// ShiftBlock votes for a shard reconfiguration (paper §6). Once
	// 2f+1 Shift blocks appear in a committed causal history, every
	// replica transitions to a new DAG at the same ending round.
	ShiftBlock
)

func (k BlockKind) String() string {
	switch k {
	case NormalBlock:
		return "normal"
	case SkipBlock:
		return "skip"
	case ShiftBlock:
		return "shift"
	default:
		return "invalid"
	}
}

// Block is the data payload of one DAG vertex: the transactions a
// shard proposer contributes in one round, plus references (by
// certificate digest) to at least 2f+1 vertices of the previous round.
type Block struct {
	Epoch    Epoch
	Round    Round
	Proposer ReplicaID
	// Shard is the shard this proposer currently serves; it changes
	// across reconfigurations while Proposer stays fixed.
	Shard ShardID
	Kind  BlockKind

	// Parents are digests of certificates from round Round-1 (empty
	// only in round 1 of an epoch).
	Parents []Digest

	// SingleTxs are preplayed single-shard transactions; Results holds
	// their preplay outcomes, aligned by index.
	SingleTxs []*Transaction
	Results   []TxResult

	// CrossTxs are cross-shard transactions submitted directly to the
	// DAG (rule P1), in proposal order.
	CrossTxs []*Transaction

	// ProposedUnixNano timestamps block creation for metrics. It is
	// part of the digest (a block is a unique proposal event).
	ProposedUnixNano int64

	// Stamps carries this replica's local pipeline timestamps, set as
	// the block moves propose→certify→commit; the per-stage commit-path
	// histograms read them at execution. Purely local observability
	// state: like the digest cache below it is invisible to the codec
	// and the digest, reset on decode, and never crosses the wire — two
	// replicas hold independent stamps for the same block.
	Stamps BlockStamps

	// wire holds the block's canonical encoding once known: the bytes
	// it was decoded from, which its fields alias anyway, or the
	// encoding Wire made for a block built locally. Local state like
	// Stamps: outside the codec and the digest.
	wire []byte

	// dig caches the content digest. Blocks are immutable once built
	// (propose fills them before the first Digest call; decode resets
	// the cache) and owned by one goroutine at a time, so the cache is
	// unsynchronized like the rest of the protocol state. The cache is
	// invisible to the codec but visible to reflect.DeepEqual —
	// compare blocks by Digest or marshalled bytes, not reflection.
	dig   Digest
	digOK bool
}

// BlockStamps are one replica's local stage timestamps for a block:
// Seen is when the replica first tracked it (its own propose time, or
// first receipt off the wire — both happen within the broadcast the
// proposer fires at creation), Certified when the certified vertex
// entered the local DAG. Both read from the same local clock, so stage
// durations never mix clocks across machines.
type BlockStamps struct {
	Seen      time.Time
	Certified time.Time
}

// Digest returns the canonical content address of the block, computed
// once and cached (the node re-derives a proposal's digest on every
// vote, DAG insertion, and equivocation check).
func (b *Block) Digest() Digest {
	if !b.digOK {
		e := GetEncoder()
		b.encode(e)
		b.dig = HashBytes(e.Sum())
		PutEncoder(e)
		b.digOK = true
	}
	return b.dig
}

// Wire returns the block's canonical encoding without encoding it
// again: the bytes a decoded block came from (the codec is canonical,
// so they are what MarshalBinary would produce), or, for a block built
// locally, its encoding made on the first call and kept. The bytes are
// shared — callers must not modify them — and, like the digest cache,
// assume the block is not changed once built.
func (b *Block) Wire() []byte {
	if b.wire == nil {
		b.wire, _ = b.MarshalBinary() // encoding a block cannot fail
	}
	return b.wire
}

// encode appends the block's canonical wire form. Nested transaction
// and result encodings share the block's buffer; the bytes are
// identical to the historical per-field Bytes() framing.
func (b *Block) encode(e *Encoder) {
	e.U64(uint64(b.Epoch))
	e.U64(uint64(b.Round))
	e.U32(uint32(b.Proposer))
	e.U32(uint32(b.Shard))
	e.U8(uint8(b.Kind))
	e.U32(uint32(len(b.Parents)))
	for _, p := range b.Parents {
		e.Digest(p)
	}
	e.U32(uint32(len(b.SingleTxs)))
	for _, tx := range b.SingleTxs {
		at := e.BeginLen()
		tx.encode(e)
		e.EndLen(at)
	}
	e.U32(uint32(len(b.Results)))
	for i := range b.Results {
		at := e.BeginLen()
		b.Results[i].encode(e)
		e.EndLen(at)
	}
	e.U32(uint32(len(b.CrossTxs)))
	for _, tx := range b.CrossTxs {
		at := e.BeginLen()
		tx.encode(e)
		e.EndLen(at)
	}
	e.I64(b.ProposedUnixNano)
}

// MarshalBinary encodes the block canonically.
func (b *Block) MarshalBinary() ([]byte, error) {
	e := GetEncoder()
	defer PutEncoder(e)
	b.encode(e)
	return e.Detach(), nil
}

// UnmarshalBinary decodes a block encoded by MarshalBinary. The
// payload is copied once up front; every nested transaction, result,
// and record then decodes by slicing that one buffer instead of
// copying field by field (the receive path's dominant allocation cost
// — see BenchmarkBlockDecode). The block and its transactions alias
// the copy for their lifetime, which matches how long the node
// retains a received block anyway.
func (b *Block) UnmarshalBinary(data []byte) error {
	return b.unmarshalFrom(append([]byte(nil), data...))
}

// UnmarshalBinaryOwned decodes like UnmarshalBinary but takes
// ownership of data: the block and its transactions alias data
// directly instead of copying it first. Receive paths hand over
// delivered message buffers they never touch again, so the
// UnmarshalBinary copy there only doubled the transport's own
// per-delivery clone.
func (b *Block) UnmarshalBinaryOwned(data []byte) error {
	return b.unmarshalFrom(data)
}

// PeekBlockHeader reads the epoch, round and proposer a block encoding
// starts with and decodes nothing else, so a receiver can refuse a
// block it has no use for before paying for its transactions. ok is
// false when data is too short to hold them; a true ok says nothing
// about the rest of data.
func PeekBlockHeader(data []byte) (epoch Epoch, round Round, proposer ReplicaID, ok bool) {
	d := Decoder{buf: data, shared: true}
	epoch, round, proposer = Epoch(d.U64()), Round(d.U64()), ReplicaID(d.U32())
	return epoch, round, proposer, d.err == nil
}

func (b *Block) unmarshalFrom(data []byte) error {
	b.digOK = false
	b.Stamps = BlockStamps{}
	b.wire = nil
	d := NewSharedDecoder(data)
	b.Epoch = Epoch(d.U64())
	b.Round = Round(d.U64())
	b.Proposer = ReplicaID(d.U32())
	b.Shard = ShardID(d.U32())
	b.Kind = BlockKind(d.U8())
	np := d.U32()
	b.Parents = make([]Digest, 0, min(int(np), 4096))
	for i := uint32(0); i < np && d.Err() == nil; i++ {
		b.Parents = append(b.Parents, d.Digest())
	}
	// Transactions decode into one arena per list and results share one
	// record arena: a per-transaction box and two per-result record
	// slices made block decode the receive path's heaviest allocator.
	ns := d.U32()
	singles := make([]Transaction, 0, min(int(ns), 4096))
	argArena := make([][]byte, 0, 3*min(int(ns), 4096))
	for i := uint32(0); i < ns && d.Err() == nil; i++ {
		var tx Transaction
		sub := d.sub()
		if err := tx.decodeBodyArena(&sub, &argArena); err != nil {
			return err
		}
		singles = append(singles, tx)
	}
	b.SingleTxs = make([]*Transaction, len(singles))
	for i := range singles {
		b.SingleTxs[i] = &singles[i]
	}
	nr := d.U32()
	b.Results = make([]TxResult, 0, min(int(nr), 4096))
	recArena := make([]RWRecord, 0, 4*min(int(nr), 4096))
	for i := uint32(0); i < nr && d.Err() == nil; i++ {
		var r TxResult
		sub := d.sub()
		if err := r.decodeBodyArena(&sub, &recArena); err != nil {
			return err
		}
		b.Results = append(b.Results, r)
	}
	nc := d.U32()
	crosses := make([]Transaction, 0, min(int(nc), 4096))
	for i := uint32(0); i < nc && d.Err() == nil; i++ {
		var tx Transaction
		sub := d.sub()
		if err := tx.decodeBodyArena(&sub, &argArena); err != nil {
			return err
		}
		crosses = append(crosses, tx)
	}
	b.CrossTxs = make([]*Transaction, len(crosses))
	for i := range crosses {
		b.CrossTxs[i] = &crosses[i]
	}
	b.ProposedUnixNano = d.I64()
	if err := d.Finish(); err != nil {
		return err
	}
	b.wire = data
	return nil
}

// Signature is one replica's signature vouching for a block digest.
// Sig signs the root that Path leads to from the digest: the digest
// itself when Path is empty, otherwise the root of the vote bundle the
// signer sealed the digest into (merkle.go) — either way a vote for
// this one block that anyone can check without the rest of the bundle.
type Signature struct {
	Signer ReplicaID
	Sig    []byte
	Path   MerklePath
}

// Certificate proves that 2f+1 replicas vouched for a block. It is the
// unit referenced by Parents in the next round: linking to a
// certificate transitively guarantees availability of the block and
// its whole causal history.
type Certificate struct {
	BlockDigest Digest
	Epoch       Epoch
	Round       Round
	Proposer    ReplicaID
	Sigs        []Signature

	// dig caches the identity digest (see Block.dig for the ownership
	// discipline).
	dig   Digest
	digOK bool
}

// Digest returns the content address of the certificate, computed
// once and cached — the DAG layer re-derives it on every parent
// lookup, support count, and causal walk. Signatures and their paths
// are excluded: any 2f+1 quorum over the same block yields the same
// certificate identity, so replicas assembling different quorums, from
// differently bundled votes, still agree on parent references.
func (c *Certificate) Digest() Digest {
	if !c.digOK {
		e := GetEncoder()
		e.Digest(c.BlockDigest)
		e.U64(uint64(c.Epoch))
		e.U64(uint64(c.Round))
		e.U32(uint32(c.Proposer))
		c.dig = HashBytes(e.Sum())
		PutEncoder(e)
		c.digOK = true
	}
	return c.dig
}

// MarshalBinary encodes the certificate.
func (c *Certificate) MarshalBinary() ([]byte, error) {
	e := GetEncoder()
	defer PutEncoder(e)
	c.encode(e)
	return e.Detach(), nil
}

// AppendBinary appends the certificate's encoding to b — how several
// certificates share one buffer.
func (c *Certificate) AppendBinary(b []byte) ([]byte, error) {
	e := Encoder{buf: b}
	c.encode(&e)
	return e.buf, nil
}

func (c *Certificate) encode(e *Encoder) {
	e.Digest(c.BlockDigest)
	e.U64(uint64(c.Epoch))
	e.U64(uint64(c.Round))
	e.U32(uint32(c.Proposer))
	e.U32(uint32(len(c.Sigs)))
	for _, s := range c.Sigs {
		e.U32(uint32(s.Signer))
		e.Bytes(s.Sig)
		s.Path.encode(e)
	}
}

// UnmarshalBinary decodes a certificate encoded by MarshalBinary (one
// up-front copy; signatures alias it).
func (c *Certificate) UnmarshalBinary(data []byte) error {
	return c.unmarshalFrom(append([]byte(nil), data...))
}

// UnmarshalBinaryOwned decodes like UnmarshalBinary but aliases data
// (handed over by the caller) instead of copying it.
func (c *Certificate) UnmarshalBinaryOwned(data []byte) error {
	return c.unmarshalFrom(data)
}

func (c *Certificate) unmarshalFrom(data []byte) error {
	c.digOK = false
	d := NewSharedDecoder(data)
	c.BlockDigest = d.Digest()
	c.Epoch = Epoch(d.U64())
	c.Round = Round(d.U64())
	c.Proposer = ReplicaID(d.U32())
	n := d.U32()
	c.Sigs = make([]Signature, 0, min(int(n), 4096))
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		s := Signature{Signer: ReplicaID(d.U32()), Sig: d.Bytes()}
		s.Path.decode(d)
		c.Sigs = append(c.Sigs, s)
	}
	return d.Finish()
}
