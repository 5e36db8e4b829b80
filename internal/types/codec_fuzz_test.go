package types

import (
	"bytes"
	"math/rand"
	"testing"
)

// randBlock builds a block with every list of the wire form populated:
// parents, preplayed transactions with their read/write sets, and
// cross-shard transactions, some carrying VM code.
func randBlock(rng *rand.Rand) *Block {
	randBytes := func(max int) []byte {
		n := rng.Intn(max + 1)
		if n == 0 {
			return nil
		}
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	randTx := func(kind TxKind) *Transaction {
		tx := &Transaction{
			Client: rng.Uint64(), Nonce: rng.Uint64(),
			Kind: kind, OrigKind: SingleShard,
			Contract:       randString(rng, 1+rng.Intn(12)),
			SubmitUnixNano: rng.Int63(),
		}
		for i := rng.Intn(3) + 1; i > 0; i-- {
			tx.Shards = append(tx.Shards, ShardID(rng.Intn(8)))
		}
		for i := rng.Intn(4); i > 0; i-- {
			tx.Args = append(tx.Args, randBytes(16))
		}
		if rng.Intn(4) == 0 {
			tx.Code = randBytes(32)
		}
		return tx
	}
	randRecords := func() []RWRecord {
		var recs []RWRecord
		for i := rng.Intn(4); i > 0; i-- {
			recs = append(recs, RWRecord{Key: Key(randString(rng, 1+rng.Intn(10))), Value: randBytes(12)})
		}
		return recs
	}
	b := &Block{
		Epoch: Epoch(rng.Intn(4)), Round: Round(rng.Intn(1000)),
		Proposer: ReplicaID(rng.Intn(7)), Shard: ShardID(rng.Intn(7)),
		Kind:             BlockKind(rng.Intn(3)),
		ProposedUnixNano: rng.Int63(),
	}
	for i := rng.Intn(5); i > 0; i-- {
		b.Parents = append(b.Parents, HashBytes(randBytes(8)))
	}
	for i := rng.Intn(5); i > 0; i-- {
		tx := randTx(SingleShard)
		b.SingleTxs = append(b.SingleTxs, tx)
		b.Results = append(b.Results, TxResult{
			TxID: tx.ID(), ScheduleIdx: uint32(rng.Intn(64)), Reexecutions: uint32(rng.Intn(3)),
			ReadSet: randRecords(), WriteSet: randRecords(),
		})
	}
	for i := rng.Intn(3); i > 0; i-- {
		b.CrossTxs = append(b.CrossTxs, randTx(CrossShard))
	}
	return b
}

// FuzzBlockCodecCanonical: any payload that decodes as a block
// re-encodes to exactly those bytes, and Wire hands them back. A
// replica serves the rounds it archived as the block bytes it received
// (node's round archive), so a second encoding of one block would let
// two replicas answer the same round pull differently. Plain go test
// runs the seed corpus: random blocks whole, truncated and with one
// bit flipped.
func FuzzBlockCodecCanonical(f *testing.F) {
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < 12; i++ {
		enc, err := randBlock(rng).MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:rng.Intn(len(enc))])
		flip := append([]byte(nil), enc...)
		flip[rng.Intn(len(flip))] ^= 1 << rng.Intn(8)
		f.Add(flip)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var b Block
		if err := b.UnmarshalBinary(data); err != nil {
			return
		}
		enc, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("decoded block re-encodes differently:\n in  %x\n out %x", data, enc)
		}
		if !bytes.Equal(b.Wire(), data) {
			t.Fatal("Wire is not the decoded bytes")
		}
		var owned Block
		if err := owned.UnmarshalBinaryOwned(append([]byte(nil), data...)); err != nil {
			t.Fatalf("owned decode refused what the copying decode accepted: %v", err)
		}
		if owned.Digest() != b.Digest() {
			t.Fatal("owned and copying decodes disagree on the digest")
		}
	})
}

// TestWireCachesLocalEncoding: a block built locally encodes once, on
// the first Wire call, to what MarshalBinary produces; a decode resets
// the cache to the decoded bytes.
func TestWireCachesLocalEncoding(t *testing.T) {
	b := randBlock(rand.New(rand.NewSource(31)))
	enc, _ := b.MarshalBinary()
	w := b.Wire()
	if !bytes.Equal(w, enc) {
		t.Fatal("Wire differs from MarshalBinary")
	}
	if &b.Wire()[0] != &w[0] {
		t.Fatal("second Wire call encoded again")
	}
	other, _ := randBlock(rand.New(rand.NewSource(32))).MarshalBinary()
	if err := b.UnmarshalBinaryOwned(other); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Wire(), other) {
		t.Fatal("decode kept the old encoding")
	}
}
