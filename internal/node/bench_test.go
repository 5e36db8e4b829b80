package node

import (
	"fmt"
	"testing"
	"time"

	"thunderbolt/internal/contract"
	"thunderbolt/internal/dag/dagtest"
	"thunderbolt/internal/storage"
	"thunderbolt/internal/transport"
	"thunderbolt/internal/types"
	"thunderbolt/internal/workload"
)

// nullTransport swallows all traffic; benchmarks drive node internals
// directly on the test goroutine, no event loop running.
type nullTransport struct{ id types.ReplicaID }

func (t *nullTransport) Self() types.ReplicaID                                 { return t.id }
func (t *nullTransport) Send(types.ReplicaID, transport.MsgType, []byte) error { return nil }
func (t *nullTransport) Broadcast(transport.MsgType, []byte) error             { return nil }
func (t *nullTransport) SetHandler(transport.Handler)                          {}
func (t *nullTransport) Close() error                                          { return nil }

// benchNode builds an unstarted node whose DAG holds `rounds` fully
// certified rounds and whose pending-block state holds every block of
// those rounds (as after live dissemination: each broadcast block is
// retained when its vertex lands) — the population fastForward works
// against.
func benchNode(b *testing.B, committee *dagtest.Committee, rounds int) *Node {
	b.Helper()
	reg := contract.NewRegistry()
	n, err := New(Config{
		ID: 0, N: committee.N,
		Transport: &nullTransport{id: 0},
		Signer:    committee.Signers[0], Verifier: committee.Ver,
		Registry: reg, Store: storage.New(),
		MinRoundInterval: time.Hour, // benchmarks drive proposals explicitly
	})
	if err != nil {
		b.Fatal(err)
	}
	bld := dagtest.NewBuilder(committee, 0)
	for r := 0; r < rounds; r++ {
		txSeq := r
		// Peer blocks carry one foreign-shard transaction each; own
		// blocks stay empty so the requeue scan's map-iteration cost —
		// the code under measurement — is not mixed with preplay cost.
		vs := bld.NextRound(nil, func(blk *types.Block) {
			if blk.Proposer == 0 {
				return
			}
			blk.SingleTxs = []*types.Transaction{{
				Client: uint64(blk.Proposer) + 1, Nonce: uint64(txSeq),
				Kind: types.SingleShard, Shards: []types.ShardID{types.ShardID(blk.Proposer)},
				Contract: "noop",
			}}
		})
		for _, v := range vs {
			if !n.insertVertex(v) {
				b.Fatalf("vertex rejected at round %d", v.Round())
			}
			n.trackPendingBlock(v.Block)
			if v.Proposer() == 0 {
				n.ownPending[v.Round()] = v.Block.Digest()
			}
		}
	}
	return n
}

// BenchmarkFastForward measures one frontier rejoin against a DAG of
// `rounds` certified rounds (committee 4, so pending-block count is
// 4×rounds) while the node's own uncommitted proposal window stays
// fixed at 16 blocks, as committed-wave GC guarantees in steady
// state. Run at two sizes to expose the cost curve's shape: the
// requeue scan must not grow with total pending state (it used to be
// a full scan over every pending block).
func BenchmarkFastForward(b *testing.B) {
	const ownWindow = 16
	committee := dagtest.NewCommittee(4)
	for _, rounds := range []int{250, 2000} {
		b.Run(fmt.Sprintf("rounds=%d", rounds), func(b *testing.B) {
			n := benchNode(b, committee, rounds)
			hi := n.dagStore.HighestRound()
			for r := range n.ownPending {
				if r+ownWindow <= hi {
					delete(n.ownPending, r)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.txQueue = nil
				n.nextRound = 2 // far behind the frontier
				n.fastForward(hi)
				// Unwind the re-proposal and restore the own-block
				// index so pending state stays at the configured size
				// across iterations.
				b.StopTimer()
				if lb := n.lastBlock; lb != nil {
					d := lb.Digest()
					delete(n.pendingBlocks, d)
					delete(n.pendingRounds, lb.Round)
					n.releaseSlot(voteKey{round: lb.Round, proposer: lb.Proposer})
					delete(n.voted, voteKey{round: lb.Round, proposer: lb.Proposer})
					delete(n.ownPending, lb.Round)
					n.lastBlock = nil
				}
				for r := hi - ownWindow + 1; r <= hi; r++ {
					if v, ok := n.dagStore.Get(r, 0); ok {
						n.ownPending[r] = v.Block.Digest()
					}
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkMaybeAdvanceIdle measures the no-op advancement check the
// pace ticker runs every millisecond on a deep DAG — it must stay
// O(1) regardless of how many rounds the epoch has accumulated.
func BenchmarkMaybeAdvanceIdle(b *testing.B) {
	committee := dagtest.NewCommittee(4)
	n := benchNode(b, committee, 2000)
	n.nextRound = n.dagStore.HighestRound() + 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.maybeAdvance()
	}
}

// BenchmarkCapture200k prices one snapshot capture over a 100k-account
// ledger (200k records, 49 chunks) by how much of it was written since
// the previous capture: cold captures a freshly seeded store, whose
// chunks were never hashed; allDirty overwrites one record in every
// chunk; 1pctDirty overwrites 2 000 records in 1 % of the key range
// (one chunk); clean writes nothing. A capture folds the store's write
// buffer and hashes only the chunks the fold rebuilt, so its
// allocations stay O(chunks) however much was written (CI gates clean
// and allDirty below 1 000 allocs/op).
func BenchmarkCapture200k(b *testing.B) {
	const accounts = 100_000
	committee := dagtest.NewCommittee(4)
	for _, bc := range []struct {
		name  string
		dirty func(keys []types.Key) []types.Key
	}{
		{"cold", nil},
		{"allDirty", func(keys []types.Key) (out []types.Key) {
			for i := 0; i < len(keys); i += types.DefaultChunkRecords {
				out = append(out, keys[i])
			}
			return out
		}},
		{"1pctDirty", func(keys []types.Key) []types.Key { return keys[10_000:12_000] }},
		{"clean", func([]types.Key) []types.Key { return nil }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			st := storage.New()
			workload.InitAccounts(st, accounts, 100, 100)
			n, err := New(Config{
				ID: 0, N: committee.N,
				Transport: &nullTransport{id: 0},
				Signer:    committee.Signers[0], Verifier: committee.Ver,
				Registry: contract.NewRegistry(), Store: st,
			})
			if err != nil {
				b.Fatal(err)
			}
			var writes []types.RWRecord
			if bc.dirty != nil {
				for _, k := range bc.dirty(st.Keys()) {
					writes = append(writes, types.RWRecord{Key: k, Value: contract.EncodeInt64(7)})
				}
				n.capture()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.dirty == nil {
					b.StopTimer()
					st = storage.New()
					workload.InitAccounts(st, accounts, 100, 100)
					n.cfg.Store = st
					b.StartTimer()
				} else {
					st.Apply(writes)
				}
				n.capture()
			}
			b.StopTimer()
			if got := n.lastSnap.RecordCount; got != 2*accounts {
				b.Fatalf("captured %d records, want %d", got, 2*accounts)
			}
		})
	}
}
