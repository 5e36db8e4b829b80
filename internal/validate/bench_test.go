package validate

import (
	"crypto/sha256"
	"math/rand"
	"runtime"
	"testing"

	"thunderbolt/internal/ce"
	"thunderbolt/internal/contract"
	"thunderbolt/internal/storage"
	"thunderbolt/internal/types"
	"thunderbolt/internal/workload"
)

// costlyState charges every state access what benchmark/exec_run.go
// charges it — 16 SHA-256 rounds standing in for EVM interpretation,
// and a yield that reproduces multi-core interleaving on few cores.
type costlyState struct{ inner contract.State }

func burn() {
	var b [32]byte
	for i := 0; i < 16; i++ {
		b = sha256.Sum256(b[:])
	}
}

func (s costlyState) Read(k types.Key) (types.Value, error) {
	burn()
	runtime.Gosched()
	return s.inner.Read(k)
}

func (s costlyState) Write(k types.Key, v types.Value) error {
	burn()
	runtime.Gosched()
	return s.inner.Write(k, v)
}

func costly(inner *contract.Registry) *contract.Registry {
	return wrapRegistry(inner, func(st contract.State) contract.State { return costlyState{st} })
}

var benchSink int

// BenchmarkValidateHot500 is exec-hot's validation stage on its own: a
// 500-transaction batch over 200 accounts at θ 0.95 — 86 conflict
// layers, if anyone still planned them — on two cores.
func BenchmarkValidateHot500(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	plain := contract.NewRegistry()
	workload.RegisterSmallBank(plain)
	st := storage.New()
	workload.InitAccounts(st, 200, 1_000_000, 1_000_000)
	g := workload.NewGenerator(workload.Config{Accounts: 200, Shards: 1, Theta: 0.95, ReadRatio: 0.5, Seed: 42, Client: 1})
	batch := ce.New(ce.Config{Executors: 16, Registry: plain}).ExecuteBatch(func(k types.Key) types.Value {
		v, _ := st.Get(k)
		return v
	}, g.Batch(500))
	if len(batch.Failed) != 0 {
		b.Fatalf("preplay failures: %v", batch.Failed[0].Err)
	}
	reg, base := costly(plain), baseOf(st)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ValidateBatch(reg, base, batch.Schedule, batch.Results, 16)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(res.Writes)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(batch.Schedule)), "us/tx")
}

// BenchmarkCrossOrdered runs 64 ordered payments the two ways the
// executor can: over a committee's 4 shards, where a wave holds two
// transactions and everything runs inline, and over 64 shards, where
// waves are wide enough to fan out.
func BenchmarkCrossOrdered(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const accounts = 64
	reg := contract.NewRegistry()
	workload.RegisterSmallBank(reg)
	st := storage.New()
	workload.InitAccounts(st, accounts, 1_000_000, 1_000_000)
	for _, shards := range []int{4, 64} {
		rng := rand.New(rand.NewSource(7))
		var txs []*types.Transaction
		for len(txs) < 64 {
			x, y := rng.Intn(accounts), rng.Intn(accounts)
			if x%shards == y%shards {
				continue
			}
			txs = append(txs, &types.Transaction{
				Client: 1, Nonce: uint64(len(txs) + 1), Kind: types.CrossShard,
				Shards:   []types.ShardID{types.ShardID(x % shards), types.ShardID(y % shards)},
				Contract: workload.ContractSendPayment,
				Args:     [][]byte{[]byte(workload.AccountName(x)), []byte(workload.AccountName(y)), contract.EncodeInt64(1)},
			})
		}
		name := "shards4-inline"
		if shards == 64 {
			name = "shards64-fanout"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				outs, delta := runCross(reg, st, txs, 16)
				benchSink += len(outs) + len(delta)
			}
		})
	}
}
