package ce

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"thunderbolt/internal/contract"
	"thunderbolt/internal/depgraph"
	"thunderbolt/internal/types"
	"thunderbolt/internal/validate"
	"thunderbolt/internal/workload"
)

// TestSessionSteadyStateAllocs: a warm session pays per batch, not per
// transaction or per access. Beyond the values its contracts make, a
// batch of 100 transactions and one of 1 000 cost the same small
// constant: the result, its one slab of sets, and the fan-out. One
// executor makes the count exact (no conflict, no retry round); four
// add what conflicts cost per retry round — a layer plan and a fan-out
// — which grows with contention, not with the batch.
func TestSessionSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are the detector's")
	}
	for _, c := range []struct {
		executors int
		bound     float64
	}{{1, 10}, {4, 48}} {
		t.Run(fmt.Sprintf("executors=%d", c.executors), func(t *testing.T) {
			steadyStateAllocs(t, c.executors, c.bound)
		})
	}
}

// steadyStateAllocs runs a warm session on hot keys and fails when a
// batch allocates more than bound times beyond its contracts' values.
func steadyStateAllocs(t *testing.T, executors int, bound float64) {
	const nKeys = 32
	keys := make([]types.Key, nKeys)
	state := make(map[types.Key]types.Value, nKeys)
	for i := range keys {
		keys[i] = types.Key(workload.AccountName(i))
		state[keys[i]] = contract.EncodeInt64(int64(i))
	}
	// made counts the values the contracts allocate, one per write
	// attempted, aborted attempts included.
	var made atomic.Int64
	reg := contract.NewRegistry()
	reg.MustRegister(contract.Func{ContractName: "swap", Fn: func(st contract.State, args [][]byte) error {
		a, b := keys[args[0][0]], keys[args[1][0]]
		va, err := st.Read(a)
		if err != nil {
			return err
		}
		vb, err := st.Read(b)
		if err != nil {
			return err
		}
		na := append(types.Value(nil), vb...)
		made.Add(1)
		if err := st.Write(a, na); err != nil {
			return err
		}
		nb := append(types.Value(nil), va...)
		made.Add(1)
		return st.Write(b, nb)
	}})
	reg.MustRegister(contract.Func{ContractName: "get", Fn: func(st contract.State, args [][]byte) error {
		_, err := st.Read(keys[args[0][0]])
		return err
	}})
	rng := rand.New(rand.NewSource(1))
	nonce := uint64(0)
	batch := func(n int) []*types.Transaction {
		txs := make([]*types.Transaction, n)
		for i := range txs {
			nonce++
			a, b := byte(rng.Intn(nKeys)), byte(rng.Intn(nKeys))
			tx := &types.Transaction{Client: 1, Nonce: nonce, Contract: "swap", Args: [][]byte{{a}, {b}}}
			if i%4 == 0 {
				tx.Contract, tx.Args = "get", [][]byte{{a}}
			}
			tx.ID() // hashed here, not in the measured batch
			txs[i] = tx
		}
		return txs
	}
	s := New(Config{Executors: executors, Registry: reg}).NewSession()
	base := depgraph.BaseReader(func(k types.Key) types.Value { return state[k] })
	run := func(txs []*types.Transaction) {
		res := s.ExecuteBatch(base, txs)
		if len(res.Failed) > 0 {
			t.Fatalf("%d transactions failed: %v", len(res.Failed), res.Failed[0].Err)
		}
		// Apply, so the carried tips stay truthful; assigning to keys
		// the map holds allocates nothing.
		for i := range res.Results {
			for _, w := range res.Results[i].WriteSet {
				state[w.Key] = w.Value
			}
		}
	}
	// Warm-up: every node the free list holds grows to what its roles
	// need, which takes a few batches, since nodes come off the list in
	// no particular order.
	for _, n := range []int{1000, 1000, 1000, 1000, 1000, 1000, 100} {
		run(batch(n))
	}

	const batches = 10
	for _, n := range []int{100, 1000} {
		txs := make([][]*types.Transaction, batches)
		for i := range txs {
			txs[i] = batch(n)
		}
		var m0, m1 runtime.MemStats
		made.Store(0)
		runtime.ReadMemStats(&m0)
		for _, b := range txs {
			run(b)
		}
		runtime.ReadMemStats(&m1)
		own := (float64(m1.Mallocs-m0.Mallocs) - float64(made.Load())) / batches
		t.Logf("%d transactions: %.1f allocations per batch beyond %.0f contract values", n, own, float64(made.Load())/batches)
		if own > bound {
			t.Fatalf("a warm session allocates %.1f times per %d-transaction batch beyond its contracts' values, want at most %.0f", own, n, bound)
		}
	}
}

// TestResultsOutliveLaterBatches: a batch's results are its own. The
// values in batch N's read and write sets stay byte for byte what they
// were while batches N+1…N+3 run on the same session and recycle its
// nodes, with the carry kept and after Invalidate; and every later
// batch validates against the store, so the base values carried from
// one batch to the next are the store's.
func TestResultsOutliveLaterBatches(t *testing.T) {
	reg, st := newSmallBank(t, 8)
	s := New(Config{Executors: 4, Registry: reg}).NewSession()
	gen := workload.NewGenerator(workload.Config{Accounts: 8, Shards: 1, Theta: 0.8, ReadRatio: 0.3, Seed: 41})
	run := func(batch int) *BatchResult {
		res := s.ExecuteBatch(baseOf(st), gen.Batch(80))
		if len(res.Failed) > 0 {
			t.Fatalf("batch %d: %d transactions failed: %v", batch, len(res.Failed), res.Failed[0].Err)
		}
		v, err := validate.ValidateBatch(reg, validate.BaseReader(baseOf(st)), res.Schedule, res.Results, 4)
		if err != nil {
			t.Fatalf("batch %d does not validate against the store: %v", batch, err)
		}
		st.Apply(v.Writes)
		return res
	}
	for _, invalidate := range []bool{false, true} {
		first := run(0)
		kept := copyResults(first.Results)
		for b := 1; b <= 3; b++ {
			if invalidate {
				s.Invalidate()
			}
			run(b)
			for i := range kept {
				if !reflect.DeepEqual(first.Results[i], kept[i]) {
					t.Fatalf("invalidate=%v: after batch %d, result %d of batch 0 changed", invalidate, b, i)
				}
			}
		}
	}
}

// copyResults deep-copies results, sets and values included.
func copyResults(rs []types.TxResult) []types.TxResult {
	out := make([]types.TxResult, len(rs))
	cp := func(recs []types.RWRecord) []types.RWRecord {
		c := make([]types.RWRecord, len(recs))
		for i, r := range recs {
			c[i] = types.RWRecord{Key: r.Key, Value: r.Value.Clone()}
		}
		return c
	}
	for i, r := range rs {
		out[i] = r
		out[i].ReadSet, out[i].WriteSet = cp(r.ReadSet), cp(r.WriteSet)
	}
	return out
}
