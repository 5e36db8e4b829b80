package node_test

import (
	"testing"
	"time"

	"thunderbolt/internal/cluster"
	"thunderbolt/internal/contract"
	"thunderbolt/internal/types"
	"thunderbolt/internal/workload"
)

// speculationStats sums the speculative-execution counters across a
// cluster's replicas.
func speculationStats(c *cluster.Cluster) (hits, misses, wasted uint64) {
	for i := 0; i < c.N(); i++ {
		st := c.Node(i).Stats()
		hits += st.SpecHits
		misses += st.SpecMisses
		wasted += st.SpecWastedTxs
	}
	return
}

// TestSpeculationDifferentialAgainstColdExecution is the differential
// check behind the speculation contract: the same workload driven
// through a speculating cluster (with SpecVerify re-deriving every hit
// at commit time) and through a cluster that runs every wave at commit
// time (speculation off — same code, no predictions) must leave
// bit-identical final state. SpecVerify demotes any hit whose result
// differs from the commit-time re-run to a miss, so hits > 0 means
// every installed prediction was proven equal to a commit-time run,
// not just assumed.
func TestSpeculationDifferentialAgainstColdExecution(t *testing.T) {
	spec := fastCluster(t, cluster.Config{Seed: 41, SpecVerify: true})
	cold := fastCluster(t, cluster.Config{Seed: 41, SpecExecDepth: -1})

	gen := workload.NewGenerator(workload.Config{
		Accounts: 64, Shards: 4, Theta: 0.8, ReadRatio: 0.3, CrossPct: 0.2, Seed: 41, Client: 1,
	})
	txs := gen.Batch(200)
	// Clone the transactions for the second cluster: submission stamps
	// SubmitUnixNano in place.
	coldTxs := make([]*types.Transaction, len(txs))
	for i, tx := range txs {
		cp := *tx
		coldTxs[i] = &cp
	}
	submitBatch(t, spec, txs)
	submitBatch(t, cold, coldTxs)
	if err := spec.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := cold.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Same transactions committed → bit-identical state, speculating
	// or not.
	specStore, coldStore := spec.Node(0).Store(), cold.Node(0).Store()
	if specStore.Len() != coldStore.Len() {
		t.Fatalf("speculating cluster has %d keys, cold cluster %d", specStore.Len(), coldStore.Len())
	}
	for _, k := range specStore.Keys() {
		a, _ := specStore.Get(k)
		b, _ := coldStore.Get(k)
		if !a.Equal(b) {
			t.Fatalf("state diverges at %s: spec=%q cold=%q", k, a, b)
		}
	}

	hits, _, _ := speculationStats(spec)
	if hits == 0 {
		t.Fatal("speculating cluster recorded no spec hits under a fault-free LAN load")
	}
	coldHits, coldMisses, _ := speculationStats(cold)
	if coldHits != 0 || coldMisses != 0 {
		t.Fatalf("disabled speculation still recorded hits=%d misses=%d", coldHits, coldMisses)
	}
	// Validation failures are NOT asserted zero here: the mixed
	// workload can race a cross-shard commit against a preplay (the
	// P3/P4 hazard), which discards a block whether the wave runs at
	// commit time or ahead of it. The state identity above is the real
	// differential claim.
}

// TestSpeculationSurvivesReconfiguration forces Shift reconfigurations
// under a speculating cluster: predictions bound to a dying epoch's
// DAG must be discarded at the transition, never installed into the
// next epoch.
func TestSpeculationSurvivesReconfiguration(t *testing.T) {
	c := fastCluster(t, cluster.Config{Seed: 42, KPrime: 30, SpecVerify: true})
	gen := workload.NewGenerator(workload.Config{
		Accounts: 64, Shards: 4, Theta: 0.7, ReadRatio: 0.3, Seed: 42, Client: 1,
	})
	deadline := time.Now().Add(60 * time.Second)
	for c.Reconfigurations() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d reconfigurations despite KPrime", c.Reconfigurations())
		}
		submitBatch(t, c, gen.Batch(20))
	}
	submitBatch(t, c, gen.Batch(40))
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if hits, _, _ := speculationStats(c); hits == 0 {
		t.Fatal("no spec hits across reconfigurations")
	}
}

// TestSpeculationSameSessionIdentityRace is the cluster-level variant of
// the within-wave dedup regression (wave_test.go): pairs of distinct
// transactions carrying one (client, nonce) are submitted at the same
// moment to two different shard proposers, so both usually land in one
// wave. Dedup's rule lets exactly one of each pair commit. Before the
// run/install unification a replica that hit its prediction committed
// both while one that missed committed one. Which of a pair wins is a
// timing matter, so the speculating and the non-speculating cluster are
// compared on what is well defined: every replica of each cluster ends
// bit-identical, each pair applied exactly once on both, and the two
// clusters hold the same total balance.
func TestSpeculationSameSessionIdentityRace(t *testing.T) {
	const pairs, amount = 30, 5
	deposit := func(nonce uint64, shard types.ShardID, account int) *types.Transaction {
		return &types.Transaction{
			Client: 77, Nonce: nonce, Kind: types.SingleShard, Shards: []types.ShardID{shard},
			Contract: workload.ContractDepositChecking,
			Args:     [][]byte{[]byte(workload.AccountName(account)), contract.EncodeInt64(amount)},
		}
	}
	checking := func(c *cluster.Cluster, replica, account int) int64 {
		v, _ := c.Node(replica).Store().Get(workload.CheckingKey(workload.AccountName(account)))
		x, err := contract.DecodeInt64(v)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	var totals []int64
	for _, cfg := range []cluster.Config{
		{Seed: 43, SpecVerify: true},
		{Seed: 43, SpecExecDepth: -1},
	} {
		c := fastCluster(t, cfg)
		before := checking(c, 0, 0)
		// IDs are taken before submission: the digest cache is
		// unsynchronized and the proposer owns the transaction afterwards.
		type pair struct{ a, b types.Digest }
		var ps []pair
		for p := 0; p < pairs; p++ {
			a, b := deposit(uint64(p+1), 0, 2*p), deposit(uint64(p+1), 1, 2*p+1)
			ps = append(ps, pair{a.ID(), b.ID()})
			if err := c.Submit(a); err != nil {
				t.Fatal(err)
			}
			if err := c.Submit(b); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(20 * time.Second)
		for _, p := range ps {
			for !c.Committed(p.a) && !c.Committed(p.b) {
				if time.Now().After(deadline) {
					t.Fatalf("SpecExecDepth=%d: a pair never committed", cfg.SpecExecDepth)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
		if err := c.WaitCommitCountsEqual(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := c.WaitConverged(10 * time.Second); err != nil {
			t.Fatalf("SpecExecDepth=%d: replicas diverged: %v", cfg.SpecExecDepth, err)
		}
		for i, p := range ps {
			if c.Committed(p.a) && c.Committed(p.b) {
				t.Fatalf("SpecExecDepth=%d: both transactions of pair %d committed", cfg.SpecExecDepth, i)
			}
			for r := 0; r < c.N(); r++ {
				if got := checking(c, r, 2*i) + checking(c, r, 2*i+1); got != 2*before+amount {
					t.Fatalf("SpecExecDepth=%d: replica %d applied pair %d %d times", cfg.SpecExecDepth, r, i, (got-2*before)/amount)
				}
			}
		}
		total, err := workload.TotalBalance(c.Node(0).Store(), 64)
		if err != nil {
			t.Fatal(err)
		}
		totals = append(totals, total)
	}
	if totals[0] != totals[1] {
		t.Fatalf("total balance: speculating cluster %d, commit-time cluster %d", totals[0], totals[1])
	}
}
