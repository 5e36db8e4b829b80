package node_test

import (
	"testing"
	"time"

	"thunderbolt/internal/cluster"
	"thunderbolt/internal/contract"
	"thunderbolt/internal/types"
	"thunderbolt/internal/workload"
)

// TestSameSessionIdentityRace is the cluster-level variant of the
// within-wave dedup rows of TestWaveRunOnceInstallOnce: pairs of
// distinct transactions carrying one (client, nonce) are submitted at
// the same moment to two different shard proposers, so both usually
// land in one wave. Dedup's rule lets at most one of each pair commit.
// Which one wins is a timing matter; what is well defined is that every
// replica applies each pair exactly once and all of them end
// bit-identical.
func TestSameSessionIdentityRace(t *testing.T) {
	const pairs, amount = 30, 5
	deposit := func(nonce uint64, shard types.ShardID, account int) *types.Transaction {
		return &types.Transaction{
			Client: 77, Nonce: nonce, Kind: types.SingleShard, Shards: []types.ShardID{shard},
			Contract: workload.ContractDepositChecking,
			Args:     [][]byte{[]byte(workload.AccountName(account)), contract.EncodeInt64(amount)},
		}
	}
	c := fastCluster(t, cluster.Config{Seed: 43})
	checking := func(replica, account int) int64 {
		v, _ := c.Node(replica).Store().Get(workload.CheckingKey(workload.AccountName(account)))
		x, err := contract.DecodeInt64(v)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	before := checking(0, 0)
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
				t.Fatal("a pair never committed")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if err := c.WaitCommitCountsEqual(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatalf("replicas diverged: %v", err)
	}
	for i, p := range ps {
		if c.Committed(p.a) && c.Committed(p.b) {
			t.Fatalf("both transactions of pair %d committed", i)
		}
		for r := 0; r < c.N(); r++ {
			if got := checking(r, 2*i) + checking(r, 2*i+1); got != 2*before+amount {
				t.Fatalf("replica %d applied pair %d %d times", r, i, (got-2*before)/amount)
			}
		}
	}
}
