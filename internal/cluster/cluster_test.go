package cluster

import (
	"sync"
	"testing"
	"time"

	"thunderbolt/internal/node"
	"thunderbolt/internal/transport"
	"thunderbolt/internal/types"
	"thunderbolt/internal/workload"
)

func testCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	if cfg.N == 0 {
		cfg.N = 4
	}
	if cfg.Accounts == 0 {
		cfg.Accounts = 32
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 32
	}
	cfg.Executors = 2
	cfg.Validators = 2
	cfg.Latency = transport.UniformLatency(50*time.Microsecond, 200*time.Microsecond)
	cfg.TickInterval = 5 * time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

func TestSubmitBeforeStartFails(t *testing.T) {
	c, err := New(Config{N: 4, Accounts: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	tx := &types.Transaction{Client: 1, Nonce: 1, Kind: types.SingleShard,
		Shards: []types.ShardID{0}, Contract: workload.ContractGetBalance,
		Args: [][]byte{[]byte(workload.AccountName(0))}}
	if err := c.Submit(tx); err == nil {
		t.Fatal("submit before Start accepted")
	}
}

func TestSubmitWaitStampsAndCommits(t *testing.T) {
	c := testCluster(t, Config{Seed: 1})
	tx := &types.Transaction{Client: 1, Nonce: 1, Kind: types.SingleShard,
		Shards:   []types.ShardID{types.NewShardMap(4).ShardOf(types.Key(workload.AccountName(0)))},
		Contract: workload.ContractDepositChecking,
		Args:     [][]byte{[]byte(workload.AccountName(0)), []byte{0, 0, 0, 0, 0, 0, 0, 5}}}
	if err := c.SubmitWait(tx, time.Second, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if tx.SubmitUnixNano == 0 {
		t.Fatal("submit time not stamped")
	}
	if !c.Committed(tx.ID()) {
		t.Fatal("commit not tracked")
	}
	// Second wait on an already-committed tx returns immediately.
	if err := c.SubmitWait(tx, time.Second, time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitWaitLateCommitMissesReusedWaiter: a SubmitWait that gives
// up hands its waiter back only after taking it out of c.waiters, so
// when its transaction commits afterwards, the signal cannot reach the
// call that reuses the waiter. No replica is built, so nothing commits
// but what the test commits itself.
func TestSubmitWaitLateCommitMissesReusedWaiter(t *testing.T) {
	c, err := New(Config{N: 4, Accounts: 8, Headless: []int{0, 1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	tx := func(nonce uint64) *types.Transaction {
		// Stamped here: Submit then leaves it alone, and the commit
		// made on another goroutine reads it.
		return &types.Transaction{Client: 1, Nonce: nonce, Kind: types.SingleShard,
			Shards: []types.ShardID{0}, Contract: workload.ContractGetBalance,
			Args: [][]byte{[]byte(workload.AccountName(0))}, SubmitUnixNano: time.Now().UnixNano()}
	}
	spare := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.spare)
	}

	first := tx(1)
	if err := c.SubmitWait(first, time.Millisecond, 5*time.Millisecond); err == nil {
		t.Fatal("committed with no replica")
	}
	if n := spare(); n != 1 || len(c.PendingWaits()) != 0 {
		t.Fatalf("after a timeout: %d spare waiters, %d pending waits; want 1 and 0", n, len(c.PendingWaits()))
	}
	c.onCommit(first, time.Now()) // the late commit

	// The next call reuses the waiter; only its own commit may end it.
	if err := c.SubmitWait(tx(2), time.Millisecond, 20*time.Millisecond); err == nil {
		t.Fatal("the previous transaction's late commit ended the next wait")
	}
	third := tx(3)
	go func() {
		for len(c.PendingWaits()) == 0 {
			time.Sleep(time.Millisecond)
		}
		c.onCommit(third, time.Now())
	}()
	if err := c.SubmitWait(third, time.Millisecond, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if n := spare(); n != 1 {
		t.Fatalf("%d spare waiters after three sequential calls, want 1", n)
	}
}

func TestSubmitWaitTimesOutForImpossibleTx(t *testing.T) {
	c := testCluster(t, Config{Seed: 2})
	// A contract failure never commits; SubmitWait must report it.
	tx := &types.Transaction{Client: 1, Nonce: 9, Kind: types.SingleShard,
		Shards: []types.ShardID{0}, Contract: "no.such.contract"}
	err := c.SubmitWait(tx, 200*time.Millisecond, time.Second)
	if err == nil {
		t.Fatal("impossible transaction reported committed")
	}
}

func TestRunLoadProducesReport(t *testing.T) {
	c := testCluster(t, Config{Seed: 3})
	rep := c.RunLoad(LoadConfig{
		Duration: 400 * time.Millisecond, Clients: 4,
		Workload:   workload.Config{Theta: 0.5, ReadRatio: 0.5},
		RetryEvery: time.Second, Timeout: 20 * time.Second,
	})
	if rep.Committed == 0 || rep.TPS <= 0 {
		t.Fatalf("no throughput: %+v", rep)
	}
	if rep.Latency.Count == 0 || rep.Latency.Mean <= 0 {
		t.Fatalf("no latency: %+v", rep.Latency)
	}
	if len(rep.NodeStats) != 4 {
		t.Fatalf("node stats missing: %d", len(rep.NodeStats))
	}
	if rep.String() == "" {
		t.Fatal("report renders empty")
	}
}

func TestProposerOfMatchesNode(t *testing.T) {
	for e := types.Epoch(0); e < 9; e++ {
		for s := types.ShardID(0); s < 4; s++ {
			p := ProposerOf(s, e, 4)
			if node.MyShard(p, e, 4) != s {
				t.Fatalf("epoch %d shard %d: proposer %d does not own it", e, s, p)
			}
		}
	}
}

func TestConvergedDetectsDivergence(t *testing.T) {
	c := testCluster(t, Config{Seed: 4})
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatalf("fresh cluster should converge: %v", err)
	}
	// Poison one replica's store.
	c.Node(1).Store().Set("poison", types.Value("x"))
	if err := c.Converged(); err == nil {
		t.Fatal("divergence not detected")
	}
}

func TestWaveSeriesRecorded(t *testing.T) {
	c := testCluster(t, Config{Seed: 5})
	rep := c.RunLoad(LoadConfig{
		Duration: 300 * time.Millisecond, Clients: 2,
		Workload: workload.Config{Theta: 0.5, ReadRatio: 0.5},
	})
	_ = rep
	if len(c.WaveSeries().Points()) == 0 {
		t.Fatal("no commit-wave samples recorded")
	}
}

// TestNegativeAckRescuesDroppedTransactions forces shard rotations
// under load with a client retry timer far beyond the test budget:
// transactions dropped at a reconfiguration (queue unclaimed,
// misroutes to rotated-away proposers) can then only commit through
// the proposer-side negative-ack's immediate re-route. Before the
// nack existed, these clients stalled until their retry timer.
func TestNegativeAckRescuesDroppedTransactions(t *testing.T) {
	c := testCluster(t, Config{Seed: 9, KPrime: 25})
	gen := workload.NewGenerator(workload.Config{
		Accounts: 32, Shards: 4, Theta: 0.7, ReadRatio: 0.3, Seed: 9, Client: 1,
	})
	var wg sync.WaitGroup
	errs := make(chan error, 512)
	deadline := time.Now().Add(60 * time.Second)
	for c.Reconfigurations() < 2 && time.Now().Before(deadline) {
		for i := 0; i < 16; i++ {
			tx := gen.Next()
			wg.Add(1)
			go func() {
				defer wg.Done()
				// RetryEvery 5min: the client never retries on its own
				// within the test; only the nack path can rescue a drop.
				if err := c.SubmitWait(tx, 5*time.Minute, 30*time.Second); err != nil {
					errs <- err
				}
			}()
		}
		wg.Wait()
	}
	close(errs)
	for err := range errs {
		t.Fatalf("transaction starved despite negative-ack: %v", err)
	}
	if c.Reconfigurations() < 2 {
		t.Fatalf("only %d reconfigurations despite KPrime", c.Reconfigurations())
	}
	t.Logf("reconfigurations: %d, nack resubmissions: %d", c.Reconfigurations(), c.Nacks())
}
