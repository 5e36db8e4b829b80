package node_test

import (
	"sync"
	"testing"
	"time"

	"thunderbolt/internal/cluster"
	"thunderbolt/internal/contract"
	"thunderbolt/internal/node"
	"thunderbolt/internal/transport"
	"thunderbolt/internal/types"
	"thunderbolt/internal/workload"
)

// fastCluster builds a small low-latency cluster for protocol tests.
func fastCluster(t *testing.T, cfg cluster.Config) *cluster.Cluster {
	t.Helper()
	if cfg.N == 0 {
		cfg.N = 4
	}
	if cfg.Latency == nil {
		cfg.Latency = transport.UniformLatency(100*time.Microsecond, 500*time.Microsecond)
	}
	if cfg.Accounts == 0 {
		cfg.Accounts = 64
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 64
	}
	if cfg.Executors == 0 {
		cfg.Executors = 4
	}
	if cfg.Validators == 0 {
		cfg.Validators = 4
	}
	if cfg.TickInterval == 0 {
		cfg.TickInterval = 5 * time.Millisecond
	}
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

func submitBatch(t *testing.T, c *cluster.Cluster, txs []*types.Transaction) {
	t.Helper()
	errs := make(chan error, len(txs))
	for _, tx := range txs {
		go func(tx *types.Transaction) {
			errs <- c.SubmitWait(tx, 2*time.Second, 30*time.Second)
		}(tx)
	}
	for range txs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestSingleShardCommitsAndConverges(t *testing.T) {
	c := fastCluster(t, cluster.Config{Seed: 1})
	gen := workload.NewGenerator(workload.Config{
		Accounts: 64, Shards: 4, Theta: 0.7, ReadRatio: 0.3, Seed: 1, Client: 1,
	})
	txs := gen.Batch(120)
	submitBatch(t, c, txs)
	for _, tx := range txs {
		if !c.Committed(tx.ID()) {
			t.Fatal("committed wait returned but commit not recorded")
		}
	}
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Every node executed through the CE pipeline: no validation
	// failures in an honest run.
	for i := 0; i < c.N(); i++ {
		st := c.Node(i).Stats()
		if st.ValidationFailures != 0 {
			t.Fatalf("replica %d saw %d validation failures", i, st.ValidationFailures)
		}
	}
}

func TestCrossShardAtomicityAndConservation(t *testing.T) {
	c := fastCluster(t, cluster.Config{Seed: 2, Accounts: 40})
	// Pure cross-shard transfers: total balance is conserved only if
	// every transfer executes exactly once on every replica.
	gen := workload.NewGenerator(workload.Config{
		Accounts: 40, Shards: 4, Theta: 0.5, ReadRatio: 0, CrossPct: 1.0, Seed: 2, Client: 1,
	})
	var txs []*types.Transaction
	for len(txs) < 80 {
		tx := gen.Next()
		if tx.Kind == types.CrossShard && tx.Contract == workload.ContractSendPayment {
			txs = append(txs, tx)
		}
	}
	before, err := workload.TotalBalance(c.Node(0).Store(), 40)
	if err != nil {
		t.Fatal(err)
	}
	submitBatch(t, c, txs)
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	after, err := workload.TotalBalance(c.Node(0).Store(), 40)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("cross-shard transfers broke conservation: %d -> %d", before, after)
	}
}

func TestMixedWorkloadConverges(t *testing.T) {
	c := fastCluster(t, cluster.Config{Seed: 3})
	gen := workload.NewGenerator(workload.Config{
		Accounts: 64, Shards: 4, Theta: 0.8, ReadRatio: 0.4, CrossPct: 0.2, Seed: 3, Client: 1,
	})
	submitBatch(t, c, gen.Batch(150))
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestSerialTuskMode(t *testing.T) {
	c := fastCluster(t, cluster.Config{Seed: 4, Mode: node.ModeSerial})
	gen := workload.NewGenerator(workload.Config{
		Accounts: 64, Shards: 4, Theta: 0.7, ReadRatio: 0.5, CrossPct: 0.1, Seed: 4, Client: 1,
	})
	submitBatch(t, c, gen.Batch(80))
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestOCCMode(t *testing.T) {
	c := fastCluster(t, cluster.Config{Seed: 5, Mode: node.ModeOCC})
	gen := workload.NewGenerator(workload.Config{
		Accounts: 64, Shards: 4, Theta: 0.7, ReadRatio: 0.5, Seed: 5, Client: 1,
	})
	submitBatch(t, c, gen.Batch(80))
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestPeriodicReconfigurationIsNonBlocking(t *testing.T) {
	// KPrime forces Shift votes every few dozen rounds; commits must
	// keep flowing across DAG transitions.
	c := fastCluster(t, cluster.Config{Seed: 6, KPrime: 30})
	gen := workload.NewGenerator(workload.Config{
		Accounts: 64, Shards: 4, Theta: 0.7, ReadRatio: 0.3, Seed: 6, Client: 1,
	})
	// Keep load flowing until at least two reconfigurations have
	// happened, proving commits continue across DAG transitions.
	deadline := time.Now().Add(60 * time.Second)
	for c.Reconfigurations() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d reconfigurations despite KPrime", c.Reconfigurations())
		}
		submitBatch(t, c, gen.Batch(20))
	}
	// And liveness persists after the rotations.
	submitBatch(t, c, gen.Batch(40))
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	t.Logf("reconfigurations: %d", c.Reconfigurations())
}

func TestCensorshipTriggersReconfiguration(t *testing.T) {
	// Crash one proposer; K-round silence must trigger Shift votes and
	// a shard rotation, restoring liveness for the censored shard.
	c := fastCluster(t, cluster.Config{Seed: 7, K: 6})
	victim := types.ReplicaID(2)
	c.Network().Crash(victim)

	gen := workload.NewGenerator(workload.Config{
		Accounts: 64, Shards: 4, Theta: 0.5, ReadRatio: 0.3, Seed: 7, Client: 1,
	})
	// Submit transactions for every shard, including the crashed
	// proposer's; client retries route them to the rotated proposer.
	var txs []*types.Transaction
	perShard := map[types.ShardID]int{}
	for len(txs) < 60 {
		tx := gen.Next()
		txs = append(txs, tx)
		perShard[tx.Shards[0]]++
	}
	for _, s := range []types.ShardID{0, 1, 2, 3} {
		if perShard[s] == 0 {
			t.Fatalf("workload produced no transactions for shard %d", s)
		}
	}
	errs := make(chan error, len(txs))
	for _, tx := range txs {
		go func(tx *types.Transaction) {
			errs <- c.SubmitWait(tx, 500*time.Millisecond, 60*time.Second)
		}(tx)
	}
	for range txs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if c.Reconfigurations() == 0 {
		t.Fatal("censored shard never rotated")
	}
	// Convergence among the live replicas (replicas commit the same
	// sequence but not at the same instant).
	if err := c.WaitConvergedAmong(15*time.Second, 0, 1, 3); err != nil {
		t.Fatalf("live replicas diverge: %v", err)
	}
	t.Logf("reconfigurations after censorship: %d", c.Reconfigurations())
}

func TestCommitOrderIdenticalAcrossReplicas(t *testing.T) {
	// Per-replica commit logs must be identical (safety §9): use the
	// storage commit log retained by each node... the stores don't
	// retain logs by default, so compare final state plus per-node
	// committed counts after quiescence.
	c := fastCluster(t, cluster.Config{Seed: 8})
	gen := workload.NewGenerator(workload.Config{
		Accounts: 64, Shards: 4, Theta: 0.9, ReadRatio: 0.2, CrossPct: 0.3, Seed: 8, Client: 1,
	})
	submitBatch(t, c, gen.Batch(100))
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// After convergence every replica must settle on the same
	// committed-transaction count.
	if err := c.WaitCommitCountsEqual(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestVMContractsThroughCluster(t *testing.T) {
	c := fastCluster(t, cluster.Config{Seed: 9, Accounts: 8})
	code, err := workload.SendPaymentProgram().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	smap := types.NewShardMap(4)
	var txs []*types.Transaction
	for i := 0; i < 12; i++ {
		src := workload.AccountName(i % 8)
		shard := smap.ShardOf(types.Key(src))
		// Self transfer keeps it single-shard regardless of pairing.
		txs = append(txs, &types.Transaction{
			Client: 9, Nonce: uint64(i + 1), Kind: types.SingleShard,
			Shards: []types.ShardID{shard}, Code: code,
			Args: [][]byte{[]byte(src), []byte(src), contract.EncodeInt64(1)},
		})
	}
	submitBatch(t, c, txs)
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// recoveryCounters sums the stall-recovery counters over the replicas.
func recoveryCounters(c *cluster.Cluster, replicas ...int) (rebroadcasts, pulls uint64) {
	for _, i := range replicas {
		s := c.Node(i).Metrics().Snapshot()
		rebroadcasts += s.Counters["stall_rebroadcasts"]
		pulls += s.Counters["round_pulls"]
	}
	return
}

// TestWANCommitteeSendsNoRecoveryTraffic: the stall threshold follows
// the measured certification latency, so a fault-free committee on
// 30–50 ms links — where one healthy round outlasts the two ticks that
// used to mean "stalled" — never rebroadcasts a block or pulls a round,
// while a replica whose peers really went silent still does both within
// a few latencies.
func TestWANCommitteeSendsNoRecoveryTraffic(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		N: 4, Seed: 9, Accounts: 64, BatchSize: 64, Executors: 4, Validators: 4,
		Latency: transport.WANModel(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	gen := workload.NewGenerator(workload.Config{
		Accounts: 64, Shards: 4, Theta: 0.7, ReadRatio: 0.3, Seed: 9, Client: 1,
	})
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		submitBatch(t, c, gen.Batch(8))
	}
	if rb, pulls := recoveryCounters(c, 0, 1, 2, 3); rb != 0 || pulls != 0 {
		t.Fatalf("healthy WAN committee sent recovery traffic: %d stall rebroadcasts, %d round pulls", rb, pulls)
	}
	est := time.Duration(c.Node(0).Metrics().Snapshot().Gauges["cert_latency_est_ns"])
	if est < 60*time.Millisecond || est > 200*time.Millisecond {
		t.Fatalf("certification latency estimate %v on 30-50 ms links, want about two one-way delays", est)
	}
	// Replica 0's peers go silent for real.
	c.Network().Isolate(0)
	defer c.Network().HealAll()
	for deadline := time.Now().Add(10 * est); ; time.Sleep(10 * time.Millisecond) {
		rb, pulls := recoveryCounters(c, 0)
		if rb > 0 && pulls > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("isolated replica: %d stall rebroadcasts, %d round pulls within %v (estimate %v)", rb, pulls, 10*est, est)
		}
	}
}

// TestFaultFreeCommitteeSendsNoCertificates: replicas certify from the
// broadcast votes, so a certificate travels only as a recovery reply —
// one per MsgCertReq, at most n per MsgRoundReq, to the replica that
// asked. A committee without faults puts no other MsgCert on the wire,
// inside a MsgBatch frame or alone; one there is the third message
// delay per round growing back. (A healthy committee sends no recovery
// requests either, but a loaded machine can starve a replica into a
// round pull, and the replies to that are certificates by design.)
func TestFaultFreeCommitteeSendsNoCertificates(t *testing.T) {
	const n = 4
	c, err := cluster.New(cluster.Config{
		N: n, Seed: 10, Accounts: 64, BatchSize: 64, Executors: 4, Validators: 4,
		Latency:      transport.UniformLatency(100*time.Microsecond, 500*time.Microsecond),
		TickInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu                   sync.Mutex
		asked                [n][n]int // certificates p may still send q: what q asked p for
		msgs, certs, unasked int
	)
	c.Network().SetInterceptor(func(from, to types.ReplicaID, mt transport.MsgType, p []byte) ([]byte, bool) {
		mu.Lock()
		defer mu.Unlock()
		count := func(mt transport.MsgType, _ []byte) {
			msgs++
			switch mt {
			case node.MsgCertReq:
				asked[to][from]++
			case node.MsgRoundReq:
				asked[to][from] += n
			case node.MsgCert:
				certs++
				if asked[from][to] == 0 {
					unasked++
				} else {
					asked[from][to]--
				}
			}
		}
		if mt == node.MsgBatch {
			_ = node.ForEachBatched(p, count)
		} else {
			count(mt, p)
		}
		return p, true
	})
	c.Start()
	defer c.Stop()
	gen := workload.NewGenerator(workload.Config{
		Accounts: 64, Shards: 4, Theta: 0.7, ReadRatio: 0.3, CrossPct: 0.2, Seed: 10, Client: 1,
	})
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		submitBatch(t, c, gen.Batch(50))
	}
	mu.Lock()
	defer mu.Unlock()
	if msgs == 0 {
		t.Fatal("no traffic reached the interceptor")
	}
	if unasked != 0 {
		t.Fatalf("fault-free committee sent %d MsgCert nobody asked for (%d certificates in %d messages)", unasked, certs, msgs)
	}
	t.Logf("%d messages, %d certificates (all recovery replies)", msgs, certs)
}
