package gateway_test

import (
	"testing"
	"time"

	"thunderbolt/internal/cluster"
	"thunderbolt/internal/gateway"
	"thunderbolt/internal/transport"
	"thunderbolt/internal/types"
	"thunderbolt/internal/workload"
)

func gwCluster(t *testing.T, cfg cluster.Config) *cluster.Cluster {
	t.Helper()
	if cfg.N == 0 {
		cfg.N = 4
	}
	if cfg.GatewayClients == 0 {
		cfg.GatewayClients = 2
	}
	cfg.Accounts = 64
	cfg.Seed = 11
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

// sessioned single-shard GetBalance for a shard, with explicit nonce.
func gwTx(gen *workload.Generator, shard types.ShardID) *types.Transaction {
	return gen.NextForShard(shard)
}

// TestClientCommitAndDuplicate: a wire client's submission commits
// with a push notification, and resubmitting the identical
// transaction afterwards resolves as a duplicate referencing the
// original — without a second commit.
func TestClientCommitAndDuplicate(t *testing.T) {
	c := gwCluster(t, cluster.Config{})
	gw := c.GatewayClient(0)
	gen := workload.NewGenerator(workload.Config{
		Accounts: 64, Shards: 4, Seed: 3, Client: c.NewSession(),
	})
	tx := gwTx(gen, 2)
	res, err := gw.SubmitWait(tx, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duplicate {
		t.Fatal("first submission reported as duplicate")
	}
	if !c.Committed(tx.ID()) {
		t.Fatal("committed notification without a cluster commit")
	}
	commits := c.Commits()
	dup, err := gw.SubmitWait(tx.Clone(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Duplicate {
		t.Fatal("resubmission not answered as a duplicate of the original commit")
	}
	if got := c.Commits(); got != commits {
		t.Fatalf("duplicate resubmission committed again (%d -> %d)", commits, got)
	}
}

// TestClientReroutesAfterReconfig: a client whose routing knowledge
// predates a reconfiguration submits to the old shard owner, receives
// a wire nack carrying the new owner, and commits after re-routing.
func TestClientReroutesAfterReconfig(t *testing.T) {
	c := gwCluster(t, cluster.Config{KPrime: 40})
	// Let at least one reconfiguration happen before the client's
	// first submission, so its epoch-0 routing guess is stale.
	deadline := time.Now().Add(15 * time.Second)
	for c.Reconfigurations() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no reconfiguration within 15s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	gw := c.GatewayClient(0)
	gen := workload.NewGenerator(workload.Config{
		Accounts: 64, Shards: 4, Seed: 5, Client: c.NewSession(),
	})
	tx := gwTx(gen, 1)
	res, err := gw.SubmitWait(tx, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reroutes == 0 {
		t.Fatal("stale-epoch submission committed without a wire re-route nack")
	}
	if !c.Committed(tx.ID()) {
		t.Fatal("transaction not committed after re-route")
	}
}

// TestClientFailsOverCrashedProposer: the shard owner is crashed; the
// client's submission gets no ack, fails over across replicas, and —
// once the committee shifts the dead proposer out — commits via the
// shard's new owner. The remote-client crash-survival path.
func TestClientFailsOverCrashedProposer(t *testing.T) {
	c := gwCluster(t, cluster.Config{K: 30})
	victim := types.ReplicaID(2) // owns shard 2 in epoch 0
	c.Network().Crash(victim)

	gw := c.GatewayClient(0)
	gen := workload.NewGenerator(workload.Config{
		Accounts: 64, Shards: 4, Seed: 7, Client: c.NewSession(),
	})
	tx := gwTx(gen, 2)
	res, err := gw.SubmitWait(tx, 30*time.Second)
	if err != nil {
		t.Fatalf("submission did not survive the proposer crash: %v", err)
	}
	if res.Failovers == 0 && res.Reroutes == 0 {
		t.Fatal("commit without any failover or re-route — the crash was not exercised")
	}
	if !c.Committed(tx.ID()) {
		t.Fatal("transaction not committed")
	}
}

// TestNewClientRequiresSession: replicas admit only sessioned
// transactions, so a client without a session is refused up front.
func TestNewClientRequiresSession(t *testing.T) {
	net := transport.NewSimNetwork(transport.SimConfig{N: 5, Committee: 4})
	t.Cleanup(net.Close)
	if _, err := gateway.NewClient(gateway.ClientConfig{Transport: net.Endpoint(4), N: 4}); err == nil {
		t.Fatal("NewClient accepted Session 0")
	}
}

// TestGatewayLoad drives a full closed-loop load through gateway
// clients (wire submission, acks, commit pushes) and requires it to
// commit like the in-process path does.
func TestGatewayLoad(t *testing.T) {
	c := gwCluster(t, cluster.Config{GatewayClients: 4})
	rep := c.RunLoad(cluster.LoadConfig{
		Duration: 500 * time.Millisecond, Clients: 4,
		Workload:   workload.Config{Theta: 0.5, ReadRatio: 0.5},
		ViaGateway: true, Timeout: 20 * time.Second,
	})
	if rep.Committed == 0 {
		t.Fatal("gateway-driven load committed nothing")
	}
}
