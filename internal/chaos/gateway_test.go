// Gateway chaos scenarios: the client-facing subsystem under faults.
//
// The plateau scenario is the bounded-dedup acceptance test: waves of
// sessioned gateway load (each wave opens fresh sessions) commit
// thousands of transactions while every node's dedup state stays
// bounded by clients × window — where the old applied map grew by one
// digest per commit forever. A loss burst runs mid-load so the bound
// holds under retransmission pressure, and the full safety/liveness
// invariant suite stays green.
//
// The TCP scenario drives a real gateway.Client over real sockets:
// duplicate resubmits answered with an ack referencing the original
// commit, a proposer crash survived by failover + reconfiguration
// re-route, and a stale-epoch misroute corrected by one wire nack.
package chaos

import (
	"testing"
	"time"

	"thunderbolt/internal/gateway"
	"thunderbolt/internal/node"
	"thunderbolt/internal/transport"
	"thunderbolt/internal/types"
	"thunderbolt/internal/workload"
)

func TestScenarioGatewayDedupPlateau(t *testing.T) {
	const (
		nonceWindow = 64
		waves       = 3
		clients     = 4
	)
	h := newHarness(t, Options{
		N: 4, Seed: 118,
		GatewayClients: clients,
		NonceWindow:    nonceWindow,
	})
	h.Run([]Event{
		{Name: "loss burst", At: 200 * time.Millisecond, Do: []Fault{LossFault{Rate: 0.05}}},
		{Name: "clear", AfterPrev: 400 * time.Millisecond, Do: []Fault{ClearFaultsFault{}}},
	})
	var totalCommitted uint64
	for wave := 0; wave < waves; wave++ {
		rep := h.RunLoadAsync(LoadOptions{
			Duration: load(700 * time.Millisecond), Clients: clients,
			Workload:   workloadCfg(0.3, 0.2),
			ViaGateway: true,
		}).Wait()
		totalCommitted += rep.Committed
	}
	h.WaitSchedule()
	check(t, h.WaitQuiesced(budget))
	check(t, h.WaitConverged(budget))
	check(t, h.CheckSafety())
	check(t, h.CheckConservation())
	if totalCommitted < 100 {
		t.Fatalf("only %d commits across %d waves — the plateau claim is untested", totalCommitted, waves)
	}
	// Every wave opened fresh sessions (nonces start at 1 exactly once
	// per session), so the dedup bound is sessions × window — not one
	// entry per committed transaction. Each node may track at most the
	// sessions ever opened.
	maxSessions := waves*clients + clients // per-wave sessions + the gateway endpoints' own
	for _, i := range h.Cluster().Replicas() {
		err := h.Cluster().Node(i).Inspect(func(v *node.DebugView) {
			if v.DedupClients > maxSessions {
				t.Errorf("replica %d tracks %d dedup sessions, bound %d — state is not plateauing",
					i, v.DedupClients, maxSessions)
			}
		})
		check(t, err)
	}
	if totalCommitted < uint64(maxSessions) {
		t.Fatalf("commit volume (%d) below session bound (%d): plateau not demonstrated", totalCommitted, maxSessions)
	}
}

// gwTCPClient builds a real gateway client over its own TCPTransport
// against a tcpCommittee.
func gwTCPClient(t *testing.T, c *tcpCommittee, session uint64) *gateway.Client {
	t.Helper()
	tr, err := transport.NewTCPTransport(transport.TCPConfig{
		Self:   gateway.ClientIDBase + types.ReplicaID(session),
		Listen: "127.0.0.1:0", Peers: c.peers,
		DialTimeout: 250 * time.Millisecond, RetryInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	gw, err := gateway.NewClient(gateway.ClientConfig{
		Transport: tr, N: c.n, Session: session,
		AckTimeout: 300 * time.Millisecond, RetryEvery: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	return gw
}

// checkTCPSafety asserts no double commit and pairwise prefix
// consistency over the committee's retained commit logs (the live
// subset of replicas).
func checkTCPSafety(t *testing.T, c *tcpCommittee) {
	t.Helper()
	type snap struct {
		start uint64
		log   []node.CommitEntry
	}
	var snaps []snap
	for i := 0; i < c.n; i++ {
		if c.nodes[i] == nil {
			continue
		}
		start, log := c.nodes[i].CommitLog()
		seen := make(map[types.Digest]int, len(log))
		for pos, e := range log {
			if prev, dup := seen[e.ID]; dup {
				t.Fatalf("replica %d double-committed %v at %d and %d", i, e.ID, prev, pos)
			}
			seen[e.ID] = pos
		}
		snaps = append(snaps, snap{start: start, log: log})
	}
	for x := 0; x < len(snaps); x++ {
		for y := x + 1; y < len(snaps); y++ {
			a, b := snaps[x], snaps[y]
			lo := max(a.start, b.start)
			hi := min(a.start+uint64(len(a.log)), b.start+uint64(len(b.log)))
			for s := lo; s < hi; s++ {
				if a.log[s-a.start].ID != b.log[s-b.start].ID {
					t.Fatalf("commit sequences diverge at %d", s)
				}
			}
		}
	}
}

// TestScenarioGatewayTCPClient is the acceptance scenario for the
// wire client protocol over real sockets.
func TestScenarioGatewayTCPClient(t *testing.T) {
	const n = 4
	c := newTCPCommittee(t, n, 77)
	for _, nd := range c.nodes {
		nd.Start()
	}
	gw := gwTCPClient(t, c, 1)
	gen := workload.NewGenerator(workload.Config{
		Accounts: tcpTestAccounts, Shards: n, Seed: 13, Client: 1,
	})

	// Phase 1: plain commit + duplicate resubmit. The duplicate must
	// resolve via an ack referencing the original commit, not a second
	// execution.
	tx := gen.NextForShard(1)
	res, err := gw.SubmitWait(tx, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duplicate {
		t.Fatal("first submission answered as duplicate")
	}
	dup, err := gw.SubmitWait(tx.Clone(), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Duplicate {
		t.Fatal("TCP duplicate resubmit not answered with an original-commit ack")
	}

	// Phase 2: crash shard 2's proposer (process-level) and submit to
	// that shard. The client fails over past the dead socket; the
	// K-rule reconfiguration rotates the shard to a live proposer and
	// the client's re-route lands the commit.
	c.kill(2)
	tx2 := gen.NextForShard(2)
	res2, err := gw.SubmitWait(tx2, 60*time.Second)
	if err != nil {
		t.Fatalf("submission did not survive the proposer crash: %v", err)
	}
	if res2.Failovers == 0 && res2.Reroutes == 0 {
		t.Fatal("crash-path commit without failover or re-route")
	}

	// Phase 3: a fresh client with stale (epoch 0) routing submits
	// after the reconfiguration: it must be corrected by one wire
	// misroute nack and then commit.
	gw2 := gwTCPClient(t, c, 2)
	gen2 := workload.NewGenerator(workload.Config{
		Accounts: tcpTestAccounts, Shards: n, Seed: 14, Client: 2,
	})
	// Pick a single-shard transaction whose epoch-0 owner is alive but
	// wrong now: shard 0, served by replica 0 only in epochs ≡ 0 mod n.
	// With replica 2 dead the K-rule keeps rotating the committee (an
	// epoch every few tens of milliseconds), so submit early in an epoch
	// ≡ 1 — three rotations before replica 0 serves shard 0 again.
	deadline := time.Now().Add(10 * time.Second)
	for c.nodes[0].Stats().Epoch%n != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("committee stopped rotating at epoch %d", c.nodes[0].Stats().Epoch)
		}
		time.Sleep(time.Millisecond)
	}
	tx3 := gen2.NextForShard(0)
	res3, err := gw2.SubmitWait(tx3, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Reroutes == 0 && res3.Failovers == 0 {
		t.Fatal("stale-epoch submission committed without any wire correction")
	}

	// Phase 4: resubmit the transaction that committed through the
	// crash recovery. The session's nonce floor rode the epoch
	// transition with every live replica, so the post-reconfiguration
	// owner answers from the window — no second commit.
	dup2, err := gw.SubmitWait(tx2.Clone(), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !dup2.Duplicate {
		t.Fatal("post-reconfiguration duplicate not answered from the nonce window")
	}
	checkTCPSafety(t, c)
}
