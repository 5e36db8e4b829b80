// The chaos scenario suite: each scenario drives a real SmallBank
// workload (cluster.RunLoad) against a live committee while a fault
// schedule runs, then asserts safety invariants (conservation,
// commit-sequence agreement, no double-commit) and liveness
// invariants (post-heal convergence within a budget, commit flow,
// reconfiguration completion).
//
// Every scenario prints its master seed; rerun a failure with
// CHAOS_SEED=<seed> go test -run <Name> ./internal/chaos to replay
// the same fault decisions and workload stream. -short halves the
// load windows for CI fast paths.
package chaos

import (
	"testing"
	"time"

	"thunderbolt/internal/node"
	"thunderbolt/internal/types"
	"thunderbolt/internal/workload"
)

// newHarness builds, seeds, and starts a harness, wiring failure
// reports (seed + applied-fault log) into the test.
func newHarness(t *testing.T, opt Options) *Harness {
	t.Helper()
	opt.Seed = SeedFromEnv(opt.Seed)
	h, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("chaos: seed %d (replay: CHAOS_SEED=%d go test -run %s ./internal/chaos)",
		opt.Seed, opt.Seed, t.Name())
	t.Cleanup(func() {
		if t.Failed() {
			for _, e := range h.EventLog() {
				t.Log(e)
			}
			// Per-node protocol traces: what each replica was doing
			// (propose/vote/cert/commit/...) when the invariant broke.
			t.Log(h.FlightDump(flightDumpTail))
		}
		h.Stop()
	})
	h.Start()
	return h
}

// flightDumpTail is how many flight-recorder events per node a failure
// report includes — enough to cover the last few commit waves without
// drowning the fault log.
const flightDumpTail = 40

// load scales a duration for -short runs.
func load(d time.Duration) time.Duration {
	if testing.Short() {
		return d / 2
	}
	return d
}

// budget is the ceiling for liveness waits; generous because the race
// detector can slow the world several-fold.
const budget = 30 * time.Second

// check fails the test on a violated invariant.
func check(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Error(err)
	}
}

// quiesceAndCheckAll is the common scenario epilogue for full-cluster
// recovery: all replicas quiesce, converge, and satisfy every safety
// invariant.
func quiesceAndCheckAll(t *testing.T, h *Harness) {
	t.Helper()
	check(t, h.WaitQuiesced(budget))
	check(t, h.WaitConverged(budget))
	check(t, h.CheckSafety())
	check(t, h.CheckConservation())
}

// TestScenarioPartitionDuringCrossShardCommit isolates one replica in
// the middle of a purely cross-shard transfer stream. Cross-shard
// atomicity is where a torn commit would show up as a conservation
// violation; the isolated replica must recover the missed DAG suffix
// after healing and land on identical state.
func TestScenarioPartitionDuringCrossShardCommit(t *testing.T) {
	h := newHarness(t, Options{N: 4, Seed: 101})
	h.Run([]Event{
		{Name: "isolate 3 mid-load", At: 300 * time.Millisecond,
			Do: []Fault{IsolateFault{Victim: 3}}},
		{Name: "heal", AfterPrev: 900 * time.Millisecond,
			Do: []Fault{HealAllFault{}}},
	})
	rep := h.RunLoadAsync(LoadOptions{
		Duration: load(2 * time.Second), Clients: 8,
		Workload: workloadCfg(0.2, 1.0),
	}).Wait()
	if rep.Committed == 0 {
		t.Fatal("no transactions committed under partition schedule")
	}
	h.WaitSchedule()
	quiesceAndCheckAll(t, h)
}

// TestScenarioShardProposerCrashMidEpoch crashes a shard proposer and
// leaves it down. The K-round silence rule must trigger a
// reconfiguration that rotates the censored shard to a live proposer
// (liveness), while the survivors keep a consistent, conserving
// committed sequence and the dead replica's log stays a clean prefix.
func TestScenarioShardProposerCrashMidEpoch(t *testing.T) {
	h := newHarness(t, Options{N: 4, Seed: 102, K: 6})
	victim := types.ReplicaID(2)
	h.Run([]Event{
		{Name: "crash proposer", At: 300 * time.Millisecond,
			Do: []Fault{CrashFault{Victim: victim}}},
	})
	done := h.RunLoadAsync(LoadOptions{
		Duration: load(2 * time.Second), Clients: 8,
		Workload: workloadCfg(0.3, 0.2),
	})
	check(t, h.WaitReconfigs(1, budget))
	// No starvation: every client transaction — including the censored
	// shard's — must commit via the rotated proposer.
	check(t, h.WaitNoPendingClients(budget))
	done.Wait()
	live := []int{0, 1, 3}
	check(t, h.WaitQuiesced(budget, live...))
	check(t, h.WaitConverged(budget, live...))
	// Safety holds across all four: the victim's log is a prefix and
	// its last applied state still conserves.
	check(t, h.CheckSafety())
	check(t, h.CheckConservation())
}

// TestScenarioCrashRestartUnderLoad crashes a replica under sustained
// load and restarts it in the same epoch. The restarted replica must
// recover its missed causal history through round pulls and
// reconverge fully.
func TestScenarioCrashRestartUnderLoad(t *testing.T) {
	h := newHarness(t, Options{N: 4, Seed: 103})
	h.Run([]Event{
		{Name: "crash 1", At: 300 * time.Millisecond,
			Do: []Fault{CrashFault{Victim: 1}}},
		{Name: "restart 1", AfterPrev: 800 * time.Millisecond,
			Do: []Fault{RestartFault{Victim: 1}}},
	})
	rep := h.RunLoadAsync(LoadOptions{
		Duration: load(2500 * time.Millisecond), Clients: 8,
		Workload: workloadCfg(0.3, 0.2),
	}).Wait()
	if rep.Committed == 0 {
		t.Fatal("no transactions committed around the crash window")
	}
	h.WaitSchedule()
	quiesceAndCheckAll(t, h)
}

// TestScenarioReconfigUnderPartition forces periodic reconfigurations
// (K') while one replica is partitioned away. DAG transitions must
// complete and commits must keep flowing on the majority despite the
// missing member; after healing, the partitioned replica — stranded
// in an earlier epoch whose DAG the peers have discarded — must
// recover through the cross-epoch snapshot protocol: verify f+1
// matching transition snapshots, jump into the committee's epoch, and
// commit new transactions. (Before state transfer shipped, this
// scenario merely tolerated the stranded replica.)
func TestScenarioReconfigUnderPartition(t *testing.T) {
	h := newHarness(t, Options{N: 4, Seed: 104, KPrime: 20,
		MinRoundInterval: 5 * time.Millisecond})
	h.Run([]Event{
		{Name: "isolate 3", At: 300 * time.Millisecond,
			Do: []Fault{IsolateFault{Victim: 3}}},
		{Name: "heal after reconfig", When: AfterReconfigs(1), AfterPrev: 500 * time.Millisecond,
			Do: []Fault{HealAllFault{}}},
	})
	done := h.RunLoadAsync(LoadOptions{
		Duration: load(2 * time.Second), Clients: 8,
		Workload: workloadCfg(0.3, 0.1),
	})
	check(t, h.WaitReconfigs(1, budget))
	check(t, h.WaitNoPendingClients(budget))
	done.Wait()
	h.WaitSchedule()
	// Rejoin: the stranded replica must enter a post-transition epoch
	// via a snapshot install, then commit new work — proven by a
	// second load window that has to quiesce and converge on all four
	// replicas, stranding excluded.
	check(t, h.WaitReplicaEpoch(3, 1, budget))
	rep := h.RunLoadAsync(LoadOptions{
		Duration: load(time.Second), Clients: 4,
		Workload: workloadCfg(0.3, 0.1),
	}).Wait()
	if rep.Committed == 0 {
		t.Fatal("no transactions committed after the stranded replica healed")
	}
	quiesceAndCheckAll(t, h)
	if jumps := h.Cluster().Node(3).Stats().EpochJumps; jumps == 0 {
		t.Error("replica 3 rejoined without a snapshot epoch-jump — scenario no longer exercises state transfer")
	}
}

// TestScenarioCrashAcrossReconfig is the crash-flavoured stranding:
// a replica is network-crashed while K-silence reconfigurations rotate
// its shard away, and is only restarted epochs later. On restart its
// in-epoch catch-up requests reference a discarded DAG; it must detect
// the epoch floor, fetch and verify transition snapshots, and jump.
func TestScenarioCrashAcrossReconfig(t *testing.T) {
	h := newHarness(t, Options{N: 4, Seed: 109, K: 8,
		MinRoundInterval: 5 * time.Millisecond})
	victim := types.ReplicaID(1)
	h.Run([]Event{
		{Name: "crash 1", At: 300 * time.Millisecond,
			Do: []Fault{CrashFault{Victim: victim}}},
		{Name: "restart after reconfig", When: AfterReconfigs(1), AfterPrev: 400 * time.Millisecond,
			Do: []Fault{RestartFault{Victim: victim}}},
	})
	done := h.RunLoadAsync(LoadOptions{
		Duration: load(2 * time.Second), Clients: 8,
		Workload: workloadCfg(0.3, 0.2),
	})
	check(t, h.WaitReconfigs(1, budget))
	check(t, h.WaitNoPendingClients(budget))
	done.Wait()
	h.WaitSchedule()
	check(t, h.WaitReplicaEpoch(int(victim), 1, budget))
	quiesceAndCheckAll(t, h)
	if jumps := h.Cluster().Node(int(victim)).Stats().EpochJumps; jumps == 0 {
		t.Error("restarted replica rejoined without a snapshot epoch-jump")
	}
}

// TestScenarioAsymmetricLinkLoss degrades one link pair asymmetrically
// (60% loss one way, 30% the other) under the OCC pipeline. Losses
// delay but must never tear or reorder commits; after clearing, the
// cluster reconverges fully.
func TestScenarioAsymmetricLinkLoss(t *testing.T) {
	h := newHarness(t, Options{N: 4, Seed: 105, Mode: node.ModeOCC})
	h.Run([]Event{
		{Name: "degrade 0<->1", At: 200 * time.Millisecond,
			Do: []Fault{LinkLossFault{A: 0, B: 1, Rate: 0.6}, LinkLossFault{A: 1, B: 0, Rate: 0.3}}},
		{Name: "clear", AfterPrev: 1200 * time.Millisecond,
			Do: []Fault{ClearFaultsFault{}}},
	})
	h.RunLoadAsync(LoadOptions{
		Duration: load(2 * time.Second), Clients: 8,
		Workload: workloadCfg(0.3, 0.3),
	}).Wait()
	h.WaitSchedule()
	quiesceAndCheckAll(t, h)
}

// TestScenarioRollingRestarts takes every replica down and back up,
// one at a time, under continuous load — the rolling-upgrade shape.
// Each restarted replica recovers in-epoch; the cluster must end
// fully converged with conservation intact.
func TestScenarioRollingRestarts(t *testing.T) {
	h := newHarness(t, Options{N: 4, Seed: 106})
	var sched []Event
	for i := 0; i < 4; i++ {
		v := types.ReplicaID(i)
		sched = append(sched,
			Event{Name: "crash", AfterPrev: 250 * time.Millisecond, Do: []Fault{CrashFault{Victim: v}}},
			Event{Name: "restart", AfterPrev: 400 * time.Millisecond, Do: []Fault{RestartFault{Victim: v}}},
		)
	}
	h.Run(sched)
	h.RunLoadAsync(LoadOptions{
		Duration: load(3 * time.Second), Clients: 8,
		Workload: workloadCfg(0.3, 0.2),
	}).Wait()
	h.WaitSchedule()
	quiesceAndCheckAll(t, h)
}

// TestScenarioLossDupLatencyBurst floods the whole network with a
// combined fault burst — 25% loss, 25% duplication, +3ms latency —
// under the serial (Tusk) pipeline. Duplicated deliveries are the
// classic double-commit trap; the commit logs must stay
// duplicate-free and the cluster must recover to full convergence.
func TestScenarioLossDupLatencyBurst(t *testing.T) {
	h := newHarness(t, Options{N: 4, Seed: 107, Mode: node.ModeSerial})
	h.Run([]Event{
		{Name: "burst", At: 300 * time.Millisecond,
			Do: []Fault{LossFault{Rate: 0.25}, DuplicateFault{Rate: 0.25}, LatencySpikeFault{Extra: 3 * time.Millisecond}}},
		{Name: "clear", AfterPrev: time.Second,
			Do: []Fault{ClearFaultsFault{}}},
	})
	h.RunLoadAsync(LoadOptions{
		Duration: load(2 * time.Second), Clients: 8,
		Workload: workloadCfg(0.3, 0.2),
	}).Wait()
	h.WaitSchedule()
	quiesceAndCheckAll(t, h)
}

// TestScenarioSplitBrainStall partitions the committee 2|2 — no side
// holds a certificate quorum, so commits stall entirely — and heals
// after a beat. The trigger fires off live cluster state (commit
// count) rather than wall clock. Healing must restore liveness from a
// total stall: wedged proposals are rebroadcast, quorums reform, and
// the backlog drains with no double-commits.
func TestScenarioSplitBrainStall(t *testing.T) {
	h := newHarness(t, Options{N: 4, Seed: 108})
	h.Run([]Event{
		{Name: "split 2|2", When: AfterCommits(150),
			Do: []Fault{PartitionFault{Groups: [][]types.ReplicaID{{0, 1}, {2, 3}}}}},
		{Name: "heal", AfterPrev: 700 * time.Millisecond,
			Do: []Fault{HealAllFault{}}},
	})
	done := h.RunLoadAsync(LoadOptions{
		Duration: load(2 * time.Second), Clients: 8,
		Workload: workloadCfg(0.3, 0.2),
	})
	h.WaitSchedule()
	// Liveness after a total stall: every transaction stranded by the
	// split must commit once quorums reform.
	check(t, h.WaitNoPendingClients(budget))
	done.Wait()
	quiesceAndCheckAll(t, h)
}

// workloadCfg is shorthand for the scenario workload knobs that vary:
// read ratio and cross-shard fraction (θ fixed at the paper's
// high-contention 0.85; Conserving is forced by the harness).
func workloadCfg(readRatio, crossPct float64) workload.Config {
	return workload.Config{Theta: 0.85, ReadRatio: readRatio, CrossPct: crossPct}
}
