// Speculative-execution chaos scenarios: prove that the speculation
// layer (node/spec.go) never leaks state when its predictions are
// wrong. An equivocating proposer plus partition pulses make the
// commit order diverge from the straight-line prediction — certified
// slot vertices whose support arrives too late are skipped, so
// replicas that predicted them must discard their predictions and run
// the wave at commit time. The scenario asserts
// both that the rollbacks
// actually happened (spec_misses > 0: the fault schedule exercised
// the miss path, not just the happy path) and that they were
// invisible (conservation, commit-prefix agreement, bit-identical
// stores across the honest replicas).
package chaos

import (
	"testing"
	"time"

	"thunderbolt/internal/types"
)

// specTotals sums the speculation counters across the listed replicas.
func specTotals(h *Harness, replicas ...int) (hits, misses, wasted uint64) {
	for _, i := range replicas {
		st := h.Cluster().Node(i).Stats()
		hits += st.SpecHits
		misses += st.SpecMisses
		wasted += st.SpecWastedTxs
	}
	return
}

// TestScenarioSpeculationUnderReorg drives a 4-committee where replica
// 3 equivocates at the wire level while partition pulses and a loss
// burst delay certificate propagation among the honest replicas. The
// combination makes predicted slots miss their direct support — they
// are skipped, or wait for a later anchor while the slots behind them
// wait too, which is exactly the misprediction the speculation layer
// must detect and roll back. SpecVerify is on, so every hit that does install is re-derived
// cold and proven bit-identical on the spot.
func TestScenarioSpeculationUnderReorg(t *testing.T) {
	h := newHarness(t, Options{N: 4, Seed: 130, Headless: []int{3}, SpecVerify: true})
	byz := newEquivocator(t, h, 3)
	byz.start()

	// Partition pulses split the honest replicas (progress needs all
	// three: the equivocator never votes for anyone else), stalling
	// rounds mid-flight so certificates and support land out of order
	// after each heal. The loss burst stretches the same window.
	h.Run([]Event{
		{Name: "loss burst", At: 200 * time.Millisecond,
			Do: []Fault{LossFault{Rate: 0.15}}},
		{Name: "split honest", At: 500 * time.Millisecond,
			Do: []Fault{PartitionFault{Groups: [][]types.ReplicaID{{0, 1}, {2}, {3}}}}},
		{Name: "heal split", AfterPrev: 300 * time.Millisecond,
			Do: []Fault{HealAllFault{}}},
		{Name: "split again", AfterPrev: 300 * time.Millisecond,
			Do: []Fault{PartitionFault{Groups: [][]types.ReplicaID{{0, 2}, {1}, {3}}}}},
		{Name: "heal all", AfterPrev: 300 * time.Millisecond,
			Do: []Fault{HealAllFault{}, ClearFaultsFault{}}},
	})

	honest := []int{0, 1, 2}
	rep := h.RunLoadAsync(LoadOptions{
		Duration: load(3 * time.Second), Clients: 8,
		Workload: workloadCfg(0.3, 0.3),
		Timeout:  5 * time.Second, // byzantine-shard singles may starve
	}).Wait()
	if rep.Committed == 0 {
		t.Fatal("honest majority committed nothing under the reorg schedule")
	}
	h.WaitSchedule()

	// Safety first: rollbacks must be invisible. Quiesced commit
	// counts, bit-identical stores, prefix-consistent commit logs, and
	// conserved balances across the honest replicas.
	check(t, h.WaitQuiesced(budget, honest...))
	check(t, h.WaitConverged(budget, honest...))
	check(t, h.CheckSafety(honest...))
	check(t, h.CheckConservation(honest...))

	// And the scenario must have exercised the machinery it claims to:
	// speculation ran (hits), and the reorgs actually forced rollbacks
	// (misses). A zero either way means the schedule proved nothing.
	hits, misses, wasted := specTotals(h, honest...)
	t.Logf("speculation under reorg: hits=%d misses=%d wasted_txs=%d", hits, misses, wasted)
	if hits == 0 {
		t.Error("no speculative hits — speculation never engaged under the reorg schedule")
	}
	if misses == 0 {
		t.Error("no speculative misses — the reorg schedule never forced a rollback")
	}
	if byz.slotsOpened.Load() == 0 {
		t.Fatalf("equivocator inactive: %d pairs — scenario exercised nothing", byz.slotsOpened.Load())
	}
}

// TestScenarioSpeculationDisabledEscapeHatch runs the same faulty
// committee with speculation disabled (the -spec=false escape hatch):
// every wave runs at commit time — through the same run and install
// functions — with zero spec counters and the same invariants.
func TestScenarioSpeculationDisabledEscapeHatch(t *testing.T) {
	h := newHarness(t, Options{N: 4, Seed: 131, SpecExecDepth: -1})
	h.Run([]Event{
		{Name: "isolate 2", At: 300 * time.Millisecond,
			Do: []Fault{IsolateFault{Victim: 2}}},
		{Name: "heal", AfterPrev: 500 * time.Millisecond,
			Do: []Fault{HealAllFault{}}},
	})
	rep := h.RunLoadAsync(LoadOptions{
		Duration: load(2 * time.Second), Clients: 8,
		Workload: workloadCfg(0.3, 0.2),
	}).Wait()
	if rep.Committed == 0 {
		t.Fatal("no transactions committed")
	}
	h.WaitSchedule()
	quiesceAndCheckAll(t, h)
	hits, misses, wasted := specTotals(h, 0, 1, 2, 3)
	if hits != 0 || misses != 0 || wasted != 0 {
		t.Fatalf("speculation disabled but counters moved: hits=%d misses=%d wasted=%d", hits, misses, wasted)
	}
}
