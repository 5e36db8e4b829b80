package chaos

import (
	"testing"
	"time"

	"thunderbolt/internal/types"
)

// TestScenarioReorgUnderEquivocation drives a 4-committee where replica
// 3 equivocates at the wire level while partition pulses and a loss
// burst delay certificate propagation among the honest replicas. The
// combination makes slots miss their direct support — they are
// skipped, or wait for a later slot to commit them indirectly — so the
// commit order departs from straight slot order. Every wave still runs
// once, at commit, and the honest replicas must agree on all of it:
// prefix-consistent commit logs, bit-identical stores and conserved
// balances.
func TestScenarioReorgUnderEquivocation(t *testing.T) {
	h := newHarness(t, Options{N: 4, Seed: 130, Headless: []int{3}})
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

	// Safety first: the reorders must be invisible. Quiesced commit
	// counts, bit-identical stores, prefix-consistent commit logs, and
	// conserved balances across the honest replicas.
	check(t, h.WaitQuiesced(budget, honest...))
	check(t, h.WaitConverged(budget, honest...))
	check(t, h.CheckSafety(honest...))
	check(t, h.CheckConservation(honest...))

	// And the schedule must have forced what it claims to: slots
	// decided out of straight order, by a skip or an indirect commit.
	// Zero means the scenario proved nothing.
	var skipped, indirect uint64
	for _, i := range honest {
		c := h.Cluster().Node(i).Metrics().Snapshot().Counters
		skipped += c["slots_skipped"]
		indirect += c["slots_committed_indirect"]
	}
	t.Logf("reorg: %d slots skipped, %d committed indirectly", skipped, indirect)
	if skipped+indirect == 0 {
		t.Error("no slot skipped or committed indirectly — the schedule never forced a reorder")
	}
	if byz.slotsOpened.Load() == 0 {
		t.Fatalf("equivocator inactive: %d pairs — scenario exercised nothing", byz.slotsOpened.Load())
	}
}
