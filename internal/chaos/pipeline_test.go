// Scenario coverage for the pipelined commit path: rounds propose,
// certify, commit, and execute concurrently (round r+1 proposes while
// r certifies and r−1 executes), wire traffic rides coalesced MsgBatch
// frames, and the proposer's batch size adapts to offered load. The
// scenario proves none of that machinery trades away safety: under a
// partition plus a crash/restart the committee must keep exactly one
// committed order (prefix agreement) and conserve every balance.
package chaos

import (
	"testing"
	"time"
)

// TestScenarioPipelinedRoundsPartitionRestart runs sustained load hot
// enough to drive the adaptive batch controller off its floor, while
// one replica is partitioned away and a second crashes and restarts
// mid-stream. Pipelining means commit waves for older rounds execute
// while newer rounds certify; the invariants assert that this
// interleaving never reorders commits across replicas (CheckSafety:
// every pair of commit logs agrees on a common prefix) and never
// tears a transfer (CheckConservation). The epilogue also pins the
// transport-error accounting satellite: in the simulated network,
// unreachable peers drop traffic silently like a real wire, so a send
// *error* can only mean a harness or transport bug — every replica
// must finish the scenario with zero send errors in every class.
func TestScenarioPipelinedRoundsPartitionRestart(t *testing.T) {
	h := newHarness(t, Options{
		N: 4, Seed: 108,
		// A low floor (cap 16) so the closed-loop backlog visibly grows
		// batches and the post-fault latency spike shrinks them.
		BatchSize: 4,
	})
	h.Run([]Event{
		{Name: "isolate 3", At: 300 * time.Millisecond,
			Do: []Fault{IsolateFault{Victim: 3}}},
		{Name: "crash 1", AfterPrev: 300 * time.Millisecond,
			Do: []Fault{CrashFault{Victim: 1}}},
		{Name: "restart 1", AfterPrev: 600 * time.Millisecond,
			Do: []Fault{RestartFault{Victim: 1}}},
		{Name: "heal all", AfterPrev: 400 * time.Millisecond,
			Do: []Fault{HealAllFault{}}},
	})
	rep := h.RunLoadAsync(LoadOptions{
		Duration: load(2500 * time.Millisecond), Clients: 24,
		Workload: workloadCfg(0.3, 0.2),
	}).Wait()
	if rep.Committed == 0 {
		t.Fatal("no transactions committed through the partition + crash window")
	}
	h.WaitSchedule()
	quiesceAndCheckAll(t, h)

	// The committee kept committing while a quorum of 3 was live and
	// both faulted replicas rejoined the same order; now confirm the
	// pipeline stayed hot enough to exercise adaptation at all.
	var peak uint64
	for i := 0; i < 4; i++ {
		if bs := h.Cluster().Node(i).Stats().BatchSize; bs > peak {
			peak = bs
		}
	}
	if peak <= 4 {
		t.Logf("note: batch size never left the floor (peak %d) — load too light to exercise growth", peak)
	}

	// Transport send errors: drops to crashed/partitioned peers are
	// silent, so any counted error is a real transport failure.
	for i := 0; i < 4; i++ {
		st := h.Cluster().Node(i).Stats()
		if errs := st.TotalSendErrors(); errs != 0 {
			t.Errorf("replica %d counted %d transport send errors (per class: %v) — steady-state sends must never fail",
				i, errs, st.SendErrors)
		}
	}
}
