// Committed-wave GC safety and boundedness scenarios.
//
// GC must be invisible to the PR 1 invariants: with an aggressively
// small retention horizon, partitions and crash/restarts must still
// end in balance conservation, prefix-consistent commit logs, and no
// stranded replica. These scenarios stay within the horizon so that
// in-epoch catch-up alone must recover every victim; outages beyond
// the horizon or across an epoch are the cross-epoch snapshot
// protocol's job, exercised by the reconfiguration and byzantine
// scenarios. The plateau test is the memory bound itself:
// pending-state sizes must level off at the horizon instead of
// growing with rounds.
package chaos

import (
	"fmt"
	"testing"
	"time"

	"thunderbolt/internal/node"
	"thunderbolt/internal/types"
)

// gcOptions is the aggressive-horizon configuration: a 64-round
// horizon with round production slowed to ~100 rounds/s, so the fault
// windows below (≤400ms ≈ 40 rounds) stay recoverable within the
// horizon while GC runs continuously during the scenario.
func gcOptions(seed int64) Options {
	return Options{
		N: 4, Seed: seed,
		GCHorizon:        64,
		MinRoundInterval: 10 * time.Millisecond,
	}
}

// assertPruned fails unless committed-wave GC actually reclaims
// rounds on every live replica — guarding against the scenario
// silently passing with GC idle. It waits rather than sampling once:
// a -short run can end with the committed frontier only just past the
// horizon, and the idle rounds after the load window carry the floor
// across within a moment.
func assertPruned(t *testing.T, h *Harness, replicas ...int) {
	t.Helper()
	deadline := time.Now().Add(budget)
	for _, i := range h.replicaList(replicas) {
		for {
			st := h.Cluster().Node(i).Stats()
			if st.PrunedRounds > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Errorf("replica %d: GC never pruned (round %d) — horizon misconfigured?", i, st.Round)
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestScenarioGCPartitionAndRestart runs the PR 1 fault staples —
// an isolation window, then a crash/restart — with GC at the
// aggressive horizon. Both victims must recover their missed rounds
// from peers that have been pruning the whole time, and every
// invariant must hold at the end.
func TestScenarioGCPartitionAndRestart(t *testing.T) {
	h := newHarness(t, gcOptions(201))
	h.Run([]Event{
		{Name: "isolate 3", At: 400 * time.Millisecond,
			Do: []Fault{IsolateFault{Victim: 3}}},
		{Name: "heal", AfterPrev: 350 * time.Millisecond,
			Do: []Fault{HealAllFault{}}},
		{Name: "crash 1", AfterPrev: 300 * time.Millisecond,
			Do: []Fault{CrashFault{Victim: 1}}},
		{Name: "restart 1", AfterPrev: 350 * time.Millisecond,
			Do: []Fault{RestartFault{Victim: 1}}},
	})
	rep := h.RunLoadAsync(LoadOptions{
		Duration: load(3 * time.Second), Clients: 8,
		Workload: workloadCfg(0.3, 0.2),
	}).Wait()
	if rep.Committed == 0 {
		t.Fatal("no transactions committed under the GC fault schedule")
	}
	h.WaitSchedule()
	quiesceAndCheckAll(t, h)
	assertPruned(t, h)
}

// TestScenarioGCSplitBrainStall repeats the total-stall split-brain
// scenario with the aggressive horizon: during the stall no wave
// commits, so the GC floor must freeze (pruning is keyed to the
// node's own committed frontier) and healing must find every round
// the backlog needs still retained.
func TestScenarioGCSplitBrainStall(t *testing.T) {
	h := newHarness(t, gcOptions(202))
	h.Run([]Event{
		{Name: "split 2|2", When: AfterCommits(80),
			Do: []Fault{PartitionFault{Groups: [][]types.ReplicaID{{0, 1}, {2, 3}}}}},
		{Name: "heal", AfterPrev: 500 * time.Millisecond,
			Do: []Fault{HealAllFault{}}},
	})
	done := h.RunLoadAsync(LoadOptions{
		Duration: load(3 * time.Second), Clients: 8,
		Workload: workloadCfg(0.3, 0.2),
	})
	h.WaitSchedule()
	check(t, h.WaitNoPendingClients(budget))
	done.Wait()
	quiesceAndCheckAll(t, h)
	assertPruned(t, h)
}

// TestGCPendingStatePlateaus is the memory bound, for two horizons:
// under sustained load the per-epoch maps (DAG vertices, pending
// blocks, vote slots, vote collectors and the early votes they hold,
// committed flags) must plateau at the decoded window — MinGCHorizon
// rounds plus the commit lag — whatever the horizon is, and the round
// archive below them at the horizon's remaining GCHorizon −
// MinGCHorizon rounds, instead of either growing with the round count.
// Each run spans many multiples of the horizon, so unbounded growth
// would overshoot the asserted ceilings several-fold.
func TestGCPendingStatePlateaus(t *testing.T) {
	for i, horizon := range []int{64, 256} {
		t.Run(fmt.Sprintf("horizon=%d", horizon), func(t *testing.T) {
			gcPlateau(t, horizon, int64(203+i))
		})
	}
}

func gcPlateau(t *testing.T, horizon int, seed int64) {
	h := newHarness(t, Options{N: 4, Seed: seed, GCHorizon: horizon})
	loadH := h.RunLoadAsync(LoadOptions{
		Duration: load(6 * time.Second), Clients: 8,
		Workload: workloadCfg(0.3, 0.1),
	})
	// The decoded window may exceed MinGCHorizon by the commit lag (the
	// frontier runs ahead of the last committed leader); allow 32
	// rounds of it before calling the window unbounded.
	const n = 4
	decodedRounds := uint64(node.MinGCHorizon + 32)
	archiveRounds := horizon - node.MinGCHorizon
	deadline := time.Now().Add(load(6 * time.Second))
	var checked, maxCollectors, maxArchive int
	for time.Now().Before(deadline) {
		time.Sleep(250 * time.Millisecond)
		for i := 0; i < n; i++ {
			var dv *node.DebugView
			err := h.Cluster().Node(i).Inspect(func(v *node.DebugView) {
				cp := *v
				dv = &cp
			})
			if err != nil {
				continue
			}
			if dv.GCFloor <= 1 {
				continue // GC has not started; bound not yet in force
			}
			checked++
			if u := uint64(dv.DagVertices); u > n*decodedRounds {
				t.Fatalf("replica %d: %d DAG vertices at round %d — not plateauing (floor %d)",
					i, dv.DagVertices, dv.HighestRound, dv.GCFloor)
			}
			if u := uint64(dv.PendingBlocks); u > n*decodedRounds {
				t.Fatalf("replica %d: %d pending blocks — not plateauing", i, dv.PendingBlocks)
			}
			if u := uint64(dv.VotedSlots); u > n*decodedRounds {
				t.Fatalf("replica %d: %d vote slots — not plateauing", i, dv.VotedSlots)
			}
			if u := uint64(dv.CommittedFlags); u > n*decodedRounds {
				t.Fatalf("replica %d: %d committed flags — not plateauing", i, dv.CommittedFlags)
			}
			// A collector lives from a slot's first vote to its vertex
			// landing: in a healthy committee a round or two of them, and
			// at most one per retained slot however the run goes.
			if u := uint64(dv.Collectors); u > n*decodedRounds {
				t.Fatalf("replica %d: %d vote collectors — not plateauing", i, dv.Collectors)
			}
			if dv.EarlyVotes > n*dv.Collectors {
				t.Fatalf("replica %d: %d early votes in %d collectors — more than one per voter per slot", i, dv.EarlyVotes, dv.Collectors)
			}
			maxCollectors = max(maxCollectors, dv.Collectors)
			// Compared without subtracting: a store just re-entered at
			// a snapshot's base reads highest 0 below its floor.
			if dv.HighestRound > dv.GCFloor+types.Round(decodedRounds) {
				t.Fatalf("replica %d: decodes rounds %d..%d, more than %d", i, dv.GCFloor, dv.HighestRound, decodedRounds)
			}
			// The archive holds every pruned round up to the horizon's
			// remaining rounds, contiguous up to the decoded floor (the
			// epoch's DAG starts at round 1).
			wantArchive := min(archiveRounds, int(dv.GCFloor)-1)
			if dv.ArchiveRounds != wantArchive || dv.ArchiveFloor+types.Round(dv.ArchiveRounds) != dv.GCFloor {
				t.Fatalf("replica %d: archive holds %d rounds from %d below decoded floor %d, want %d ending there",
					i, dv.ArchiveRounds, dv.ArchiveFloor, dv.GCFloor, wantArchive)
			}
			if dv.ArchiveRounds > 0 && dv.ArchiveBytes <= 0 {
				t.Fatalf("replica %d: %d archived rounds hold %d bytes", i, dv.ArchiveRounds, dv.ArchiveBytes)
			}
			maxArchive = max(maxArchive, dv.ArchiveRounds)
		}
	}
	rep := loadH.Wait()
	if rep.Committed == 0 {
		t.Fatal("no transactions committed during the plateau run")
	}
	if checked == 0 {
		t.Fatal("GC floor never advanced during the run — no plateau samples taken")
	}
	// Fault-free, every slot certifies within a round trip of its first
	// vote: collectors that outlive that are leaking, whatever the
	// horizon would still allow.
	if maxCollectors > 8*n {
		t.Fatalf("%d vote collectors live at once in a fault-free run — landed slots are not releasing theirs", maxCollectors)
	}
	// The run must have covered enough rounds that unbounded growth
	// would have tripped the ceilings, and filled the archive to its
	// bound.
	st := h.Cluster().Node(0).Stats()
	if uint64(st.Round) < 2*uint64(horizon) || maxArchive < archiveRounds {
		t.Logf("warning: only %d rounds produced, archive peaked at %d of %d; plateau evidence is weak", st.Round, maxArchive, archiveRounds)
	}
	quiesceAndCheckAll(t, h)
	assertPruned(t, h)
}
