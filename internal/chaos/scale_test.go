// Scale and randomized-schedule scenarios.
//
// TestScenarioLargeCommitteeCrashes answers "does any of this still
// hold at n=16": crash faults well inside the f=5 bound, an
// aggressive GC horizon so committed-wave pruning runs continuously,
// and the usual safety/liveness epilogue — plus the pruning plateau
// assertion at committee scale, and the frames-per-pass bound that
// keeps broadcast votes affordable there.
//
// TestScenarioFuzzSmoke is the randomized driver: a short run whose
// fault schedule is itself drawn from the master seed, so every CI run
// explores a different (but fully replayable) composition of the fault
// vocabulary. Schedules are recoverable by construction — every fault
// window is healed and cleared before the checks.
package chaos

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"thunderbolt/internal/node"
	"thunderbolt/internal/types"
)

// TestScenarioLargeCommitteeCrashes runs n=16 (f=5) with three
// staggered crash/restart cycles under load and a 64-round GC horizon,
// with round production slowed so the outage windows stay within the
// horizon. Commit liveness, convergence, conservation, and the GC
// plateau must all hold at scale.
func TestScenarioLargeCommitteeCrashes(t *testing.T) {
	const n = 16
	const horizon = 64
	h := newHarness(t, Options{
		N: n, Seed: 112,
		GCHorizon:        horizon,
		MinRoundInterval: 10 * time.Millisecond,
		BatchSize:        32,
	})
	h.Run([]Event{
		{Name: "crash 5", At: 300 * time.Millisecond,
			Do: []Fault{CrashFault{Victim: 5}}},
		{Name: "crash 9", AfterPrev: 150 * time.Millisecond,
			Do: []Fault{CrashFault{Victim: 9}}},
		{Name: "restart 5, crash 13", AfterPrev: 200 * time.Millisecond,
			Do: []Fault{RestartFault{Victim: 5}, CrashFault{Victim: 13}}},
		{Name: "heal all", AfterPrev: 300 * time.Millisecond,
			Do: []Fault{HealAllFault{}}},
	})
	done := h.RunLoadAsync(LoadOptions{
		Duration: load(3 * time.Second), Clients: 8,
		Workload: workloadCfg(0.3, 0.1),
	})
	// A vote per slot would make a round O(n³) messages cluster-wide (n
	// slots × n voters × n−1 receivers). A replica sends one bundle per
	// pass for every slot it voted in, so what it sends per round falls
	// with the blocks a pass brings in (checked below, after the run) —
	// and every message one replica produces in one event-loop pass
	// leaves in one MsgBatch frame per peer: a pass may send at most n−1
	// frames, whatever it carries.
	var flushes, maxFrames int64
	for deadline := time.Now().Add(load(3 * time.Second)); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		for i := 0; i < n; i++ {
			frames := h.Cluster().Node(i).Metrics().Snapshot().Gauges["outbox_flush_frames"]
			if frames > n-1 {
				t.Fatalf("replica %d flushed %d frames in one pass, want at most n-1 = %d", i, frames, n-1)
			}
			if frames > 0 {
				flushes++
			}
			maxFrames = max(maxFrames, frames)
		}
	}
	rep := done.Wait()
	if rep.Committed == 0 {
		t.Fatal("no transactions committed at n=16 under crash faults")
	}
	if flushes == 0 {
		t.Fatal("no outbox flush ever sampled")
	}
	t.Logf("outbox: largest sampled flush %d frames (n-1 = %d)", maxFrames, n-1)
	h.WaitSchedule()
	quiesceAndCheckAll(t, h)
	// Bundling engages at scale: with 16 blocks a round there are
	// several to vote for in most passes. One vote message per slot
	// would be n messages per replica per round, each one entry long.
	var bundles, entries, rounds, ordered, skipped uint64
	for i := 0; i < n; i++ {
		c := h.Cluster().Node(i).Metrics().Snapshot().Counters
		bundles += c["vote_sigs_signed"]
		entries += c["vote_bundle_entries"]
		rounds += c["rounds_proposed"]
		committed := c["slots_committed_direct"] + c["slots_committed_indirect"]
		ordered += committed
		skipped += c["slots_skipped"]
		if committed == 0 {
			t.Errorf("replica %d committed no slot", i)
		}
	}
	// Crashed proposers' slots are skipped, yet every replica kept
	// committing slots (and the checks above found their commit
	// sequences agreeing).
	t.Logf("slots: %d committed, %d skipped, %.2f committed per proposed round", ordered, skipped, float64(ordered)/float64(rounds))
	if skipped == 0 {
		t.Error("no slot skipped with three proposers crashed")
	}
	t.Logf("votes: %d in %d bundles (%.2f per signature), %.2f vote messages per replica per round (one per slot: %d)",
		entries, bundles, float64(entries)/float64(bundles), float64(bundles)/float64(rounds), n)
	if 2*bundles > entries {
		t.Errorf("%d votes left in %d bundles: fewer than 2 per signature at n=%d", entries, bundles, n)
	}
	if 4*bundles > 3*n*rounds {
		t.Errorf("%d vote messages over %d proposed rounds: more than 3n/4 = %d per replica per round", bundles, rounds, 3*n/4)
	}
	// The pruning plateau is only provable once the committed frontier
	// has crossed the horizon. On constrained hardware (race detector,
	// single core) 16-way round production can be too slow to get
	// there within the budget — the safety and liveness checks above
	// still ran in full; only the plateau evidence is then skipped.
	crossed := false
	for deadline := time.Now().Add(budget / 6); time.Now().Before(deadline); {
		if h.Cluster().Node(0).Stats().Round > horizon+16 {
			crossed = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !crossed {
		t.Logf("skipping plateau assertions: only %d rounds produced within the budget (horizon %d)",
			h.Cluster().Node(0).Stats().Round, horizon)
		return
	}
	assertPruned(t, h)
	// The pruning plateau at scale: no replica may retain more than
	// the horizon plus commit lag worth of rounds (same bound as the
	// n=4 plateau test). A replica that has just installed a snapshot
	// holds no vertex yet: its highest round is 0, below its floor, and
	// it retains nothing.
	maxSpan := types.Round(3*horizon + 32)
	for i := 0; i < n; i++ {
		err := h.Cluster().Node(i).Inspect(func(v *node.DebugView) {
			if v.HighestRound > v.GCFloor+maxSpan {
				t.Errorf("replica %d retains %d rounds (floor %d, highest %d) — exceeds plateau %d",
					i, v.HighestRound-v.GCFloor, v.GCFloor, v.HighestRound, maxSpan)
			}
		})
		check(t, err)
	}
}

// fuzzVocabulary returns one randomly composed, recoverable fault
// window: the fault(s) to apply and the matching undo.
func fuzzVocabulary(rng *rand.Rand, n int) (apply []Fault, undo []Fault, desc string) {
	victim := types.ReplicaID(rng.Intn(n))
	switch rng.Intn(6) {
	case 0:
		return []Fault{IsolateFault{Victim: victim}}, []Fault{HealAllFault{}},
			fmt.Sprintf("isolate %d", victim)
	case 1:
		return []Fault{CrashFault{Victim: victim}}, []Fault{RestartFault{Victim: victim}},
			fmt.Sprintf("crash %d", victim)
	case 2:
		perm := rng.Perm(n)
		groups := [][]types.ReplicaID{{}, {}}
		for i, p := range perm {
			groups[i%2] = append(groups[i%2], types.ReplicaID(p))
		}
		return []Fault{PartitionFault{Groups: groups}}, []Fault{HealAllFault{}}, "partition"
	case 3:
		rate := 0.1 + rng.Float64()*0.2
		return []Fault{LossFault{Rate: rate}}, []Fault{ClearFaultsFault{}},
			fmt.Sprintf("loss %.0f%%", rate*100)
	case 4:
		rate := 0.1 + rng.Float64()*0.2
		return []Fault{DuplicateFault{Rate: rate}}, []Fault{ClearFaultsFault{}},
			fmt.Sprintf("dup %.0f%%", rate*100)
	default:
		extra := time.Duration(1+rng.Intn(2)) * time.Millisecond
		return []Fault{LatencySpikeFault{Extra: extra}}, []Fault{ClearFaultsFault{}},
			fmt.Sprintf("latency +%s", extra)
	}
}

// TestScenarioFuzzSmoke runs a short load under a randomized fault
// schedule. Without CHAOS_SEED the seed is drawn from the clock (and
// logged for replay), so repeated CI runs sweep the schedule space;
// with CHAOS_SEED the schedule, workload, and network decisions all
// replay. The schedule ends fully healed, so the full invariant
// epilogue applies unconditionally.
func TestScenarioFuzzSmoke(t *testing.T) {
	seed := SeedFromEnv(time.Now().UnixNano())
	h := newHarness(t, Options{N: 4, Seed: seed})
	rng := rand.New(rand.NewSource(seed))

	var sched []Event
	windows := 2 + rng.Intn(2)
	at := 200 * time.Millisecond
	for w := 0; w < windows; w++ {
		apply, undo, desc := fuzzVocabulary(rng, 4)
		hold := time.Duration(200+rng.Intn(300)) * time.Millisecond
		sched = append(sched,
			Event{Name: "fuzz " + desc, At: at, Do: apply},
			Event{Name: "undo " + desc, AfterPrev: hold, Do: undo},
		)
		at += hold + time.Duration(100+rng.Intn(200))*time.Millisecond
	}
	sched = append(sched, Event{Name: "final heal", AfterPrev: 50 * time.Millisecond,
		Do: []Fault{HealAllFault{}, ClearFaultsFault{}}})
	h.Run(sched)

	done := h.RunLoadAsync(LoadOptions{
		Duration: load(2 * time.Second), Clients: 8,
		Workload: workloadCfg(0.3, 0.2),
	})
	h.WaitSchedule()
	check(t, h.WaitNoPendingClients(budget))
	rep := done.Wait()
	if rep.Committed == 0 {
		t.Fatal("no transactions committed under the fuzzed schedule")
	}
	quiesceAndCheckAll(t, h)
}
