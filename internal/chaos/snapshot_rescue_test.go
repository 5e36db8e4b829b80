// Mid-epoch chunked snapshot rescue scenarios.
//
// These are the end-to-end proof for the bounded-time rescue story: a
// replica stranded beyond the GC horizon in the middle of an epoch —
// no reconfiguration anywhere in sight (K = K' = 0) — must re-enter
// through the chunked snapshot protocol while the rest of the
// committee keeps committing, and every PR 1 invariant must hold
// afterwards. The ledger is sized (tens of thousands of accounts) to
// span many default-size chunks, so the rescue pulls chunks from
// several servers and the incremental pass must spare the chunks the
// victim's own pre-crash state still reproduces.
package chaos

import (
	"sync/atomic"
	"testing"
	"time"

	"thunderbolt/internal/node"
	"thunderbolt/internal/transport"
	"thunderbolt/internal/types"
)

// rescueHorizon / rescueInterval: an aggressive GC horizon with the
// capture cadence inside it (withDefaults clamps the interval to
// horizon − MinGCHorizon anyway; 48 ≤ 96 − 40 stays explicit).
const (
	rescueHorizon  = 96
	rescueInterval = 48
)

// rescueOptions configures a committee for mid-epoch rescue: no
// reconfiguration knobs (the rescue must not be bailed out by an
// epoch transition), a small horizon with mid-epoch captures inside
// it, and round production slowed so "beyond the horizon" is
// reachable in a sub-second crash window.
func rescueOptions(seed int64, accounts int) Options {
	return Options{
		N: 4, Seed: seed,
		Accounts:         accounts,
		GCHorizon:        rescueHorizon,
		SnapshotInterval: rescueInterval,
		MinRoundInterval: 10 * time.Millisecond,
	}
}

// strandedBeyondHorizon gates a schedule event on the victim having
// fallen further behind the observer's round frontier than the GC
// horizon (plus slack for the commit lag), i.e. the point where
// in-epoch round-pull is no longer sufficient and only the snapshot
// protocol can bring it back.
func strandedBeyondHorizon(victim int) Trigger {
	return func(h *Harness) bool {
		lag := h.Cluster().Node(0).Stats().Round - h.Cluster().Node(victim).Stats().Round
		return lag > rescueHorizon+64
	}
}

// waitVictimStat polls one stat on the victim until it is non-zero —
// the bounded-budget form of "the rescue happened".
func waitVictimStat(t *testing.T, h *Harness, victim int, name string, get func(node.Stats) uint64) uint64 {
	t.Helper()
	deadline := time.Now().Add(budget)
	for {
		if v := get(h.Cluster().Node(victim).Stats()); v > 0 {
			return v
		}
		if time.Now().After(deadline) {
			st := h.Cluster().Node(victim).Stats()
			t.Fatalf("replica %d: %s still zero after %s (round %d, epoch %d, installs %d, fetched %d, retries %d)",
				victim, name, budget, st.Round, st.Epoch, st.MidEpochInstalls, st.SnapChunksFetched, st.SnapChunkRetries)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestScenarioMidEpochChunkedRescue is the tentpole scenario: a 50k-
// account ledger, one replica network-crashed until it is stranded
// beyond the horizon mid-epoch, then restarted. It must rejoin via a
// chunked mid-epoch install — fetching only the chunks its stale
// state no longer matches — within the liveness budget, while the
// live majority keeps committing, and with zero reconfigurations or
// epoch jumps anywhere in the run.
func TestScenarioMidEpochChunkedRescue(t *testing.T) {
	const victim = 3
	h := newHarness(t, rescueOptions(701, 50_000))
	h.Run([]Event{
		{Name: "crash victim", When: AfterCommits(150),
			Do: []Fault{CrashFault{Victim: victim}}},
		{Name: "restart stranded victim", AfterPrev: 200 * time.Millisecond,
			When: strandedBeyondHorizon(victim),
			Do:   []Fault{RestartFault{Victim: victim}}},
	})
	loadH := h.RunLoadAsync(LoadOptions{
		Duration: load(10 * time.Second), Clients: 8,
		Workload: workloadCfg(0.3, 0.2),
	})
	h.WaitSchedule()

	// The rescue itself, within the budget. With K = 0 a crashed
	// proposer permanently owns its shard, so the closed-loop clients
	// that hit that shard are starved until — and only until — the
	// rescue lands: commit flow resuming and every pending client
	// draining is therefore direct evidence the chunked install put
	// the victim back in business, not a side effect of rotation.
	waitVictimStat(t, h, victim, "MidEpochInstalls", func(s node.Stats) uint64 { return s.MidEpochInstalls })
	check(t, h.WaitCommitGrowth(1, budget))

	rep := loadH.Wait()
	if rep.Committed == 0 {
		t.Fatal("no transactions committed under the rescue schedule")
	}
	check(t, h.WaitNoPendingClients(budget))
	st := h.Cluster().Node(victim).Stats()
	if st.EpochJumps != 0 || h.Cluster().Reconfigurations() != 0 {
		t.Errorf("rescue was not mid-epoch: %d epoch jumps, %d reconfigurations", st.EpochJumps, h.Cluster().Reconfigurations())
	}
	if st.SnapChunksFetched == 0 {
		t.Error("victim installed without fetching any chunk")
	}
	if st.SnapChunksSkipped == 0 {
		t.Error("victim fetched every chunk — incremental pass never matched its pre-crash state")
	}
	t.Logf("rescue: %d chunks fetched, %d skipped locally, %d retries",
		st.SnapChunksFetched, st.SnapChunksSkipped, st.SnapChunkRetries)
	quiesceAndCheckAll(t, h)
}

// TestScenarioChunkedRescueCorruptChunks repeats the rescue with a
// wire-level corruptor: the first several MsgSnapChunk payloads on
// the network are bit-flipped, whichever server they come from. Each
// corrupt chunk must cost the victim exactly one verification failure
// and re-request (charged as SnapChunkRetries) — never an install of
// bad state — and the rescue must still complete within the budget
// once the corruptor lets honest payloads through.
func TestScenarioChunkedRescueCorruptChunks(t *testing.T) {
	const victim = 3
	h := newHarness(t, rescueOptions(702, 20_000))
	var corrupted atomic.Int64
	corruptor := func(from, to types.ReplicaID, mt transport.MsgType, payload []byte) ([]byte, bool) {
		if mt != node.MsgSnapChunk || corrupted.Add(1) > 6 {
			return payload, true
		}
		p := append([]byte(nil), payload...)
		p[len(p)-1] ^= 0xFF // the frame tail is chunk payload content
		return p, true
	}
	h.Run([]Event{
		{Name: "arm chunk corruptor", At: 0,
			Do: []Fault{InterceptFault{Fn: corruptor, Desc: "flip tail byte of first 6 snap chunks"}}},
		{Name: "crash victim", When: AfterCommits(150),
			Do: []Fault{CrashFault{Victim: victim}}},
		{Name: "restart stranded victim", AfterPrev: 200 * time.Millisecond,
			When: strandedBeyondHorizon(victim),
			Do:   []Fault{RestartFault{Victim: victim}}},
	})
	loadH := h.RunLoadAsync(LoadOptions{
		Duration: load(10 * time.Second), Clients: 8,
		Workload: workloadCfg(0.3, 0.2),
	})
	h.WaitSchedule()

	waitVictimStat(t, h, victim, "MidEpochInstalls", func(s node.Stats) uint64 { return s.MidEpochInstalls })
	st := h.Cluster().Node(victim).Stats()
	if st.SnapChunkRetries == 0 {
		t.Error("corrupt chunks drew no retries — either never requested or, worse, accepted")
	}
	if st.EpochJumps != 0 || h.Cluster().Reconfigurations() != 0 {
		t.Errorf("rescue was not mid-epoch: %d epoch jumps, %d reconfigurations", st.EpochJumps, h.Cluster().Reconfigurations())
	}
	t.Logf("corrupt-chunk rescue: %d retries, %d fetched, %d skipped",
		st.SnapChunkRetries, st.SnapChunksFetched, st.SnapChunksSkipped)

	rep := loadH.Wait()
	if rep.Committed == 0 {
		t.Fatal("no transactions committed under the corrupt-chunk schedule")
	}
	check(t, h.WaitNoPendingClients(budget))
	quiesceAndCheckAll(t, h)
}
