// Vote-withholding Byzantine scenario: a proposer that stays live
// enough to keep its own slot certified — it proposes a valid block
// every round and assembles certificates from honest votes — but
// never votes for anyone else. Selective silence is the cheapest
// Byzantine strategy against a certification quorum: if liveness
// depended on every replica's vote, one silent voter could stall the
// committee. With n = 3f+1 and a 2f+1 quorum, the honest majority
// must certify, commit, and conserve without the withheld votes.
package chaos

import (
	"testing"
	"time"

	"thunderbolt/internal/node"
	"thunderbolt/internal/types"
)

// newWithholder scripts replica id as a proposer of valid empty blocks
// that counts the committee's votes like anyone — and puts not one
// MsgVote on the wire, not even for its own blocks.
func newWithholder(t *testing.T, h *Harness, id types.ReplicaID) *wireDriver {
	w := newWireDriver(t, h, id)
	w.withholdOwn = true
	w.build = func(r types.Round, parents []types.Digest) []proposal {
		return []proposal{{block: w.emptyBlock(r, parents)}}
	}
	return w
}

// TestScenarioByzantineVoteWithholding runs a 4-committee where
// replica 3 proposes every round but withholds every vote. Liveness:
// the 2f+1 quorum must form from the honest majority alone, so
// commits keep flowing and no client starves. Safety: commit logs
// stay prefix-consistent, nothing double-commits, balances conserve.
// The driver's own slot keeps certifying (it is silent, not dead), so
// the scenario stresses quorum formation with a live-but-useless
// voter rather than a crashed one.
func TestScenarioByzantineVoteWithholding(t *testing.T) {
	h := newHarness(t, Options{N: 4, Seed: 117, Headless: []int{3}})
	byz := newWithholder(t, h, 3)
	byz.start()

	honest := []int{0, 1, 2}
	rep := h.RunLoadAsync(LoadOptions{
		Duration: load(2 * time.Second), Clients: 8,
		Workload: workloadCfg(0.3, 0.3),
		Timeout:  5 * time.Second, // byzantine-shard singles may starve by its choice
	}).Wait()
	if rep.Committed == 0 {
		t.Fatal("honest majority committed nothing under vote withholding")
	}
	check(t, h.WaitQuiesced(budget, honest...))
	check(t, h.WaitConverged(budget, honest...))
	check(t, h.CheckSafety(honest...))
	check(t, h.CheckConservation(honest...))

	if byz.peerBlocks.Load() == 0 {
		t.Fatal("withholder saw no proposals — nothing was withheld")
	}
	if byz.peerVotes.Load() != 0 {
		t.Fatalf("withholder cast %d votes", byz.peerVotes.Load())
	}
	if byz.ownVotes.Load() == 0 || byz.ownCerts.Load() == 0 {
		t.Fatalf("withholder not live: %d votes in, %d certified — silence was indistinguishable from a crash",
			byz.ownVotes.Load(), byz.ownCerts.Load())
	}
	// The withholder's slot must appear in honest DAGs (live) while
	// every honest replica kept proposing past it (unstalled).
	byzVertices := 0
	for _, i := range honest {
		err := h.Cluster().Node(i).Inspect(func(v *node.DebugView) {
			for r := types.Round(1); r <= v.HighestRound; r++ {
				for _, vi := range v.Vertices(r) {
					if vi.Proposer == 3 {
						byzVertices++
					}
				}
			}
		})
		check(t, err)
	}
	if byzVertices == 0 {
		t.Error("withholder's blocks never certified — the scenario degenerated to a crash fault")
	}
}
