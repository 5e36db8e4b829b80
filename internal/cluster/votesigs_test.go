package cluster

import (
	"testing"
	"time"

	"thunderbolt/internal/node"
	"thunderbolt/internal/workload"
)

// TestVoteSignaturesPerRound reads the vote-crypto cost of a round from
// the replicas' own registries on a loaded 4-replica LAN committee. A
// replica seals its votes for a round when it has voted for 2f+1 of the
// round's proposers, not once per event-loop pass, so it signs at most
// about two bundles per round — the quorum bundle, plus stragglers and
// votes for other rounds — and each signature carries at least two votes
// on average. Sealing per pass signs 3.6 bundles of 1.1 votes per round.
func TestVoteSignaturesPerRound(t *testing.T) {
	c, err := New(Config{N: 4, Mode: node.ModeCE, Accounts: 1000, BatchSize: 32, Seed: 84})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	c.RunLoad(LoadConfig{
		Duration: time.Second, Clients: 32,
		Workload:   workload.Config{Theta: 0.85, ReadRatio: 0.5},
		RetryEvery: time.Second, Timeout: 20 * time.Second,
	})
	for i := 0; i < c.N(); i++ {
		m := c.Node(i).Metrics().Snapshot().Counters
		signed, verified := m["vote_sigs_signed"], m["vote_sigs_verified"]
		entries, rounds := m["vote_bundle_entries"], m["rounds_proposed"]
		if rounds < 50 || signed == 0 {
			t.Fatalf("replica %d: %d rounds, %d vote signatures — the load did not run", i, rounds, signed)
		}
		perRound := float64(signed) / float64(rounds)
		perSig := float64(entries) / float64(signed)
		t.Logf("replica %d: %d rounds; per round %.2f signed, %.2f verified; %.2f votes per signature",
			i, rounds, perRound, float64(verified)/float64(rounds), perSig)
		if perRound > 2.0 {
			t.Errorf("replica %d signs %.2f vote bundles per round, want ≤ 2.0", i, perRound)
		}
		if perSig < 2.0 {
			t.Errorf("replica %d's vote signatures carry %.2f votes each, want ≥ 2.0", i, perSig)
		}
	}
}
