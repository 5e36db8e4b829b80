// Byzantine-voter scenario: with certification from broadcast votes,
// every replica counts every vote, so a voter that lies is every
// replica's problem, not just the proposer's. The driver proposes
// valid blocks (its own slot stays live) and abuses each way a vote can
// be wrong:
//
//   - conflicting votes: for one peer block it signs the real digest
//     for some replicas and a made-up one for the others;
//   - votes for unknown digests in live slots, where a replica has
//     nothing to check the digest against yet;
//   - votes for rounds far beyond the frontier;
//   - other replicas' bundles, signature and all, replayed under its
//     own id;
//   - bundles that are wrong as bundles: a bad signature, a good
//     signature over a different entry list, more entries than a bundle
//     may hold, two digests for one slot, one in-window entry padded
//     with entries beyond the window;
//   - junk stamped with the next epoch, which a replica cannot check
//     yet and parks — per sender, bounded.
//
// None of it may cost safety (one digest per slot everywhere, equal
// commit sequences, conserved balances) or liveness (the honest 2f+1
// certify without it), the replicas' vote state must stay inside its
// bound — one entry per voter per slot, slots only inside the vote
// window — and honest commit latency must stay where it is without the
// noise: a vote path that had to be rescued by stall recovery would
// show up there first.
package chaos

import (
	"sync/atomic"
	"testing"
	"time"

	"thunderbolt/internal/node"
	"thunderbolt/internal/types"
)

// byzVoterLatencyBudget bounds the honest clients' median commit
// latency under the Byzantine voter. Healthy medians in this harness
// are a few milliseconds (tens under -race); a committee that lost its
// vote path and advanced on stall recovery alone sits at several ticks
// per round, well past it.
const byzVoterLatencyBudget = 100 * time.Millisecond

type byzVoter struct {
	*wireDriver
	conflicting, unknown, future, replayed         atomic.Uint64
	badSig, otherList, overCap, twoDigests, padded atomic.Uint64
	nextEpoch                                      atomic.Uint64
}

func newByzVoter(t *testing.T, h *Harness, id types.ReplicaID) *byzVoter {
	v := &byzVoter{wireDriver: newWireDriver(t, h, id)}
	v.build = func(r types.Round, parents []types.Digest) []proposal {
		return []proposal{{block: v.emptyBlock(r, parents)}}
	}
	v.onPeerBlock = v.lieAbout
	v.onPeerBundle = v.replay
	return v
}

// fakeDigest is a digest no block has, distinct per tag.
func fakeDigest(real types.Digest, tag string) types.Digest {
	return types.HashBytes(append([]byte(tag), real[:]...))
}

// sendBundle delivers one bundle to one replica, signed by the driver
// over the root of signed (nil: of the entries sent).
func (v *byzVoter) sendBundle(to types.ReplicaID, epoch types.Epoch, entries, signed []bundleEntry) {
	if signed == nil {
		signed = entries
	}
	_ = v.tr.Send(to, node.MsgVote, bundleMsg(epoch, entries, v.signer.Sign(bundleRoot(signed))))
}

// send delivers one vote signed by the driver over dig to one replica.
func (v *byzVoter) send(to types.ReplicaID, b *types.Block, r types.Round, dig types.Digest) {
	_ = v.tr.Send(to, node.MsgVote, voteMsg(b.Epoch, r, b.Proposer, dig, v.signer.Sign(dig)))
}

// lieAbout answers a peer's proposal with every kind of bad vote.
func (v *byzVoter) lieAbout(b *types.Block) {
	real := b.Digest()
	fake := fakeDigest(real, "not the block")
	const window = 10 // node's voteWindow
	// A slot of the proposer's a few rounds on, still inside the window,
	// that no other lie targets first: what is wrong about each bundle
	// below is then all a replica has to reject it on.
	at := func(off types.Round, tag string) bundleEntry {
		return bundleEntry{b.Round + off, b.Proposer, fakeDigest(real, tag)}
	}
	for p := 0; p < v.n; p++ {
		to := types.ReplicaID(p)
		if to == v.self {
			continue
		}
		// Conflicting votes for one slot: the real digest to even
		// replicas, a made-up one to odd ones (who, with the block in
		// hand, can see it is nobody's block — and must still not let it
		// displace or double the voter's entry).
		if p%2 == 0 {
			v.send(to, b, b.Round, real)
		} else {
			v.send(to, b, b.Round, fake)
		}
		v.conflicting.Add(1)
		// A vote for the proposer's next slot, before any block for it
		// exists: an unknown digest in a live slot.
		v.send(to, b, b.Round+1, fake)
		v.unknown.Add(1)
		// A vote far beyond any round the replica could be collecting.
		v.send(to, b, b.Round+1000, fake)
		v.future.Add(1)

		// A bundle whose signature is not one.
		_ = v.tr.Send(to, node.MsgVote, bundleMsg(b.Epoch, []bundleEntry{at(2, "a"), at(3, "a")}, []byte("not a signature")))
		v.badSig.Add(1)
		// A good signature, over another entry list.
		v.sendBundle(to, b.Epoch, []bundleEntry{at(2, "b"), at(3, "b")}, []bundleEntry{at(2, "b"), at(3, "c")})
		v.otherList.Add(1)
		// One entry more than a bundle may hold, honestly signed.
		var big []bundleEntry
		for i := 0; i <= v.n*window; i++ {
			big = append(big, bundleEntry{b.Round + 2 + types.Round(i%4), b.Proposer, fakeDigest(real, string(rune('A'+i)))})
		}
		v.sendBundle(to, b.Epoch, big, nil)
		v.overCap.Add(1)
		// Two digests for one slot in one bundle: the second must not
		// count, beside the first or in its place.
		v.sendBundle(to, b.Epoch, []bundleEntry{at(4, "d"), at(4, "e")}, nil)
		v.twoDigests.Add(1)
		// One in-window entry among entries beyond the window.
		v.sendBundle(to, b.Epoch, []bundleEntry{at(2000, "f"), at(5, "f"), at(3000, "f")}, nil)
		v.padded.Add(1)
		// Junk stamped with the next epoch: unverifiable until the
		// replica gets there, so it is parked — within a bound.
		for i := 0; i < 3; i++ {
			_ = v.tr.Send(to, node.MsgVote, bundleMsg(b.Epoch+1, []bundleEntry{at(types.Round(i), "g")}, []byte("junk")))
			v.nextEpoch.Add(1)
		}
	}
}

// replay re-sends a peer's bundle — entries, signature and all — as the
// driver's own.
func (v *byzVoter) replay(_ types.ReplicaID, payload []byte) {
	_ = v.tr.Broadcast(node.MsgVote, payload)
	v.replayed.Add(1)
}

func TestScenarioByzantineVoter(t *testing.T) {
	h := newHarness(t, Options{N: 4, Seed: 118, Headless: []int{3}})
	byz := newByzVoter(t, h, 3)
	byz.start()

	honest := []int{0, 1, 2}
	done := h.RunLoadAsync(LoadOptions{
		Duration: load(2 * time.Second), Clients: 8,
		Workload: workloadCfg(0.3, 0.3),
		Timeout:  5 * time.Second, // the headless proposer's shard starves by construction
	})
	// The bound on vote state, sampled while the noise is flowing: live
	// collectors only inside [GC floor, frontier + window] — here the
	// floor never moves, so the span is what the frontier has covered —
	// and never more than one vote per voter in any of them.
	const window = 10 // node's voteWindow
	n := h.Cluster().N()
	samples := 0
	for deadline := time.Now().Add(load(2 * time.Second)); time.Now().Before(deadline); {
		time.Sleep(100 * time.Millisecond)
		for _, i := range honest {
			err := h.Cluster().Node(i).Inspect(func(v *node.DebugView) {
				samples++
				// Certified slots have no collector; what remains is the
				// uncertified tail plus whatever the voter opened ahead.
				if max := (window + 8) * n; v.Collectors > max {
					t.Errorf("replica %d: %d live vote collectors (bound %d) at round %d", i, v.Collectors, max, v.HighestRound)
				}
				if max := v.Collectors * n; v.EarlyVotes > max {
					t.Errorf("replica %d: %d early votes in %d collectors", i, v.EarlyVotes, v.Collectors)
				}
				// Only the voter stamps the next epoch: its parked junk
				// stays within one sender's bound however much it sends.
				if max := n * window; v.FutureMsgs > max {
					t.Errorf("replica %d: %d messages parked for the next epoch (bound %d per sender)", i, v.FutureMsgs, max)
				}
			})
			check(t, err)
		}
	}
	rep := done.Wait()
	if rep.Committed == 0 {
		t.Fatal("honest majority committed nothing under the Byzantine voter")
	}
	check(t, h.WaitQuiesced(budget, honest...))
	check(t, h.WaitConverged(budget, honest...))
	check(t, h.CheckSafety(honest...))
	check(t, h.CheckConservation(honest...))

	if byz.conflicting.Load() == 0 || byz.unknown.Load() == 0 || byz.future.Load() == 0 || byz.replayed.Load() == 0 {
		t.Fatalf("Byzantine voter inactive: conflicting=%d unknown=%d future=%d replayed=%d",
			byz.conflicting.Load(), byz.unknown.Load(), byz.future.Load(), byz.replayed.Load())
	}
	for name, c := range map[string]*atomic.Uint64{
		"bad-signature": &byz.badSig, "other-list": &byz.otherList, "over-cap": &byz.overCap,
		"two-digests": &byz.twoDigests, "padded": &byz.padded, "next-epoch": &byz.nextEpoch,
	} {
		if c.Load() == 0 {
			t.Errorf("Byzantine voter sent no %s bundle", name)
		}
	}
	if samples == 0 {
		t.Fatal("vote-state bound never sampled")
	}
	// The flood outran the bound: a replica had to push parked junk out.
	var pushedOut uint64
	for _, i := range honest {
		pushedOut += h.Cluster().Node(i).Metrics().Snapshot().Counters["future_msgs_dropped"]
	}
	if pushedOut == 0 {
		t.Errorf("no replica dropped a parked next-epoch message (%d sent): the bound was never reached", byz.nextEpoch.Load())
	}
	if byz.ownCerts.Load() == 0 {
		t.Error("the voter's own slot never certified — the scenario degenerated to a crash fault")
	}
	t.Logf("honest commit latency under the Byzantine voter: %v", rep.Latency)
	if rep.Latency.P50 > byzVoterLatencyBudget {
		t.Errorf("median commit latency %v exceeds the scenario budget %v", rep.Latency.P50, byzVoterLatencyBudget)
	}
	// The made-up digests reached replicas before any block could vouch
	// for them, so some were counted as early votes; none may have
	// certified anything: every vertex of every honest DAG is one all
	// honest replicas agree on.
	early := uint64(0)
	slot := make(map[voteSlot]types.Digest)
	for _, i := range honest {
		early += h.Cluster().Node(i).Metrics().Snapshot().Counters["votes_early"]
		err := h.Cluster().Node(i).Inspect(func(v *node.DebugView) {
			for r := v.GCFloor; r <= v.HighestRound; r++ {
				for _, vi := range v.Vertices(r) {
					k := voteSlot{r, vi.Proposer}
					if prev, ok := slot[k]; ok && prev != vi.CertDigest {
						t.Errorf("slot (%d,%d) certified twice: %s and %s", r, vi.Proposer, prev, vi.CertDigest)
					}
					slot[k] = vi.CertDigest
				}
			}
		})
		check(t, err)
	}
	if early == 0 {
		t.Error("no replica counted an early vote — the unknown-digest votes never landed in a live slot")
	}
}

type voteSlot struct {
	round    types.Round
	proposer types.ReplicaID
}
