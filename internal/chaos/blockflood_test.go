// Block-flood scenario: a committee member that proposes and votes
// honestly floods every honest replica with forged blocks for the honest
// proposers' slots — new digests for the slots just ahead of the
// frontier, where a replica keeps blocks, and rounds far beyond anything
// a round pull asks for. Relayed, not sent by their proposers, they are
// never voted for; what they can cost is memory. A replica keeps at most
// one block per sender per slot and none above its block ceiling (the
// highest round a round pull asks for), so it holds at most two blocks
// per slot here — the proposer's and the flooder's — over the rounds
// between its GC floor and that ceiling, and it refuses a block above
// the ceiling by its header, without decoding it. The honest committee
// keeps committing, safely, meanwhile.
package chaos

import (
	"encoding/binary"
	"sync/atomic"
	"testing"
	"time"

	"thunderbolt/internal/node"
	"thunderbolt/internal/types"
)

// pullCeiling is node's roundPullBatch: a replica keeps no block more
// than this many rounds above its frontier.
const pullCeiling = 256

type blockFlooder struct {
	*wireDriver
	frontier atomic.Uint64 // newest round of a peer block received
	forged   atomic.Uint64
	farAhead atomic.Uint64 // forged blocks a thousand rounds and more beyond the frontier
}

func newBlockFlooder(t *testing.T, h *Harness, id types.ReplicaID) *blockFlooder {
	f := &blockFlooder{wireDriver: newWireDriver(t, h, id)}
	f.build = func(r types.Round, parents []types.Digest) []proposal {
		return []proposal{{block: f.emptyBlock(r, parents)}}
	}
	f.onPeerBlock = func(b *types.Block) {
		f.vote(b)
		for cur := f.frontier.Load(); uint64(b.Round) > cur && !f.frontier.CompareAndSwap(cur, uint64(b.Round)); cur = f.frontier.Load() {
		}
	}
	return f
}

// flood sends each honest replica, every 2 ms, one batch frame of eight
// forged blocks — half for the four rounds from the frontier on, half
// a thousand rounds and more beyond it — until stop closes.
func (f *blockFlooder) flood(honest []int, stop <-chan struct{}) {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	var seq int64
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		r := types.Round(f.frontier.Load())
		if r == 0 {
			continue
		}
		for _, to := range honest {
			var frame []byte
			for i := 0; i < 8; i++ {
				seq++
				p := types.ReplicaID(honest[int(seq)%len(honest)])
				round := r + types.Round(seq%4)
				if i%2 == 1 {
					round = r + 1000 + types.Round(seq)
					f.farAhead.Add(1)
				}
				b := &types.Block{Epoch: 0, Round: round, Proposer: p,
					Shard: node.MyShard(p, 0, f.n), Kind: types.NormalBlock, ProposedUnixNano: seq}
				bs, _ := b.MarshalBinary()
				// A batch frame is [type u8][uvarint len][payload], repeated.
				frame = append(frame, byte(node.MsgBlock))
				frame = binary.AppendUvarint(frame, uint64(len(bs)))
				frame = append(frame, bs...)
				f.forged.Add(1)
			}
			_ = f.tr.Send(types.ReplicaID(to), node.MsgBatch, frame)
		}
	}
}

func TestScenarioByzantineBlockFlood(t *testing.T) {
	h := newHarness(t, Options{N: 4, Seed: 120, Headless: []int{3}})
	flooder := newBlockFlooder(t, h, 3)
	flooder.start()
	honest := []int{0, 1, 2}
	stop := make(chan struct{})
	flooded := make(chan struct{})
	go func() {
		defer close(flooded)
		flooder.flood(honest, stop)
	}()

	done := h.RunLoadAsync(LoadOptions{
		Duration: load(3 * time.Second), Clients: 8,
		Workload: workloadCfg(0.3, 0.3),
		Timeout:  5 * time.Second, // the flooder's shard starves: it proposes empty blocks
	})
	n := h.Cluster().N()
	samples, worst := 0, 0
	for deadline := time.Now().Add(load(3 * time.Second)); time.Now().Before(deadline) && !t.Failed(); {
		time.Sleep(100 * time.Millisecond)
		for _, i := range honest {
			err := h.Cluster().Node(i).Inspect(func(v *node.DebugView) {
				samples++
				span := int(max(v.HighestRound, v.NextRound)) + pullCeiling + 1 - int(v.GCFloor)
				if bound := 2 * n * span; v.PendingBlocks > bound {
					t.Errorf("replica %d holds %d blocks (bound %d: two per slot over %d rounds, floor %d, frontier %d)",
						i, v.PendingBlocks, bound, span, v.GCFloor, v.HighestRound)
				}
				worst = max(worst, v.PendingBlocks)
			})
			check(t, err)
		}
	}
	rep := done.Wait()
	close(stop)
	<-flooded
	if rep.Committed == 0 {
		t.Fatal("honest majority committed nothing under the block flood")
	}
	check(t, h.WaitQuiesced(budget, honest...))
	check(t, h.WaitConverged(budget, honest...))
	check(t, h.CheckSafety(honest...))
	check(t, h.CheckConservation(honest...))

	if samples == 0 || flooder.forged.Load() == 0 {
		t.Fatalf("flood never measured: %d samples, %d forged blocks", samples, flooder.forged.Load())
	}
	var dropped uint64
	for _, i := range honest {
		dropped += h.Cluster().Node(i).Metrics().Snapshot().Counters["blocks_dropped"]
	}
	if dropped == 0 {
		t.Errorf("no replica refused a forged block (%d sent)", flooder.forged.Load())
	}
	// Every far-ahead block is above every honest replica's ceiling (or
	// of an epoch it has left): each must be refused by its header, never
	// decoded. Deliveries still in flight are waited for.
	var refused uint64
	for deadline := time.Now().Add(budget); ; time.Sleep(50 * time.Millisecond) {
		refused = 0
		for _, i := range honest {
			refused += h.Cluster().Node(i).Metrics().Snapshot().Counters["msgs_refused_before_decode"]
		}
		if refused >= flooder.farAhead.Load() || time.Now().After(deadline) {
			break
		}
	}
	if refused < flooder.farAhead.Load() {
		t.Errorf("%d blocks refused before decode, %d sent far beyond the ceiling", refused, flooder.farAhead.Load())
	}
	if flooder.ownCerts.Load() == 0 {
		t.Error("the flooder's own slot never certified — the scenario degenerated to a crash fault")
	}
	t.Logf("%d forged blocks sent (%d far ahead), %d refused before decode, blocks_dropped %d, at most %d blocks held; honest commit latency %v",
		flooder.forged.Load(), flooder.farAhead.Load(), refused, dropped, worst, rep.Latency)
}
