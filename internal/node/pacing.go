package node

import (
	"time"

	"thunderbolt/internal/types"
)

// Timing from measurement.
//
// Two waits in the round loop depend on how long a round takes, and a
// LAN constant for either is wrong by two orders of magnitude on a WAN
// link: how long a replica should hold its next proposal for the
// previous round's certificates, and how long without progress means
// the replica is stalled rather than mid-round. Both derive from one number the
// replica measures on itself — certLatency, the propose→certified
// latency of its own blocks — with the configured intervals as floors.

// stallGrace is the stall threshold, in ticks, of a replica that has
// not certified a block of its own yet and so has no measurement: a
// cold committee on slow links needs its first two message delays
// before it can know they are slow.
const stallGrace = 10

// observeCertLatency folds the propose→certified latency of an own
// block that just landed into the estimate. A block that took more than
// four estimates was rescued by stall recovery — it timed the fault,
// not the network — and counts as four: one outage moves the estimate
// by a bounded step, while a real change in link latency still pulls it
// along within a few rounds.
func (n *Node) observeCertLatency(b *types.Block) {
	sample := b.Stamps.Certified.Sub(b.Stamps.Seen)
	if sample <= 0 {
		return
	}
	if n.certLatency == 0 {
		n.certLatency = sample
	} else {
		n.certLatency += (min(sample, 4*n.certLatency) - n.certLatency) / 8
	}
	n.nm.certLatencyEst.Set(int64(n.certLatency))
}

// slotWaitBound is how long a proposal is held for the previous
// round's blocks that have arrived uncertified: two certification
// latencies — such a block is at most one behind this replica's own —
// and never less than the round-pacing floor.
func (n *Node) slotWaitBound() time.Duration {
	return max(n.cfg.MinRoundInterval, 2*n.certLatency)
}

// stallAfter is how long without a proposal or a landed vertex counts
// as a stall, the signal housekeeping's recovery traffic is gated on:
// four certification latencies — a healthy round, however slow the
// links, makes progress well inside that — and never less than two
// ticks.
func (n *Node) stallAfter() time.Duration {
	if n.certLatency == 0 {
		return stallGrace * n.cfg.TickInterval
	}
	return max(2*n.cfg.TickInterval, 4*n.certLatency)
}

// slotWait is one hold of the next proposal for the previous round's
// slots.
type slotWait struct {
	round    types.Round // round being left; 0 = no hold
	since    time.Time
	released bool // the bound expired; do not hold this round again
}

// holdForSlots reports whether the proposal that would leave round
// prev must wait: every slot of prev is an anchor candidate, committed
// on its own only when 2f+1 vertices of the next round reference it,
// and a block of prev has been received here whose vertex has not
// landed yet. Leaving without the vertex means the next block cannot
// reference it; when f+1 replicas do that the slot misses direct
// commit and waits for an anchor two rounds up — and every slot behind
// it in the commit order waits with it. A block that never arrived is
// not waited for — a crashed proposer's slot is skipped on its own —
// and the hold ends when the last awaited vertex lands (addVertex
// re-enters maybeAdvance) or at slotWaitBound (slotTimer does).
func (n *Node) holdForSlots(prev types.Round) bool {
	w := &n.slotWait
	if !n.awaitingVertex(prev) {
		if w.round == prev && !w.released {
			n.nm.slotWaitNs.Observe(time.Since(w.since))
			w.released = true
		}
		return false
	}
	if w.round == prev {
		if w.released {
			return false
		}
		if waited := time.Since(w.since); waited >= n.slotWaitBound() {
			n.nm.slotWaitTimeouts.Add(1)
			n.nm.slotWaitNs.Observe(waited)
			w.released = true
			return false
		}
		return true
	}
	*w = slotWait{round: prev, since: time.Now()}
	n.nm.slotWaits.Add(1)
	n.slotTimer.Reset(n.slotWaitBound())
	return true
}

// awaitingVertex reports whether a block of round r has been received
// whose slot holds no vertex in the DAG yet.
func (n *Node) awaitingVertex(r types.Round) bool {
	for _, d := range n.pendingRounds[r] {
		if b, ok := n.pendingBlocks[d]; ok {
			if _, landed := n.dagStore.Get(r, b.Proposer); !landed {
				return true
			}
		}
	}
	return false
}
