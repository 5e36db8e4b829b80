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

// holdForSlots reports whether the proposal that would leave round
// prev must wait: a block of prev has been received here whose vertex
// has not landed yet. Every slot is an anchor candidate, committed on
// its own only when 2f+1 vertices of the next round reference it; when
// f+1 replicas leave without its vertex the slot waits for an anchor two
// rounds up, and every slot behind it in the commit order with it. A
// block that never arrived is not waited for (a crashed proposer's slot
// is skipped on its own). The hold, kept in prev's round record, ends
// when the last awaited vertex lands (addVertex re-enters maybeAdvance)
// or at slotWaitBound (slotTimer).
func (n *Node) holdForSlots(prev types.Round) bool {
	rs := n.table.rounds[prev]
	if rs == nil || rs.holdOver {
		return false // no block of prev is here, or its hold ended
	}
	if !n.awaitingVertex(prev, rs) {
		if !rs.holdSince.IsZero() {
			n.nm.slotWaitNs.Observe(time.Since(rs.holdSince))
			rs.holdOver = true
		}
		return false
	}
	if rs.holdSince.IsZero() {
		rs.holdSince = time.Now()
		n.nm.slotWaits.Add(1)
		n.slotTimer.Reset(n.slotWaitBound())
		return true
	}
	if waited := time.Since(rs.holdSince); waited >= n.slotWaitBound() {
		n.nm.slotWaitTimeouts.Add(1)
		n.nm.slotWaitNs.Observe(waited)
		rs.holdOver = true
		return false
	}
	return true
}

// awaitingVertex reports whether a block of round r (record rs) has
// been received whose slot holds no vertex in the DAG yet.
func (n *Node) awaitingVertex(r types.Round, rs *roundRecord) bool {
	for p := range rs.slot {
		if len(rs.slot[p].blocks) > 0 {
			if _, landed := n.dagStore.Get(r, types.ReplicaID(p)); !landed {
				return true
			}
		}
	}
	return false
}
