package node

import (
	"time"

	"thunderbolt/internal/tusk"
	"thunderbolt/internal/types"
)

// Timing from measurement.
//
// Two waits in the round loop depend on how long a round takes, and a
// LAN constant for either is wrong by two orders of magnitude on a WAN
// link: how long a replica should hold its next proposal for the
// leader's certificate, and how long without progress means the replica
// is stalled rather than mid-round. Both derive from one number the
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

// leaderWaitBound is how long a proposal is held for a leader whose
// block has arrived: two certification latencies — the leader's block
// is at most one behind this replica's own — and never less than the
// round-pacing floor.
func (n *Node) leaderWaitBound() time.Duration {
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

// leaderWait is one hold of the next proposal for a leader vertex.
type leaderWait struct {
	round    types.Round // leader round being left; 0 = no hold
	since    time.Time
	released bool // the bound expired; do not hold this round again
}

// holdForLeader reports whether the proposal that would leave round
// prev must wait: every round carries an anchor candidate, and prev's
// leader block has been received here but not yet certified. Leaving
// without the vertex means the next block cannot reference it; when
// f+1 replicas do that the candidate misses direct support and its
// instance orders the candidate two rounds later instead — the round
// between them gets no anchor. A leader whose block never arrived is
// not waited for — a crashed leader costs what it always cost — and
// the hold ends when the vertex lands (addVertex re-enters
// maybeAdvance) or at leaderWaitBound (leaderTimer does).
func (n *Node) holdForLeader(prev types.Round) bool {
	w := &n.leaderWait
	leader := tusk.LeaderOf(n.epoch, prev, n.n)
	if _, ok := n.dagStore.Get(prev, leader); ok {
		if w.round == prev && !w.released {
			n.nm.leaderWaitNs.Observe(time.Since(w.since))
			w.released = true
		}
		return false
	}
	if w.round == prev {
		if w.released {
			return false
		}
		if waited := time.Since(w.since); waited >= n.leaderWaitBound() {
			n.nm.leaderWaitTimeouts.Add(1)
			n.nm.leaderWaitNs.Observe(waited)
			w.released = true
			return false
		}
		return true
	}
	if !n.blockSeen(prev, leader) {
		return false
	}
	*w = leaderWait{round: prev, since: time.Now()}
	n.nm.leaderWaits.Add(1)
	n.leaderTimer.Reset(n.leaderWaitBound())
	return true
}

// blockSeen reports whether a block for the slot has been received.
func (n *Node) blockSeen(r types.Round, p types.ReplicaID) bool {
	for _, d := range n.pendingRounds[r] {
		if b, ok := n.pendingBlocks[d]; ok && b.Proposer == p {
			return true
		}
	}
	return false
}
