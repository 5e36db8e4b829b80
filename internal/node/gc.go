package node

import (
	"thunderbolt/internal/metrics"
	"thunderbolt/internal/types"
)

// Committed-wave garbage collection (ROADMAP "DAG/memory pruning").
//
// Within an epoch the hot-path maps — the DAG store, pendingBlocks,
// voted, the per-slot vote collectors, certWait, round-request
// bookkeeping — previously grew with every round proposed. After each commit wave the node now
// prunes everything below a retention floor derived from its own
// committed frontier:
//
//	floor = lastCommittedLeaderRound − GCHorizon
//
// Pruning relative to the node's *own* commit progress is what makes
// GC recovery-safe from the pruner's side: a replica that is itself
// behind has a low floor and never discards history it still needs.
// For peers, the horizon is the contract: a round pull (MsgRoundReq)
// is answered with block + certificate pairs for any round within the
// horizon of the server's committed frontier; a replica that misses
// more than that is beyond in-epoch recovery and is rescued by the
// state-transfer protocol (snapshot.go) — the same pull for a pruned
// round is answered with the server's latest snapshot manifest, and
// the replica re-enters at the snapshot's base within a bounded round
// budget (the mid-epoch capture cadence, Config.SnapshotInterval)
// instead of waiting for the next reconfiguration or replaying the
// pruned range.
//
// Safety of discarding uncommitted vertices below the floor is argued
// at dag.Store.PruneBelow: with the horizon clamped far above the
// fast-forward gap, a vertex that old can never join committed
// history, so no future Linearize call on any replica can reach it.

// maybeGC advances the retention floor after commit progress and
// prunes every per-round structure below it. Cost is O(rounds newly
// pruned + entries in them), so steady-state work per wave is
// proportional to wave progress, not to history size.
func (n *Node) maybeGC() {
	if n.cfg.GCHorizon < 0 {
		return
	}
	horizon := types.Round(n.cfg.GCHorizon)
	last := n.committer.LastLeaderRound()
	if last <= horizon {
		return
	}
	floor := last - horizon
	old := n.dagStore.Floor()
	if floor <= old {
		return
	}
	n.committer.Forget(n.dagStore.PruneBelow(floor))

	// queued dedups rescue requeues against the live queue; built
	// lazily — own blocks below the floor are normally committed.
	var queued map[types.Digest]bool
	for r := old; r < floor; r++ {
		// Rescue any own uncommitted transactions before their block
		// is dropped, mirroring fastForward: a block this far behind
		// the committed frontier can never commit, so requeueing (with
		// applied/queue dedup) is the only path that keeps its
		// transactions from starving until the client's retry.
		if d, ok := n.ownPending[r]; ok {
			delete(n.ownPending, r)
			if b, ok := n.pendingBlocks[d]; ok {
				if queued == nil {
					queued = make(map[types.Digest]bool, len(n.txQueue))
					for _, tx := range n.txQueue {
						queued[tx.ID()] = true
					}
				}
				n.requeueOwnBlock(b, queued)
			}
		}
		if ds, ok := n.pendingRounds[r]; ok {
			for _, d := range ds {
				delete(n.pendingBlocks, d)
			}
			delete(n.pendingRounds, r)
		}
		for p := 0; p < n.n; p++ {
			k := voteKey{round: r, proposer: types.ReplicaID(p)}
			delete(n.voted, k)
			n.releaseSlot(k)
		}
		delete(n.roundReqAt, r)
	}
	// certWait and orphans are tiny transient sets; a linear sweep per
	// GC pass keeps them honest without their own round index.
	for d, cert := range n.certWait {
		if cert.Round < floor {
			delete(n.certWait, d)
		}
	}
	if len(n.orphans) > 0 {
		keep := n.orphans[:0]
		for _, o := range n.orphans {
			if o.Round() >= floor {
				keep = append(keep, o)
				continue
			}
			delete(n.orphanSet, o.Cert.Digest())
		}
		for i := len(keep); i < len(n.orphans); i++ {
			n.orphans[i] = nil
		}
		n.orphans = keep
	}
	if n.lastBlock != nil && n.lastBlock.Round < floor {
		n.lastBlock = nil
	}
	n.nm.prunedRounds.Add(uint64(floor - old))
	// a = rounds reclaimed by this pass.
	n.trace(metrics.EvGC, floor, uint64(floor-old), 0)
}
