package node

import (
	"sort"
	"time"

	"thunderbolt/internal/dag"
	"thunderbolt/internal/gateway"
	"thunderbolt/internal/metrics"
	"thunderbolt/internal/tusk"
	"thunderbolt/internal/types"
)

// State-transfer rescue (ROADMAP "Cross-epoch recovery", extended to
// mid-epoch chunked rescue).
//
// Committed-wave GC bounds in-epoch recovery to the retention horizon,
// and a reconfiguration discards the old DAG entirely — so a replica
// that misses more history than the horizon can never re-derive it
// from catch-up requests: peers no longer hold what it is asking for.
// This file closes that hole with a snapshot protocol:
//
//   - Capture: every replica builds a types.Snapshot at each epoch
//     transition AND at fixed committed-leader-round boundaries inside
//     the epoch (Config.SnapshotInterval). Both run at deterministic
//     positions of the committed sequence, so every honest replica's
//     capture for the same position is bit-identical. The capture
//     streams the ledger through a ChunkBuilder: fixed-size chunks of
//     types.DefaultChunkRecords records, per-chunk digests, and a
//     snapshot digest over the manifest (header + Merkle-folded chunk
//     digests + dedup state), never over the raw records. It is
//     incremental: one ordered walk of the store, and only the chunks
//     holding a record written since the previous capture are encoded
//     and hashed again; the rest are shared with that capture.
//   - Detect: there is no rescue request. A stranded replica keeps
//     sending the round pulls (MsgRoundReq) any stalled replica sends,
//     to every peer, and a peer answers a pull from a stale epoch or
//     for a round below its GC floor with its signed manifest instead
//     of blocks (handleRoundReq) — a dead or withholding peer cannot
//     absorb a request the others also received.
//   - Verify: a snapshot travels in one form at every ledger size — a
//     signed manifest (MsgSnapManifest), then its chunks pulled one by
//     one. Manifests are collected per verified signer; the fetch
//     waits for f+1 distinct signers with matching snapshot digests,
//     which guarantees at least one honest source — a lying server
//     cannot forge a quorum alone. The chunk fetch state machine
//     (snapchunk.go) then verifies every chunk independently against
//     its manifest digest; a ledger smaller than one chunk is one
//     chunk, and an empty ledger is none.
//   - Install: one batched state application (fetched chunks only —
//     locally matching chunks are skipped), the dedup and commit-log
//     position taken verbatim, then either an epoch jump (transition
//     snapshots) or a mid-epoch re-entry: the DAG is re-anchored at a
//     base a full re-entry margin behind the snapshot's end round and
//     the committer at the end round itself, history re-derived below
//     the snapshot position deduplicates against the restored state
//     exactly like a WAL-restart replay, and the replica rejoins while
//     the committee keeps committing.

// snapshotServeEvery spaces per-requester snapshot serves, in
// housekeeping ticks: a stranded replica re-pulls its round every few
// ticks (pullRound), and a manifest is too large to answer each pull.
const snapshotServeEvery = 4

// captureSnapshot records the canonical committed state at the
// transition out of the current epoch into nextEpoch. Runs on the
// event loop immediately before resetEpochState discards the DAG.
func (n *Node) captureSnapshot(nextEpoch types.Epoch) {
	n.capture(nextEpoch)
}

// maybeCaptureMidEpoch captures a mid-epoch snapshot when the
// committed leader round crosses a Config.SnapshotInterval boundary.
// Called after each executed wave: honest replicas execute the
// identical wave sequence, so the boundary crossing — and the
// committed state at it — is the same everywhere, making mid-epoch
// captures as bit-identical as transition captures. (A replica
// replaying history it already holds captures at stale positions; its
// digests then match no honest quorum, so those captures are inert.)
func (n *Node) maybeCaptureMidEpoch(leaderRound types.Round) {
	if n.cfg.SnapshotInterval <= 0 {
		return
	}
	iv := types.Round(n.cfg.SnapshotInterval)
	if leaderRound/iv <= n.lastSnapAt/iv {
		return
	}
	n.lastSnapAt = leaderRound
	n.capture(n.epoch)
	n.nm.midEpochCaptures.Add(1)
}

// capture builds the snapshot at the current committed position,
// tagged with snapEpoch: the next epoch for transition captures, the
// current epoch for mid-epoch captures (Epoch == PrevEpoch is what
// marks a snapshot as mid-epoch to its installer). One ordered walk of
// the store produces the chunk payloads and their digests. Chunks
// untouched since the previous capture (every record's version at or
// below snapCut) are that capture's chunks, by reference; what a
// capture produces does not depend on what it could reuse, so replicas
// with different histories stay bit-identical.
func (n *Node) capture(snapEpoch types.Epoch) {
	start := time.Now()
	cb := types.NewChunkBuilder(n.cfg.snapChunkRecords, -1)
	if n.lastSnap != nil {
		cb.Reuse(n.snapChunks, n.lastSnap.ChunkDigests, n.snapCut)
	}
	cut := n.cfg.Store.AscendVersioned(func(r types.RWRecord, ver uint64) bool {
		cb.AddVersioned(r.Key, r.Value, ver)
		return true
	})
	chunks, digests, _, count := cb.Finish()
	var shifts []types.ReplicaID
	if snapEpoch == n.epoch {
		for p := range n.committedShift {
			shifts = append(shifts, p)
		}
		sort.Slice(shifts, func(i, j int) bool { return shifts[i] < shifts[j] })
	}
	snap := &types.Snapshot{
		Epoch:     snapEpoch,
		N:         uint32(n.n),
		PrevEpoch: n.epoch,
		// The anchor of the last installed wave, not the committer's
		// position: waves it already ordered may still wait in execQ,
		// and the state captured here does not include them. A
		// mid-epoch installer resumes its committer right at this round.
		EndRound:     n.commitCtx.Wave,
		Shifts:       shifts,
		Commits:      n.nm.committedTxs.Value(),
		ChunkSize:    uint32(n.cfg.snapChunkRecords),
		RecordCount:  uint64(count),
		ChunkDigests: digests,
		// The dedup payload is the compact per-client state, not the
		// full applied set: floors and window bitmaps (bounded by
		// clients × window). Dedup state evolves only in committed
		// order, so honest replicas capture bit-identical sessions here.
		DedupWindow: uint32(n.dedup.Window()),
		Sessions:    n.dedup.Sessions(),
	}
	n.lastSnap = snap
	n.snapChunks = chunks
	n.snapCut = cut
	n.lastManifestMsg = nil // rebuilt on first serve

	reused := uint64(cb.Reused())
	encoded := uint64(len(chunks)) - reused
	n.nm.snapChunksEncoded.Add(encoded)
	n.nm.snapChunksReused.Add(reused)
	n.nm.snapCapture.Observe(time.Since(start))
	// a = chunks encoded, b = chunks shared with the previous capture.
	n.trace(metrics.EvSnapCapture, snap.EndRound, encoded, reused)
}

// serveSnapshot sends this node's latest capture to a replica that
// says it is at (reqEpoch, reqRound), rate-limited per requester, as
// its signed manifest; the requester pulls the chunks. The snapshot
// is only sent when it would actually move the requester forward — a
// later epoch, or the same epoch at least a full re-entry margin
// ahead of reqRound (reqRound 0 means the requester's position is
// unknown; the requester's own install gate re-checks usefulness).
func (n *Node) serveSnapshot(to types.ReplicaID, reqEpoch types.Epoch, reqRound types.Round) {
	snap := n.lastSnap
	if snap == nil || to == n.cfg.ID {
		return
	}
	if snap.Epoch < reqEpoch {
		return
	}
	if snap.Epoch == reqEpoch {
		// Same-epoch rescue needs a mid-epoch capture (a transition
		// snapshot into this epoch would restart the requester at a
		// position it already passed) far enough ahead of the
		// requester to be worth installing.
		if snap.Epoch != snap.PrevEpoch || snap.EndRound < reqRound+minGCHorizon {
			return
		}
	}
	if at, ok := n.snapServed[to]; ok && time.Since(at) < snapshotServeEvery*n.cfg.TickInterval {
		return
	}
	n.snapServed[to] = time.Now()
	if n.lastManifestMsg == nil {
		// The snapshot is immutable once captured: encode and sign it
		// once, then every further serve is a plain Send.
		n.lastManifestMsg = (&snapshotMsg{
			Signer: n.cfg.ID,
			Sig:    n.cfg.Signer.Sign(snap.Digest()),
			Snap:   mustMarshal(snap),
		}).marshal()
	}
	n.sendNow(to, MsgSnapManifest, n.lastManifestMsg)
	n.nm.snapshotsServed.Add(1)
}

// snapshotUseful gates candidate intake: installing must move this
// replica forward. Cross-epoch snapshots from a later epoch always
// qualify. Same-epoch snapshots qualify only when they are mid-epoch
// captures sitting at least a full re-entry margin ahead of this
// replica's committed position (a healthy replica near the frontier
// rejects them, so pushed manifests cannot perturb a live node) and
// not behind its commit count (installing an older dedup state would
// roll resolution back).
func (n *Node) snapshotUseful(s *types.Snapshot) bool {
	if s.Epoch > n.epoch {
		return true
	}
	if s.Epoch < n.epoch {
		return false
	}
	return s.Epoch == s.PrevEpoch &&
		s.EndRound >= n.committer.LastLeaderRound()+minGCHorizon &&
		s.Commits >= n.Stats().CommittedTxs
}

// handleSnapshot collects one replica's signed snapshot manifest and
// starts the chunk fetch once f+1 distinct verified signers agree.
// The candidate key is the verified signer, never the transport
// sender: over TCP the claimed sender ID is just bytes in a frame,
// and without the signature check one connection could impersonate
// f+1 replicas and forge the install quorum. Only the latest
// candidate per signer counts, so re-sending variants cannot inflate
// any count either.
func (n *Node) handleSnapshot(_ types.ReplicaID, payload []byte) {
	var m snapshotMsg
	if err := m.unmarshal(payload); err != nil {
		return
	}
	if int(m.Signer) >= n.n || m.Signer == n.cfg.ID {
		return
	}
	var snap types.Snapshot
	if err := snap.UnmarshalBinary(m.Snap); err != nil {
		return
	}
	if int(snap.N) != n.n || !snap.Canonical() || !n.snapshotUseful(&snap) {
		return
	}
	// The dedup configuration is part of the committee contract (like
	// N): installing under a different window would make this
	// replica's dedup evolution — and its next snapshot capture —
	// diverge from the committee's.
	if int(snap.DedupWindow) != n.dedup.Window() {
		return
	}
	if !n.memoVerifier.Verify(m.Signer, snap.Digest(), m.Sig) {
		return
	}
	n.snapFrom[m.Signer] = &snap
	n.maybeInstallSnapshot()
}

// maybeInstallSnapshot looks for a digest vouched for by f+1 distinct
// verified signers. Matching digests mean identical manifests, and
// f+1 of them include at least one honest replica's capture; the
// chunk fetch then pulls the ledger from those signers.
func (n *Node) maybeInstallSnapshot() {
	votes := make(map[types.Digest]int, len(n.snapFrom))
	digests := make(map[types.ReplicaID]types.Digest, len(n.snapFrom))
	var best *types.Snapshot
	var bestDig types.Digest
	for id, s := range n.snapFrom {
		d := s.Digest()
		digests[id] = d
		votes[d]++
		if votes[d] >= n.f+1 && (best == nil || s.Epoch > best.Epoch ||
			(s.Epoch == best.Epoch && s.Commits > best.Commits)) {
			best = s
			bestDig = d
		}
	}
	if best == nil {
		return
	}
	var servers []types.ReplicaID
	for id, d := range digests {
		if d == bestDig {
			servers = append(servers, id)
		}
	}
	sort.Slice(servers, func(i, j int) bool { return servers[i] < servers[j] })
	n.startChunkFetch(best, servers)
}

// installSnapshot applies a verified snapshot. The replica's own
// committed prefix is always a prefix of the snapshot's (commit
// sequences are prefix-consistent and the snapshot sits at a later
// position), so overlaying the writes and taking the snapshot's dedup
// state verbatim loses nothing; the batched Store.Apply is the single
// state application, and the verbatim dedup restore is what keeps
// this replica's next capture bit-identical to honest peers'. writes
// is the record set that actually needs applying: the fetched chunks,
// not the ones the local state already matched. chunks is the
// snapshot's full encoded chunk list, retained for serving later
// fetchers.
func (n *Node) installSnapshot(snap *types.Snapshot, writes []types.RWRecord, chunks [][]byte) {
	n.fetch = nil
	crossEpoch := snap.Epoch != n.epoch
	// Restore the dedup first, then apply the ledger with the restore
	// journaled in the same WAL record: a durable replica that
	// restarts after this point replays the absolute dedup state next
	// to the ledger batch, landing on the identical position (the
	// restore is absolute, so replaying it over a checkpoint that
	// already contains it is idempotent).
	n.dedup.Restore(snap.Sessions)
	n.applyCommit(writes, n.restoreNote(snap.Epoch, snap.Commits))
	// Re-anchor the commit log at the snapshot's sequence position:
	// the local log resumes exactly where the committee's agreed
	// sequence continues, keeping cross-replica prefix comparisons
	// meaningful after the jump.
	n.clogMu.Lock()
	n.clog = nil
	n.clogStart = snap.Commits
	n.clogMu.Unlock()
	// The verified snapshot is identical to an honest capture, so this
	// replica now serves it — manifest and chunks — to later
	// stragglers, widening the pool a future f+1 install can draw on
	// (re-signed with this replica's own key on first serve).
	n.lastSnap = snap
	n.snapChunks = chunks
	n.snapCut = 0 // peers cut these chunks: the next capture reuses none
	n.lastManifestMsg = nil
	if crossEpoch {
		n.nm.epochJumps.Add(1)
		// a = the epoch jumped into.
		n.trace(metrics.EvEpochJump, snap.EndRound, uint64(snap.Epoch), 0)
	}
	if snap.Epoch == snap.PrevEpoch {
		n.nm.midEpochInstalls.Add(1)
	}
	// Absolute set: the committed position jumps to the snapshot's.
	n.nm.committedTxs.Store(snap.Commits)
	// a = snapshot epoch, b = its committed-transaction position.
	n.trace(metrics.EvSnapInstall, snap.EndRound, uint64(snap.Epoch), snap.Commits)
	if snap.Epoch == snap.PrevEpoch {
		n.resumeMidEpoch(snap)
	} else {
		n.transition(snap.Epoch, false)
	}
}

// resumeMidEpoch re-enters a live epoch from a mid-epoch snapshot:
// the DAG restarts at a base one full re-entry margin behind the
// snapshot's end round, where peers still retain vertices — the
// snapshot's serving constraint GCHorizon ≥ SnapshotInterval +
// minGCHorizon guarantees it. The committer restarts at the end round
// itself: that is the last anchor the snapshot's wave sequence
// ordered, an instance boundary the whole committee agrees on, so the
// first instance here is the committee's next one. (Started at the
// base instead, it could order an anchor below the end round that no
// one else ordered.) The first wave also linearizes history between
// the base and the end round that the restored dedup already
// resolves, so it validates as duplicates instead of re-applying —
// the same replay model as a WAL restart. The epoch's committed Shift
// proposers come back from the snapshot before anything replays:
// Shift blocks committed below the base would never be re-derived,
// and without them this replica would reconfigure a wave after its
// peers. When the snapshot is from this replica's
// own epoch, the vote map survives (a re-entry must not be tricked
// into second votes for slots it already signed) and queued plus
// in-flight own transactions requeue — the shard assignment is
// unchanged, so they are still ours to propose. A cross-epoch
// mid-epoch install (stranded across a reconfiguration, rescued by a
// later epoch's mid-epoch capture) instead nacks them, exactly like a
// transition: the shard rotated and clients must re-route.
func (n *Node) resumeMidEpoch(snap *types.Snapshot) {
	base := types.Round(1)
	if snap.EndRound > minGCHorizon {
		base = snap.EndRound - minGCHorizon
	}
	sameEpoch := snap.Epoch == n.epoch
	savedVotes := n.voted
	savedSeen := n.seen
	queue := n.txQueue
	var pending []*types.Transaction
	for _, d := range n.ownPending {
		if b, ok := n.pendingBlocks[d]; ok {
			pending = append(pending, b.SingleTxs...)
			pending = append(pending, b.CrossTxs...)
		}
	}
	n.txQueue = nil
	n.resetEpochState(snap.Epoch)
	n.dagStore = dag.NewStoreAt(snap.Epoch, n.n, base)
	n.committer = tusk.NewCommitterAt(n.dagStore, n.n, snap.EndRound)
	for _, p := range snap.Shifts {
		n.committedShift[p] = true
	}
	n.nextRound = base
	// Resume the capture cadence at the snapshot's position, as its
	// capturers' did: the next capture is at the next interval boundary
	// they cross too, not on the first wave here.
	n.lastSnapAt = snap.EndRound
	if sameEpoch {
		n.voted = savedVotes
		n.seen = savedSeen
		n.txQueue = queue
		queued := make(map[types.Digest]bool, len(queue))
		for _, tx := range queue {
			queued[tx.ID()] = true
		}
		for _, tx := range pending {
			id := tx.ID()
			if n.dedup.Resolved(tx) || queued[id] {
				continue
			}
			queued[id] = true
			n.txQueue = append(n.txQueue, tx)
		}
	} else {
		n.seen = make(map[types.Digest]time.Time)
		rejected := append(queue, pending...)
		seen := make(map[types.Digest]bool, len(rejected))
		dropped := uint64(len(queue))
		for _, tx := range rejected {
			id := tx.ID()
			if n.dedup.Resolved(tx) || seen[id] {
				continue
			}
			seen[id] = true
			n.nackPending(tx, gateway.NackEpochEnded)
			if n.cfg.OnRejectTx != nil {
				n.cfg.OnRejectTx(tx)
			}
		}
		n.nm.droppedAtReconfig.Add(dropped)
	}
	n.nm.epoch.Set(int64(n.epoch))
	// Replay messages that arrived early, then rejoin: the first
	// proposal at the base needs no parents (the store waives them
	// there), and normal catch-up — round pulls, orphan backfill,
	// fast-forward — walks this replica to the live frontier.
	n.propose()
	n.replayFuture()
}
