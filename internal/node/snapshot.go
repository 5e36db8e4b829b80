package node

import (
	"sort"
	"time"

	"thunderbolt/internal/gateway"
	"thunderbolt/internal/metrics"
	"thunderbolt/internal/types"
)

// State-transfer rescue (ROADMAP "Cross-epoch recovery", extended to
// mid-epoch chunked rescue).
//
// Committed-wave GC bounds in-epoch recovery to the serving horizon,
// and a reconfiguration discards the old DAG entirely — so a replica
// that misses more history than the horizon can never re-derive it
// from catch-up requests: peers no longer hold what it is asking for.
// This file closes that hole with a snapshot protocol:
//
//   - Capture: every replica builds a types.Snapshot of its current
//     epoch at the epoch's start (EndRound 0, right after a
//     reconfiguration enters it) AND at fixed decided-round
//     boundaries inside the epoch (Config.SnapshotInterval). Both run
//     at deterministic positions of the committed sequence, so every
//     honest replica's capture for the same position is bit-identical,
//     and both are one form, (Epoch, EndRound, Shifts, …). The ledger
//     travels as the store's own chunks (storage.Backend.Chunks):
//     fixed-size runs of types.DefaultChunkRecords records, per-chunk
//     digests, and a snapshot digest over the manifest (header +
//     Merkle-folded chunk digests + dedup state), never over the raw
//     records. A capture walks no records: it folds the store's write
//     buffer, hashes the chunks that fold rebuilt and shares the rest
//     with the capture before it.
//   - Detect: there is no rescue request. A stranded replica keeps
//     sending the round pulls (MsgRoundReq) any stalled replica sends,
//     to every peer, and a peer answers a pull from a stale epoch or
//     for a round below its round archive with its signed manifest instead
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
//     position taken verbatim, then the one re-entry path every way
//     into an epoch takes (enterEpoch): the DAG is re-anchored at a
//     base a full re-entry margin behind the snapshot's end round (base
//     1 for an epoch-start capture) and the committer at the end round
//     itself, history re-derived below the snapshot position
//     deduplicates against the restored state exactly like a
//     WAL-restart replay, and the replica rejoins while the committee
//     keeps committing. An in-band reconfiguration enters its new
//     epoch the same way, at end round 0.

// captureDue reports whether maybeCaptureMidEpoch would capture at
// round.
func (n *Node) captureDue(round types.Round) bool {
	iv := types.Round(n.cfg.SnapshotInterval)
	return iv > 0 && round/iv > n.lastSnapAt/iv
}

// snapshotServeEvery spaces per-requester snapshot serves, in
// housekeeping ticks: a stranded replica re-pulls its round every few
// ticks (pullRound), and a manifest is too large to answer each pull.
const snapshotServeEvery = 4

// maybeCaptureMidEpoch captures a mid-epoch snapshot when round, the
// last fully decided round whose waves are all installed and nothing
// after them, crosses a Config.SnapshotInterval boundary (captureDue).
// drainExec calls it before deciding a wave of a later round than the
// last one's, its install batch cut and installed there: honest
// replicas execute the identical wave sequence, so the boundary
// crossing — and the committed state at it — is the same everywhere,
// making mid-epoch captures as bit-identical as epoch-start captures.
// (A replica replaying history it already holds captures at stale
// positions; its digests then match no honest quorum, so those
// captures are inert.)
func (n *Node) maybeCaptureMidEpoch(round types.Round) {
	if !n.captureDue(round) {
		return
	}
	n.lastSnapAt = round
	n.capture()
	n.nm.midEpochCaptures.Add(1)
}

// capture builds the snapshot of the current epoch at the current
// committed position: EndRound is the last installed wave's round,
// which enterEpoch sets to the entry position (0 at an epoch's start).
// The store already keeps the ledger as snapshot chunks: the capture
// folds the store's write buffer and takes every chunk by reference,
// and only the chunks the fold rebuilt are hashed again. What a capture
// produces depends on the state alone, so replicas with different
// histories stay bit-identical.
func (n *Node) capture() {
	start := time.Now()
	led := n.cfg.Store.Chunks()
	var shifts []types.ReplicaID
	for p := range n.committedShift {
		shifts = append(shifts, p)
	}
	sort.Slice(shifts, func(i, j int) bool { return shifts[i] < shifts[j] })
	snap := &types.Snapshot{
		Epoch: n.epoch,
		N:     uint32(n.n),
		// The round of the last installed wave, not the committer's
		// position: waves it already ordered may still wait in execQ,
		// and the state captured here does not include them. The
		// cadence captures only once that round is fully decided, so an
		// installer resumes its committer right at this round.
		EndRound:     n.commitCtx.Wave,
		Shifts:       shifts,
		Commits:      n.nm.committedTxs.Value(),
		ChunkSize:    uint32(led.Size),
		RecordCount:  uint64(led.Records),
		ChunkDigests: led.Digests,
		// The dedup payload is the compact per-client state, not the
		// full applied set: floors and window bitmaps (bounded by
		// clients × window). Dedup state evolves only in committed
		// order, so honest replicas capture bit-identical sessions here.
		DedupWindow: uint32(n.dedup.Window()),
		Sessions:    n.dedup.Sessions(),
	}
	n.lastSnap = snap
	n.snapChunks = led.Enc
	n.lastManifestMsg = nil // rebuilt on first serve

	hashed := uint64(led.Rehashed)
	reused := uint64(len(led.Enc)) - hashed
	n.nm.snapChunksEncoded.Add(hashed)
	n.nm.snapChunksReused.Add(reused)
	n.nm.snapCapture.Observe(time.Since(start))
	// a = chunks hashed, b = chunks unchanged since an earlier digest.
	n.trace(metrics.EvSnapCapture, snap.EndRound, hashed, reused)
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
	// Same-epoch rescue needs a capture far enough ahead of the
	// requester to be worth installing; an epoch-start capture (EndRound
	// 0) never is, as it would restart the requester at a position it
	// already passed.
	if snap.Epoch == reqEpoch && snap.EndRound < reqRound+MinGCHorizon {
		return
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
// qualify. Same-epoch snapshots qualify only when they sit at least a
// full re-entry margin ahead of this replica's committed position (a
// healthy replica near the frontier rejects them, so pushed manifests
// cannot perturb a live node; an epoch-start capture never qualifies)
// and not behind its commit count (installing an older dedup state
// would roll resolution back).
func (n *Node) snapshotUseful(s *types.Snapshot) bool {
	if s.Epoch > n.epoch {
		return true
	}
	if s.Epoch < n.epoch {
		return false
	}
	return s.EndRound >= n.committer.DecidedRound()+MinGCHorizon &&
		s.Commits >= n.nm.committedTxs.Value()
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
	n.lastManifestMsg = nil
	if crossEpoch {
		n.nm.epochJumps.Add(1)
		// a = the epoch jumped into.
		n.trace(metrics.EvEpochJump, snap.EndRound, uint64(snap.Epoch), 0)
	} else {
		n.nm.midEpochInstalls.Add(1)
	}
	// Absolute set: the committed position jumps to the snapshot's.
	n.nm.committedTxs.Store(snap.Commits)
	// a = snapshot epoch, b = its committed-transaction position.
	n.trace(metrics.EvSnapInstall, snap.EndRound, uint64(snap.Epoch), snap.Commits)
	n.enterEpoch(snap.Epoch, snap.EndRound, snap.Shifts)
	// Replay messages that arrived early, then rejoin: the first
	// proposal at the base needs no parents (the store waives them
	// there), and normal catch-up — round pulls, orphan backfill,
	// fast-forward — walks this replica to the live frontier.
	n.proposeEntry()
	n.replayFuture()
}

// enterEpoch is the one way into an epoch, at the committed position
// (epoch, endRound) whose epoch has committed the Shifts of shifts: an
// in-band reconfiguration enters at end round 0 with no Shifts, and a
// snapshot install, from a later epoch or into the current one, at the
// snapshot's position. The DAG restarts at a base one full re-entry
// margin behind endRound, where peers still retain vertices — the
// snapshot's serving constraint GCHorizon ≥ SnapshotInterval +
// MinGCHorizon guarantees it — and at round 1 near an epoch's start.
// The committer restarts at endRound itself: a round whose slots the
// entered wave sequence had all decided, so the first slot here is the
// committee's next one. (Started at the base instead, it could order a
// slot below endRound that no one else ordered.) The first wave also
// linearizes history between the base and endRound that the restored
// dedup already resolves, so it validates as duplicates instead of
// re-applying — the same replay model as a WAL restart. The epoch's
// committed Shift proposers are restored before anything replays:
// Shift blocks committed below the base would never be re-derived,
// and without them this replica would reconfigure a wave after its
// peers.
//
// The work this replica claimed follows the shard assignment.
// Re-entering its own epoch, the assignment is unchanged: queued and
// in-flight own transactions requeue, and journaled votes from the base
// on survive (resetEpochState). Entering a later epoch, the shard
// rotated: every uncommitted claimed transaction is nacked
// (NackEpochEnded) so its client re-routes at once, and committed ones
// stay deduplicated via n.dedup. The caller proposes and replays parked
// messages afterwards.
func (n *Node) enterEpoch(epoch types.Epoch, endRound types.Round, shifts []types.ReplicaID) {
	base := types.Round(1)
	if endRound > MinGCHorizon {
		base = endRound - MinGCHorizon
	}
	sameEpoch := epoch == n.epoch
	savedSeen := n.seen
	queue := n.txQueue
	var pending []*types.Transaction
	for _, rs := range n.table.rounds {
		if b := rs.own; b != nil {
			pending = append(pending, b.SingleTxs...)
			pending = append(pending, b.CrossTxs...)
		}
	}
	n.txQueue = nil
	n.resetEpochState(epoch, base)
	n.newCommitter(endRound)
	n.commitCtx = CommitEntry{Epoch: epoch, Wave: endRound}
	for _, p := range shifts {
		n.committedShift[p] = true
	}
	// Resume the capture cadence at the entry position, as the
	// committee's did: the next capture is at the next interval
	// boundary they cross too, not on the first wave here.
	n.lastSnapAt = endRound
	if sameEpoch {
		n.seen = savedSeen
		n.txQueue = queue
		queued := n.queuedIDs()
		for _, tx := range pending {
			n.requeue(tx, queued)
		}
	} else {
		n.seen = make(map[types.Digest]time.Time)
		nacked := make(map[types.Digest]bool, len(queue)+len(pending))
		for _, tx := range append(queue, pending...) {
			id := tx.ID()
			if n.dedup.Resolved(tx) || nacked[id] {
				continue
			}
			nacked[id] = true
			n.reject(tx, gateway.NackEpochEnded)
		}
		n.nm.droppedAtReconfig.Add(uint64(len(queue)))
	}
	n.nm.epoch.Set(int64(n.epoch))
}
