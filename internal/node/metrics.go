package node

import (
	"fmt"

	"thunderbolt/internal/metrics"
	"thunderbolt/internal/storage"
	"thunderbolt/internal/types"
)

// Node instrument names, as they appear in the registry snapshot (and
// the debug listener's /metrics JSON). Counters and gauges mirror the
// Stats fields one-to-one — Stats() is now a read-through view over
// these instruments; per-class send-error counters are named
// "send_errors_<class>" from sendClassName.
const (
	mEpoch              = "epoch"
	mRound              = "round"
	mCommittedTxs       = "committed_txs"
	mCommittedSingle    = "committed_single"
	mCommittedCross     = "committed_cross"
	mConvertedToCross   = "converted_to_cross"
	mReexecutions       = "reexecutions"
	mRoundsProposed     = "rounds_proposed"
	mSkipBlocks         = "skip_blocks"
	mShiftBlocks        = "shift_blocks"
	mReconfigurations   = "reconfigurations"
	mValidationFailures = "validation_failures"
	mDroppedAtReconfig  = "dropped_at_reconfig"
	mFastForwards       = "fast_forwards"
	mPrunedRounds       = "pruned_rounds"
	mEpochJumps         = "epoch_jumps"
	mSnapshotsServed    = "snapshots_served"
	mMidEpochCaptures   = "mid_epoch_captures"
	mMidEpochInstalls   = "mid_epoch_installs"
	mSnapChunksServed   = "snap_chunks_served"
	mSnapChunksFetched  = "snap_chunks_fetched"
	mSnapChunksSkipped  = "snap_chunks_skipped"
	mSnapChunkRetries   = "snap_chunk_retries"
	mSnapChunksEncoded  = "snap_chunks_encoded" // chunks a capture hashed: rebuilt by a fold since their last digest
	mSnapChunksReused   = "snap_chunks_reused"  // chunks a capture took unchanged, digest and all
	mSnapCaptureNs      = "snap_capture_ns"     // histogram: one capture, walk to manifest
	mPendingCross       = "pending_cross"
	mQueueLen           = "queue_len"
	mBatchSize          = "batch_size"

	// Speculative-execution counters: hits install a result computed
	// ahead of the commit, misses discard the queued predictions and run
	// the wave at commit time, wasted counts the speculatively executed
	// transactions those discards threw away.
	mSpecHits      = "spec_hits"
	mSpecMisses    = "spec_misses"
	mSpecWastedTxs = "spec_wasted_txs"

	// Commit rule (tusk): slots decided, by rule. Every slot of a round
	// is an anchor candidate, so (committed direct + indirect) /
	// rounds_proposed is ≈ n when nothing fails; the indirect and
	// skipped counts stay near 0 unless a proposer crashed or lagged.
	mSlotsCommittedDirect   = "slots_committed_direct"
	mSlotsCommittedIndirect = "slots_committed_indirect"
	mSlotsSkipped           = "slots_skipped"

	// Certification and round pacing (votes.go, pacing.go).
	mSlotWaits         = "slot_waits"          // proposals held for the previous round's seen blocks to certify
	mSlotWaitTimeouts  = "slot_wait_timeouts"  // holds that ended at their bound
	mSlotWaitNs        = "slot_wait_ns"        // histogram: how long a hold lasted
	mVotesEarly        = "votes_early"         // votes counted before their block arrived
	mVotesDroppedLate  = "votes_dropped_late"  // votes for a slot already decided
	mVoteSigsSigned    = "vote_sigs_signed"    // vote signatures produced: one per bundle sealed
	mVoteSigsVerified  = "vote_sigs_verified"  // vote signatures checked: at most one per bundle received
	mVoteVerifyNs      = "vote_verify_ns"      // histogram: one of those checks
	mVoteBundleEntries = "vote_bundle_entries" // votes that left under those signatures
	mVoteSealHolds     = "vote_seal_holds"     // flushes that ended with the ballot held for its round quorum
	mVoteSealsOnStall  = "vote_seals_on_stall" // held ballots a stall sealed
	mFutureMsgsDropped = "future_msgs_dropped" // next-epoch messages a sender's own later ones pushed out
	mStallRebroadcasts = "stall_rebroadcasts"  // own block re-sent after a stall
	mRoundPulls        = "round_pulls"         // MsgRoundReq broadcasts
	mCertLatencyEst    = "cert_latency_est_ns" // gauge: own propose→certified estimate

	// Pipeline-depth gauges: how much work each stage of the pipelined
	// commit path is holding right now.
	mRoundsInFlight    = "rounds_in_flight"    // proposed rounds past the last fully decided round
	mExecQueueDepth    = "exec_queue_depth"    // committed waves queued for execution
	mOutboxFlushBytes  = "outbox_flush_bytes"  // bytes of the last outbox flush
	mOutboxFlushFrames = "outbox_flush_frames" // wire frames of the last outbox flush

	// Retention gauges (gc.go), set after each GC pass: vertices in the
	// decoded DAG, and the rounds and payload bytes the round archive
	// below it holds.
	mDagVertices        = "dag_vertices"
	mRoundArchiveRounds = "round_archive_rounds"
	mRoundArchiveBytes  = "round_archive_bytes"

	// Ledger gauges (storage.LedgerMetrics), recorded by the store:
	// records, chunks and chunk-encoding bytes after each fold, and the
	// write buffer's length after each apply; plus each fold's duration.
	mLedgerRecords  = "ledger_records"
	mLedgerChunks   = "ledger_chunks"
	mLedgerBytes    = "ledger_bytes"
	mLedgerBuffered = "ledger_buffered"
	mLedgerFoldNs   = "ledger_fold_ns"

	// The proposer's preplay key-state cache (depgraph): its size after
	// the last preplay, and the states its bound has dropped so far.
	mKeyStates        = "ce_key_states"
	mKeyStatesDropped = "ce_key_states_dropped"
)

// nodeMetrics bundles the node's instrumentation: a registry of
// counters/gauges/histograms, the flight recorder, and the leveled
// logger. Every handle is resolved once here, at construction, so the
// record paths (event loop, commit path) touch only atomics — no map
// lookups, locks, or allocations per sample.
type nodeMetrics struct {
	reg    *metrics.Registry
	flight *metrics.FlightRecorder
	log    *metrics.Logger

	committedTxs       *metrics.Counter
	committedSingle    *metrics.Counter
	committedCross     *metrics.Counter
	convertedToCross   *metrics.Counter
	reexecutions       *metrics.Counter
	roundsProposed     *metrics.Counter
	skipBlocks         *metrics.Counter
	shiftBlocks        *metrics.Counter
	reconfigurations   *metrics.Counter
	validationFailures *metrics.Counter
	droppedAtReconfig  *metrics.Counter
	fastForwards       *metrics.Counter
	prunedRounds       *metrics.Counter
	epochJumps         *metrics.Counter
	snapshotsServed    *metrics.Counter
	midEpochCaptures   *metrics.Counter
	midEpochInstalls   *metrics.Counter
	snapChunksServed   *metrics.Counter
	snapChunksFetched  *metrics.Counter
	snapChunksSkipped  *metrics.Counter
	snapChunkRetries   *metrics.Counter
	snapChunksEncoded  *metrics.Counter
	snapChunksReused   *metrics.Counter
	specHits           *metrics.Counter
	specMisses         *metrics.Counter
	specWastedTxs      *metrics.Counter
	slotsDirect        *metrics.Counter
	slotsIndirect      *metrics.Counter
	slotsSkipped       *metrics.Counter
	slotWaits          *metrics.Counter
	slotWaitTimeouts   *metrics.Counter
	votesEarly         *metrics.Counter
	votesDroppedLate   *metrics.Counter
	voteSigsSigned     *metrics.Counter
	voteSigsVerified   *metrics.Counter
	voteBundleEntries  *metrics.Counter
	voteSealHolds      *metrics.Counter
	voteSealsOnStall   *metrics.Counter
	futureMsgsDropped  *metrics.Counter
	stallRebroadcasts  *metrics.Counter
	roundPulls         *metrics.Counter
	sendErrors         [numSendClasses]*metrics.Counter

	epoch             *metrics.Gauge
	round             *metrics.Gauge
	pendingCross      *metrics.Gauge
	queueLen          *metrics.Gauge
	batchSize         *metrics.Gauge
	roundsInFlight    *metrics.Gauge
	execQueueDepth    *metrics.Gauge
	outboxFlushBytes  *metrics.Gauge
	outboxFlushFrames *metrics.Gauge
	certLatencyEst    *metrics.Gauge
	dagVertices       *metrics.Gauge
	archiveRounds     *metrics.Gauge
	archiveBytes      *metrics.Gauge
	keyStates         *metrics.Gauge
	keyStatesDropped  *metrics.Gauge
	ledger            storage.LedgerMetrics

	stageProposeCertify  *metrics.Histogram
	stageCertifyCommit   *metrics.Histogram
	stageCertifySpecDone *metrics.Histogram
	stageCommitExecute   *metrics.Histogram
	stageSubmitAck       *metrics.Histogram
	snapCapture          *metrics.Histogram
	slotWaitNs           *metrics.Histogram
	voteVerifyNs         *metrics.Histogram
}

func newNodeMetrics(id types.ReplicaID) *nodeMetrics {
	reg := metrics.NewRegistry()
	m := &nodeMetrics{
		reg:    reg,
		flight: metrics.NewFlightRecorder(metrics.DefaultFlightCap),
		log:    metrics.NewLogger(fmt.Sprintf("node %d", id)),

		committedTxs:       reg.Counter(mCommittedTxs),
		committedSingle:    reg.Counter(mCommittedSingle),
		committedCross:     reg.Counter(mCommittedCross),
		convertedToCross:   reg.Counter(mConvertedToCross),
		reexecutions:       reg.Counter(mReexecutions),
		roundsProposed:     reg.Counter(mRoundsProposed),
		skipBlocks:         reg.Counter(mSkipBlocks),
		shiftBlocks:        reg.Counter(mShiftBlocks),
		reconfigurations:   reg.Counter(mReconfigurations),
		validationFailures: reg.Counter(mValidationFailures),
		droppedAtReconfig:  reg.Counter(mDroppedAtReconfig),
		fastForwards:       reg.Counter(mFastForwards),
		prunedRounds:       reg.Counter(mPrunedRounds),
		epochJumps:         reg.Counter(mEpochJumps),
		snapshotsServed:    reg.Counter(mSnapshotsServed),
		midEpochCaptures:   reg.Counter(mMidEpochCaptures),
		midEpochInstalls:   reg.Counter(mMidEpochInstalls),
		snapChunksServed:   reg.Counter(mSnapChunksServed),
		snapChunksFetched:  reg.Counter(mSnapChunksFetched),
		snapChunksSkipped:  reg.Counter(mSnapChunksSkipped),
		snapChunkRetries:   reg.Counter(mSnapChunkRetries),
		snapChunksEncoded:  reg.Counter(mSnapChunksEncoded),
		snapChunksReused:   reg.Counter(mSnapChunksReused),
		specHits:           reg.Counter(mSpecHits),
		specMisses:         reg.Counter(mSpecMisses),
		specWastedTxs:      reg.Counter(mSpecWastedTxs),
		slotsDirect:        reg.Counter(mSlotsCommittedDirect),
		slotsIndirect:      reg.Counter(mSlotsCommittedIndirect),
		slotsSkipped:       reg.Counter(mSlotsSkipped),
		slotWaits:          reg.Counter(mSlotWaits),
		slotWaitTimeouts:   reg.Counter(mSlotWaitTimeouts),
		votesEarly:         reg.Counter(mVotesEarly),
		votesDroppedLate:   reg.Counter(mVotesDroppedLate),
		voteSigsSigned:     reg.Counter(mVoteSigsSigned),
		voteSigsVerified:   reg.Counter(mVoteSigsVerified),
		voteBundleEntries:  reg.Counter(mVoteBundleEntries),
		voteSealHolds:      reg.Counter(mVoteSealHolds),
		voteSealsOnStall:   reg.Counter(mVoteSealsOnStall),
		futureMsgsDropped:  reg.Counter(mFutureMsgsDropped),
		stallRebroadcasts:  reg.Counter(mStallRebroadcasts),
		roundPulls:         reg.Counter(mRoundPulls),

		epoch:             reg.Gauge(mEpoch),
		round:             reg.Gauge(mRound),
		pendingCross:      reg.Gauge(mPendingCross),
		queueLen:          reg.Gauge(mQueueLen),
		batchSize:         reg.Gauge(mBatchSize),
		roundsInFlight:    reg.Gauge(mRoundsInFlight),
		execQueueDepth:    reg.Gauge(mExecQueueDepth),
		outboxFlushBytes:  reg.Gauge(mOutboxFlushBytes),
		outboxFlushFrames: reg.Gauge(mOutboxFlushFrames),
		certLatencyEst:    reg.Gauge(mCertLatencyEst),
		dagVertices:       reg.Gauge(mDagVertices),
		archiveRounds:     reg.Gauge(mRoundArchiveRounds),
		archiveBytes:      reg.Gauge(mRoundArchiveBytes),
		keyStates:         reg.Gauge(mKeyStates),
		keyStatesDropped:  reg.Gauge(mKeyStatesDropped),
		ledger: storage.LedgerMetrics{
			Records:  reg.Gauge(mLedgerRecords),
			Chunks:   reg.Gauge(mLedgerChunks),
			Bytes:    reg.Gauge(mLedgerBytes),
			Buffered: reg.Gauge(mLedgerBuffered),
			FoldNs:   reg.Histogram(mLedgerFoldNs),
		},

		stageProposeCertify:  reg.Histogram(metrics.StageProposeCertify),
		stageCertifyCommit:   reg.Histogram(metrics.StageCertifyCommit),
		stageCertifySpecDone: reg.Histogram(metrics.StageCertifySpecDone),
		stageCommitExecute:   reg.Histogram(metrics.StageCommitExecute),
		stageSubmitAck:       reg.Histogram(metrics.StageSubmitAck),
		snapCapture:          reg.Histogram(mSnapCaptureNs),
		slotWaitNs:           reg.Histogram(mSlotWaitNs),
		voteVerifyNs:         reg.Histogram(mVoteVerifyNs),
	}
	for class := 0; class < numSendClasses; class++ {
		m.sendErrors[class] = reg.Counter("send_errors_" + sendClassName[class])
	}
	return m
}

// trace records one flight-recorder event stamped with the node's
// current epoch. A and B are kind-specific payloads; each call site
// documents its own.
func (n *Node) trace(kind metrics.EventKind, round types.Round, a, b uint64) {
	n.nm.flight.Note(kind, uint64(n.epoch), uint64(round), a, b)
}

// Metrics returns the node's instrument registry (counters, gauges,
// per-stage histograms). Snapshot it for one coherent view; resolve
// named histograms for cross-node merging.
func (n *Node) Metrics() *metrics.Registry { return n.nm.reg }

// Flight returns the node's flight recorder — the ring of recent
// protocol trace events the chaos harness dumps on invariant failure.
func (n *Node) Flight() *metrics.FlightRecorder { return n.nm.flight }

// Stats returns a snapshot of the node's counters, read through the
// metrics registry (the instruments are the source of truth).
// PendingCross and QueueLen are sampled at the last proposal.
func (n *Node) Stats() Stats {
	m := n.nm
	s := Stats{
		Epoch:              types.Epoch(m.epoch.Value()),
		Round:              types.Round(m.round.Value()),
		CommittedTxs:       m.committedTxs.Value(),
		CommittedSingle:    m.committedSingle.Value(),
		CommittedCross:     m.committedCross.Value(),
		ConvertedToCross:   m.convertedToCross.Value(),
		Reexecutions:       m.reexecutions.Value(),
		RoundsProposed:     m.roundsProposed.Value(),
		SkipBlocks:         m.skipBlocks.Value(),
		ShiftBlocks:        m.shiftBlocks.Value(),
		Reconfigurations:   m.reconfigurations.Value(),
		ValidationFailures: m.validationFailures.Value(),
		DroppedAtReconfig:  m.droppedAtReconfig.Value(),
		FastForwards:       m.fastForwards.Value(),
		PrunedRounds:       m.prunedRounds.Value(),
		EpochJumps:         m.epochJumps.Value(),
		SnapshotsServed:    m.snapshotsServed.Value(),
		MidEpochCaptures:   m.midEpochCaptures.Value(),
		MidEpochInstalls:   m.midEpochInstalls.Value(),
		SnapChunksServed:   m.snapChunksServed.Value(),
		SnapChunksFetched:  m.snapChunksFetched.Value(),
		SnapChunksSkipped:  m.snapChunksSkipped.Value(),
		SnapChunkRetries:   m.snapChunkRetries.Value(),
		SpecHits:           m.specHits.Value(),
		SpecMisses:         m.specMisses.Value(),
		SpecWastedTxs:      m.specWastedTxs.Value(),
		PendingCross:       uint64(m.pendingCross.Value()),
		QueueLen:           uint64(m.queueLen.Value()),
		BatchSize:          uint64(m.batchSize.Value()),
	}
	for class := 0; class < numSendClasses; class++ {
		s.SendErrors[class] = m.sendErrors[class].Value()
	}
	return s
}
