// Package node assembles a full Thunderbolt replica: DAG
// dissemination and certification, Tusk commitment, the shard
// proposer with its Concurrent Executor, parallel validation,
// deterministic cross-shard execution, and non-blocking shard
// reconfiguration (paper §3–§6).
//
// A node plays the paper's three roles at once: shard proposer for
// its currently assigned shard, replica in the common DAG, and
// (periodically) consensus leader. All protocol state is owned by a
// single event-loop goroutine; transports, clients, and executor
// pools interact with it through channels.
package node

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"thunderbolt/internal/contract"
	"thunderbolt/internal/crypto"
	"thunderbolt/internal/dag"
	"thunderbolt/internal/gateway"
	"thunderbolt/internal/metrics"
	"thunderbolt/internal/storage"
	"thunderbolt/internal/transport"
	"thunderbolt/internal/tusk"
	"thunderbolt/internal/types"
	"thunderbolt/internal/validate"
)

// ExecutionMode selects how a node executes transactions; the paper's
// three evaluated systems (§12).
type ExecutionMode int

const (
	// ModeCE is Thunderbolt proper: Concurrent Executor preplay plus
	// parallel validation.
	ModeCE ExecutionMode = iota
	// ModeOCC is Thunderbolt-OCC: preplay through the OCC baseline
	// plus parallel validation.
	ModeOCC
	// ModeSerial is the Tusk baseline: order first, then execute
	// serially in commit order.
	ModeSerial
)

func (m ExecutionMode) String() string {
	switch m {
	case ModeCE:
		return "thunderbolt"
	case ModeOCC:
		return "thunderbolt-occ"
	case ModeSerial:
		return "tusk-serial"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config assembles a replica.
type Config struct {
	// ID is this replica; N the committee size (n = 3f+1).
	ID types.ReplicaID
	N  int
	// Transport connects the committee.
	Transport transport.Transport
	// Signer/Verifier certify DAG vertices.
	Signer   crypto.Signer
	Verifier crypto.Verifier
	// Registry resolves contracts; Store holds this replica's copy of
	// the state (genesis contents must match across the committee).
	// Any storage.Backend works: the in-memory store, or the durable
	// WAL backend — with the latter, a restarted process recovers its
	// committed state (and the commit-path dedup riding the backend's
	// recovery sidecar) from disk and resumes in its last epoch.
	Registry *contract.Registry
	Store    storage.Backend

	// Mode selects the execution pipeline (default ModeCE).
	Mode ExecutionMode
	// Executors sizes the preplay pool; Validators the validation
	// pool (defaults 16 and 16, the paper's system configuration).
	Executors  int
	Validators int
	// BatchSize is the adaptive batch controller's floor (default
	// 500): under sustained ingress backlog the proposer grows its
	// batch toward 4 × BatchSize and shrinks back here when its own
	// blocks take more than four ticks to commit (batchctl.go), so
	// throughput tracks offered load.
	BatchSize int

	// K triggers a Shift vote when a proposer has been silent for K
	// rounds (0 disables). KPrime forces a Shift vote every KPrime
	// proposed rounds (0 disables) — the paper's reconfiguration knobs.
	K      int
	KPrime int

	// CommitLogCap, when positive, makes the node retain its ordered
	// sequence of committed transaction digests (up to the cap; older
	// entries are dropped head-first with the offset preserved) for
	// cross-replica commit-sequence auditing — see CommitLog. Zero
	// disables retention.
	CommitLogCap int

	// NonceWindow is the per-client dedup window (gateway subsystem):
	// how many nonces above a client's applied floor are tracked
	// individually; submissions further ahead are nacked to back off.
	// 0 selects gateway.DefaultNonceWindow (1024); values are rounded
	// up to a multiple of 64. Consensus-critical: every replica must
	// configure the same value (snapshots and the WAL meta bind it;
	// installs and restarts reject a mismatch). A (client, nonce)
	// session is the only transaction identity: Submit refuses a
	// transaction without one.
	NonceWindow int

	// GCHorizon is how far back, in rounds below the last fully
	// decided round, this replica answers round pulls with the rounds'
	// blocks and certificates — it bounds serving, not the decoded DAG.
	// After each commit wave the node keeps decoded only the
	// MinGCHorizon rounds that can still change an ordering (the DAG and
	// the slot table), and keeps the rounds between that and the horizon
	// as their round-pull answers' wire bytes (gc.go). A replica that
	// misses more rounds than the horizon cannot be served the pruned
	// range by its peers and is rescued by a snapshot instead
	// (snapshot.go — see README "Recovery"). Zero selects the default
	// (2048); negative disables GC; positive values are clamped to
	// MinGCHorizon.
	GCHorizon int

	// SnapshotInterval captures a mid-epoch snapshot every this many
	// decided rounds, in addition to the capture at the start
	// of every epoch a reconfiguration enters. Captures happen at
	// deterministic positions of the committed sequence, so honest
	// replicas' mid-epoch snapshots are bit-identical and a stranded
	// replica can authenticate one with f+1 matching digests — the
	// rescue that bounds rejoin time by the capture cadence instead of
	// the epoch length. Zero selects the default (512); negative
	// disables mid-epoch capture; positive values are clamped so
	// GCHorizon − SnapshotInterval still leaves a full re-entry margin
	// (serving replicas must retain the rounds just behind their latest
	// capture).
	SnapshotInterval int

	// TickInterval paces housekeeping (block re-requests, recovery
	// retries); default 25ms. Twice this is the floor of the stall
	// threshold — how long without progress before a replica
	// rebroadcasts its block and pulls the previous round. The
	// threshold itself follows the replica's measured certification
	// latency (four times it, see pacing.go), so slow links raise it
	// without retuning; the floor only keeps it from dropping below the
	// housekeeping cadence on fast ones.
	TickInterval time.Duration
	// MinRoundInterval throttles round advancement (a batch timer):
	// an idle node proposes at most one block per interval, preventing
	// empty rounds from spinning the network. Default 1ms. It is also
	// the floor under the slot hold: a proposal waits for the previous
	// round's blocks that have arrived uncertified for at most twice the
	// measured certification latency, and never less than this.
	MinRoundInterval time.Duration

	// OnCommitTx, if set, fires for every committed transaction.
	OnCommitTx func(tx *types.Transaction, when time.Time)
	// OnRejectTx, if set, fires when this proposer permanently drops a
	// claimed transaction without committing it — misrouted after a
	// shard rotation, or unclaimed wholesale at a reconfiguration. The
	// proposer-side negative-ack: the client layer can re-route and
	// resubmit immediately instead of waiting out its retry timer (the
	// transaction is simultaneously removed from the seen dedup, so
	// the resubmission is accepted at once). Runs on the event loop;
	// implementations must not block.
	OnRejectTx func(tx *types.Transaction)
	// OnCommitWave, if set, fires after each commit wave with the
	// committed slot's round (Figure 16's per-round runtime series).
	OnCommitWave func(epoch types.Epoch, round types.Round, when time.Time)
}

func (c Config) withDefaults() Config {
	if c.Executors <= 0 {
		c.Executors = 16
	}
	if c.Validators <= 0 {
		c.Validators = 16
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 500
	}
	if c.TickInterval <= 0 {
		c.TickInterval = 25 * time.Millisecond
	}
	if c.MinRoundInterval <= 0 {
		c.MinRoundInterval = time.Millisecond
	}
	switch {
	case c.GCHorizon == 0:
		c.GCHorizon = defaultGCHorizon
	case c.GCHorizon > 0 && c.GCHorizon < MinGCHorizon:
		c.GCHorizon = MinGCHorizon
	}
	if c.SnapshotInterval == 0 {
		c.SnapshotInterval = defaultSnapshotInterval
	}
	// The serving contract: a replica must still serve MinGCHorizon
	// rounds below its newest capture's re-entry base, or the rescued
	// replica could not backfill the DAG segment it re-enters on. Clamp
	// the interval down — never the horizon up, which would silently
	// grow memory the operator bounded on purpose.
	if c.SnapshotInterval > 0 && c.GCHorizon > 0 {
		if max := c.GCHorizon - MinGCHorizon; c.SnapshotInterval > max {
			if max < 2 {
				max = 2
			}
			c.SnapshotInterval = max
		}
	}
	return c
}

const (
	// defaultGCHorizon serves roughly two thousand rounds of history —
	// far beyond any in-epoch outage the chaos suite injects — while
	// still bounding steady-state memory.
	defaultGCHorizon = 2048
	// MinGCHorizon is the decoded window: the rounds below the last
	// fully decided round a replica keeps decoded, and the floor on
	// configurable horizons. The GC safety argument (see
	// dag.Store.PruneBelow) needs it to sit well above the fast-forward
	// gap, so that any vertex old enough to prune is also too old to
	// ever join committed history. Ten gaps (40 rounds) is that margin;
	// the snapshot re-entry base (snapshot.go) retains the same span.
	MinGCHorizon = 10 * fastForwardGap
	// roundPullBatch caps how many missing rounds one housekeeping tick
	// pulls (housekeeping's range pull), chosen from a WAN-latency
	// SimNetwork sweep (README "Recovery cadence"): reconvergence after
	// a 6s crash halves from batch 16 to 64 (432ms → 206ms) and is flat
	// beyond (216ms at 256, 197ms at 1024) because WAN round production
	// bounds the gap. 256 keeps that flat-zone behaviour while also
	// covering a GC-horizon-deep gap in a quarter of the ticks 64 would
	// need, with no measured reply-burst cost.
	roundPullBatch = 256
	// defaultSnapshotInterval spaces mid-epoch captures roughly a
	// quarter of the default GC horizon apart: a stranded replica's
	// rescue snapshot is at most ~512 rounds stale, and servers
	// still hold four re-entry margins of history below it.
	defaultSnapshotInterval = 512
	// chunkServeBudget caps how many MsgSnapChunk replies this replica
	// sends per housekeeping tick (~64 × 4096 records ≈ a
	// quarter-million records per tick per server at the default chunk
	// size), so a rescue in progress cannot starve its own round
	// traffic. Requests over budget are dropped; the requester times
	// out and rotates to another server.
	chunkServeBudget = 64
)

// Stats is a point-in-time snapshot of a node's counters.
type Stats struct {
	Epoch              types.Epoch
	Round              types.Round
	CommittedTxs       uint64
	CommittedSingle    uint64
	CommittedCross     uint64
	ConvertedToCross   uint64
	Reexecutions       uint64
	RoundsProposed     uint64
	SkipBlocks         uint64
	ShiftBlocks        uint64
	Reconfigurations   uint64
	ValidationFailures uint64
	DroppedAtReconfig  uint64
	// FastForwards counts frontier rejoins after falling behind the
	// certified DAG (crash recovery, healed partitions).
	FastForwards uint64
	// PrunedRounds counts rounds reclaimed by committed-wave GC.
	PrunedRounds uint64
	// EpochJumps counts snapshot installs from a later epoch —
	// recoveries from being stranded across a reconfiguration, whether
	// the snapshot is that epoch's start or a capture inside it.
	// SnapshotsServed counts signed snapshot manifests served to
	// stragglers.
	EpochJumps      uint64
	SnapshotsServed uint64
	// MidEpochCaptures counts deterministic mid-epoch snapshot
	// captures (Config.SnapshotInterval boundaries); MidEpochInstalls
	// counts installs into the current epoch — rescues that re-entered
	// a live epoch at the snapshot's base round instead of waiting for
	// the next reconfiguration. An install counts in exactly one of
	// EpochJumps and MidEpochInstalls.
	MidEpochCaptures uint64
	MidEpochInstalls uint64
	// Chunked-transfer counters: chunks served to fetchers, chunks
	// fetched and verified, chunks skipped because the local state
	// already matched their digest (incremental rescue), and chunk
	// requests retried after a timeout or a corrupt payload.
	SnapChunksServed  uint64
	SnapChunksFetched uint64
	SnapChunksSkipped uint64
	SnapChunkRetries  uint64
	// PendingCross is the current number of observed-but-unexecuted
	// cross-shard transactions touching this node's shard.
	PendingCross uint64
	// QueueLen is the current proposer queue length.
	QueueLen uint64
	// SendErrors counts transport send/broadcast failures per message
	// class (indices: block, vote, cert, sync, snap, batch, other —
	// see outbox.go). In a healthy committee every entry stays zero;
	// chaos scenarios assert on it.
	SendErrors [numSendClasses]uint64
	// BatchSize is the adaptive proposer batch size currently in
	// effect (between Config.BatchSize and its cap).
	BatchSize uint64
	// SpecHits, SpecMisses and SpecWastedTxs always read 0: every wave
	// runs once, at commit, and nothing runs ahead of it. Their only
	// reader is benchmark/cluster_run.go (the node.spec_hit_rate and
	// node.spec_wasted_per_tx rows); the next change to the benchmark
	// deletes them with those rows.
	SpecHits      uint64
	SpecMisses    uint64
	SpecWastedTxs uint64
}

// TotalSendErrors sums SendErrors across classes.
func (s Stats) TotalSendErrors() uint64 {
	var t uint64
	for _, v := range s.SendErrors {
		t += v
	}
	return t
}

// Node is one Thunderbolt replica.
type Node struct {
	cfg Config
	n   int
	f   int

	// memoVerifier checks the certificates that arrive whole (recovery
	// replies): cfg.Verifier behind a memo that holds every signature
	// this replica produced, so its own vote inside a certificate is
	// never verified. Vote bundles are checked one by one against
	// cfg.Verifier as they are counted (votes.go).
	memoVerifier *crypto.CachingVerifier

	// inbox is an unbounded queue so the transport delivery goroutine
	// never blocks on a busy event loop (bounded queues here can close
	// a circular wait across nodes and deadlock the whole committee).
	inboxMu sync.Mutex
	inboxQ  []inboundMsg
	// inboxFree recycles the drained queue's backing array (node
	// goroutine only): without it every drain dropped the capacity and
	// the receive callback regrew the queue from scratch.
	inboxFree []inboundMsg
	inboxSig  chan struct{}

	txCh   chan *types.Transaction
	inspCh chan func(*Node)
	done   chan struct{}
	wg     sync.WaitGroup
	once   sync.Once

	lastProposal time.Time
	// lastProgress is the last time this node proposed or inserted a
	// certified vertex. Recovery traffic (lastBlock rebroadcast, round
	// pulls) is gated on its staleness: "no progress" is the wedge
	// signal, while "no recent proposal" is routine whenever round
	// latency exceeds the tick (e.g. WAN models) and would spam
	// full-block rebroadcasts every tick in steady state.
	lastProgress time.Time

	// --- event-loop-owned protocol state ---
	epoch     types.Epoch
	dagStore  *dag.Store
	committer *tusk.Committer
	// nextRound is the next round this node will propose.
	nextRound types.Round

	// table holds the certifier's state per (round, proposer) slot and
	// per round (slottable.go).
	table slotTable
	// ballot holds the votes cast since the last seal, in casting order
	// (ballotSpare is its double buffer); voteTree and leafBuf are the
	// scratch a bundle's Merkle tree is built in, sealing or checking,
	// and inVotes the one every received bundle decodes into.
	ballot      []voteEntry
	ballotSpare []voteEntry
	// voteUnsynced is set when a vote was journaled on a durable
	// backend since the last sync; sealVotes syncs the journal first,
	// and so does a flush carrying a fresh own block (ownUnsent).
	voteUnsynced bool
	ownUnsent    bool
	voteTree     types.MerkleTree
	leafBuf      []types.Digest
	inVotes      voteBundle
	// latestRound is, per proposer, the newest round it was heard
	// proposing itself or a vertex of it landed.
	latestRound []types.Round
	// futureMsgs parks messages stamped with the next epoch until this
	// replica's own transition, per sender and bounded (parkFuture).
	futureMsgs [][]inboundMsg
	// lastBlock is this node's newest proposed block; rebroadcast by
	// housekeeping (its Wire bytes, encoded once at propose time) until
	// its certificate lands in the DAG, which lets a replica whose
	// proposal was lost (crash, partition) resume progress after
	// recovery. Its round record remembers the vote count seen at the
	// previous housekeeping tick so the rebroadcast fires only when
	// vote collection has actually stopped — not merely because round
	// latency exceeds the tick interval.
	lastBlock *types.Block
	// archive holds the round-pull answers of the rounds that left the
	// decoded window, as wire bytes (gc.go).
	archive roundArchive

	// certLatency is this replica's running estimate (EWMA, 1/8 per
	// sample) of how long its own blocks take from proposal to landing
	// certified in the local DAG — two message delays plus queueing. It
	// scales the two waits that used to be LAN constants: how long a
	// proposal is held for the previous round's blocks (slotWaitBound)
	// and how long without progress counts as a stall (stallAfter). Zero
	// until the first own block certifies.
	certLatency time.Duration
	// slotTimer wakes the loop at the bound of a slot hold (pacing.go).
	slotTimer *time.Timer

	// --- outbound coalescing (outbox.go) ---
	outBcast  []outMsg
	outDirect [][]outMsg // per committee peer
	frameBuf  []byte

	// execQ holds committed waves awaiting execution: the commit path
	// is pipelined, so certificate and vote handling for rounds r and
	// r+1 is never blocked behind the execution of wave r−1. Waves
	// execute in commit order between event-loop passes (drainExec);
	// an epoch transition clears the queue (later waves of the dying
	// epoch are discarded, the paper's ending-round semantics). Each
	// entry carries its commit time — the certify→commit /
	// commit→execute stage boundary.
	execQ []execItem
	// execBatch holds the waves a drainExec pass has decided and not yet
	// installed (installBatch), in commit order. stack is what a wave
	// runs on: the batch's earlier waves (waveStack). Installed results
	// go back to freeResults (newResult).
	execBatch   []ranWave
	stack       *waveStack
	freeResults []*waveResult
	// epochEntries counts resetEpochState calls: a drainExec pass that
	// sees it move knows its queue was replaced.
	epochEntries uint64

	// baseReader is n.baseRead bound once: the commit path passes it to
	// validation/execution for every wave, and a method-value conversion
	// at the call site allocates each time.
	baseReader validate.BaseReader

	// loadedRound is the highest round at which any inserted block
	// carried transactions; maybeAdvance uses it to run rounds at wire
	// speed while the committee carries traffic and fall back to the
	// MinRoundInterval batch timer when idle.
	loadedRound types.Round

	// batch adapts the proposer batch size between Config.BatchSize
	// and its cap (batchctl.go).
	batch batchController

	// --- state transfer (snapshot.go, snapchunk.go) ---
	// lastSnap is this node's most recent capture (epoch start or
	// mid-epoch boundary) or install; it outlives per-epoch state so
	// the node can serve stragglers from any earlier position.
	// snapChunks holds its encoded chunk payloads for MsgSnapChunk
	// serving: the store's immutable chunks as of the capture, or the
	// fetched ones of an install. lastManifestMsg caches the
	// signed manifest, built once on first serve (the snapshot is
	// immutable, so every serve after that is a plain Send). snapFrom
	// holds the latest snapshot candidate per verified signer (install
	// needs f+1 matching digests), snapServed rate-limits serving per
	// requester, lastSnapAt is the decided round of the newest capture
	// or of the entry position (mid-epoch cadence tracking), chunkBudget is the per-tick
	// chunk-serve allowance, and fetch is the in-progress chunked rescue,
	// if any.
	lastSnap        *types.Snapshot
	snapChunks      [][]byte
	lastManifestMsg []byte
	snapFrom        map[types.ReplicaID]*types.Snapshot
	snapServed      map[types.ReplicaID]time.Time
	lastSnapAt      types.Round
	chunkBudget     int
	fetch           *chunkFetch

	// proposer state
	txQueue []*types.Transaction
	// batchSessions is drainQueue's scratch: the sessions of the
	// single-shard transactions the batch took so far.
	batchSessions map[session]struct{}
	// seen deduplicates client retransmissions (§6). Entries carry
	// their enqueue time and expire after seenTTL so a transaction
	// lost to a discarded block is accepted again on retransmission
	// instead of being swallowed forever.
	seen      map[types.Digest]time.Time
	preplayer preplayer
	ownWrites map[types.Key]types.Value // own uncommitted preplay writes
	ownBlocks []ownBlock                // uncommitted own normal blocks
	// pendingCross holds cross-shard transactions observed in the DAG,
	// not yet executed, that touch this node's shard (drives rules
	// P3/P4 conversions and §5.4 skip blocks).
	pendingCross map[types.Digest]*types.Transaction

	// reconfiguration state
	shiftSent      bool
	roundsProposed int
	committedShift map[types.ReplicaID]bool

	// commit state: the bounded dedup of resolved transactions —
	// per-client nonce floors and windows. Mutated only on the
	// deterministic commit path, so honest replicas at equal commit
	// positions hold bit-identical state (which is what lets snapshots
	// carry it verbatim).
	dedup *gateway.Dedup
	// durable is non-nil when Config.Store persists a recovery
	// sidecar (storage.Recoverable): the commit path then annotates
	// every apply with the dedup mutations it performs (durable.go).
	durable storage.Recoverable
	// marks collects a durable install batch's WAL note (newMarkNote).
	marks markNote
	// txClients maps pending transaction IDs to the wire client
	// waiting on them (gateway.go); survives epochs like dedup.
	txClients map[types.Digest]clientSub

	// clog is the ordered commit sequence (see Config.CommitLogCap);
	// clogStart counts entries dropped from the head. commitCtx holds
	// the wave/block provenance stamped onto entries (event-loop-owned,
	// set by installWave).
	clogMu    sync.Mutex
	clog      []CommitEntry
	clogStart uint64
	commitCtx CommitEntry

	// nm holds the node's instrumentation: registry-backed counters,
	// gauges, and per-stage histograms, the flight recorder, and the
	// leveled logger (metrics.go). Initialized before any recovery so
	// even restart paths record through it.
	nm *nodeMetrics
}

// execItem is one queued commit wave plus the moment the commit rule
// released it (processCommits) — the timestamp the per-stage
// histograms measure the certify→commit and commit→execute legs from.
type execItem struct {
	wave        tusk.CommitWave
	committedAt time.Time
}

type ownBlock struct {
	round  types.Round
	writes []types.RWRecord
}

// New builds (but does not start) a node.
func New(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Transport == nil || cfg.Signer == nil || cfg.Verifier == nil {
		return nil, errors.New("node: transport, signer and verifier are required")
	}
	if cfg.Registry == nil || cfg.Store == nil {
		return nil, errors.New("node: registry and store are required")
	}
	if cfg.N < 1 {
		return nil, errors.New("node: committee size must be positive")
	}
	n := &Node{
		cfg:          cfg,
		n:            cfg.N,
		f:            crypto.FaultBound(cfg.N),
		memoVerifier: crypto.NewCachingVerifier(cfg.Verifier, 0),
		inboxSig:     make(chan struct{}, 1),
		txCh:         make(chan *types.Transaction, 16384),
		inspCh:       make(chan func(*Node)),
		done:         make(chan struct{}),
		table:        slotTable{n: cfg.N, rounds: make(map[types.Round]*roundRecord)},
	}
	n.slotTimer = time.NewTimer(time.Hour)
	n.slotTimer.Stop()
	n.baseReader = n.baseRead
	n.nm = newNodeMetrics(cfg.ID)
	cfg.Store.Instrument(n.nm.ledger)
	if cfg.GCHorizon > 0 {
		n.archive.limit = cfg.GCHorizon - MinGCHorizon
	}
	n.dedup = gateway.NewDedup(cfg.NonceWindow, 0)
	n.stack = newWaveStack(n.dedup.Scratch(), n.baseReader)
	if rec, ok := cfg.Store.(storage.Recoverable); ok {
		n.durable = rec
		// Restart-from-disk: rebuild the dedup/commit position and the
		// journaled votes from the backend's sidecar and resume in the
		// recovered epoch — in-epoch catch-up (round pulls,
		// fast-forward) replays the missed suffix, and waves below the
		// recovered position validate as duplicates instead of
		// re-applying.
		if err := n.recoverFromBackend(rec); err != nil {
			return nil, err
		}
		rec.SetMetaFunc(n.walMeta)
	}
	n.resetEpochState(n.epoch, 1)
	n.chunkBudget = chunkServeBudget
	n.outDirect = make([][]outMsg, cfg.N)
	n.futureMsgs = make([][]inboundMsg, cfg.N)
	n.batch = newBatchController(cfg.BatchSize, 4*cfg.BatchSize)
	n.txClients = make(map[types.Digest]clientSub)
	n.seen = make(map[types.Digest]time.Time)
	n.batchSessions = make(map[session]struct{})
	n.preplayer = n.newPreplayer()
	cfg.Transport.SetHandler(func(from types.ReplicaID, mt transport.MsgType, payload []byte) {
		n.inboxMu.Lock()
		n.inboxQ = append(n.inboxQ, inboundMsg{from: from, mt: mt, payload: payload})
		n.inboxMu.Unlock()
		select {
		case n.inboxSig <- struct{}{}:
		default:
		}
	})
	return n, nil
}

// resetEpochState initializes per-epoch protocol state for epoch, its
// DAG entered at round base. Re-entering the same epoch keeps the
// journaled votes of rounds from base on: a re-entry must not be
// tricked into a second vote for a slot it signed.
func (n *Node) resetEpochState(epoch types.Epoch, base types.Round) {
	// Votes already journaled for the dying epoch still leave, under its
	// number: peers still in it may be waiting for them.
	n.sealVotes(false, false)
	if n.preplayer != nil { // nil during construction
		n.preplayer.invalidate() // own-writes overlay resets; carried tips are stale
	}
	n.table.reset(epoch == n.epoch, base)
	n.epoch = epoch
	n.dagStore = dag.NewStoreAt(epoch, n.n, base)
	n.newCommitter(0)
	// Resume above every own slot that holds a journaled vote (a restart
	// from the WAL, a same-epoch re-entry): its block is out already,
	// and a second block in it would be this replica equivocating.
	n.nextRound = max(base, n.table.ownVoted(n.cfg.ID)+1)
	n.latestRound = make([]types.Round, n.n)
	n.ownWrites = make(map[types.Key]types.Value)
	n.ownBlocks = nil
	n.pendingCross = make(map[types.Digest]*types.Transaction)
	n.shiftSent = false
	n.roundsProposed = 0
	n.committedShift = make(map[types.ReplicaID]bool)
	n.lastBlock = nil
	n.archive.reset(n.dagStore.Floor())
	n.execQ = nil // waves of a dying epoch never execute
	n.epochEntries++
	n.loadedRound = 0
	n.snapFrom = make(map[types.ReplicaID]*types.Snapshot)
	n.snapServed = make(map[types.ReplicaID]time.Time)
	n.lastSnapAt = 0
	n.fetch = nil
}

// newCommitter starts the epoch's committer at round seed (see
// tusk.NewCommitterAt), counting the blocks the slot table holds from
// their proposers toward the fast commit.
func (n *Node) newCommitter(seed types.Round) {
	n.committer = tusk.NewCommitterAt(n.dagStore, n.n, seed)
	n.committer.Receive(n.table.received)
}

// CommitEntry is one record of a node's ordered commit sequence: the
// transaction identity plus its provenance — which epoch and commit
// wave (its slot's round) applied it, which block carried it, and through
// which path. The provenance fields turn a cross-replica divergence
// from a bare digest mismatch into an explainable event.
type CommitEntry struct {
	ID       types.Digest
	Epoch    types.Epoch
	Wave     types.Round // round of the committing wave's slot
	Round    types.Round // round of the block carrying the transaction
	Proposer types.ReplicaID
	Cross    bool // committed via the ordered cross-shard path
}

func (e CommitEntry) String() string {
	path := "single"
	if e.Cross {
		path = "cross"
	}
	return fmt.Sprintf("%s{e%d w%d r%d p%d %s}", e.ID, e.Epoch, e.Wave, e.Round, e.Proposer, path)
}

// CommitLog returns the offset of the first retained entry and a copy
// of the node's ordered commit sequence (enabled by
// Config.CommitLogCap). Safe for concurrent use; the chaos harness's
// divergence and double-commit checkers consume it.
func (n *Node) CommitLog() (start uint64, entries []CommitEntry) {
	n.clogMu.Lock()
	defer n.clogMu.Unlock()
	return n.clogStart, append([]CommitEntry(nil), n.clog...)
}

// recordCommit appends one commit, stamped with the current wave and
// block provenance, to the retained log.
func (n *Node) recordCommit(id types.Digest) {
	if n.cfg.CommitLogCap <= 0 {
		return
	}
	e := n.commitCtx
	e.ID = id
	n.clogMu.Lock()
	n.clog = append(n.clog, e)
	if len(n.clog) > n.cfg.CommitLogCap {
		// Trim a quarter at a time so the shift is amortized O(1) per
		// commit rather than a full-log memmove on every append at cap.
		drop := n.cfg.CommitLogCap / 4
		if drop < 1 {
			drop = 1
		}
		n.clog = append(n.clog[:0], n.clog[drop:]...)
		n.clogStart += uint64(drop)
	}
	n.clogMu.Unlock()
}

// ID returns the replica ID.
func (n *Node) ID() types.ReplicaID { return n.cfg.ID }

// MyShard returns the shard this replica proposes for in the given
// epoch: shard ownership rotates round-robin each reconfiguration
// (proposer of shard x in epoch e is replica (x+e) mod n).
func MyShard(id types.ReplicaID, epoch types.Epoch, n int) types.ShardID {
	e := uint64(epoch) % uint64(n)
	return types.ShardID((uint64(id) + uint64(n) - e) % uint64(n))
}

// ProposerOfShard returns the replica serving shard s in epoch e. The
// rotation schedule's single definition lives in the gateway package
// (the client library routes with it and cannot import node); the
// replica side delegates so the two can never desynchronize.
func ProposerOfShard(s types.ShardID, epoch types.Epoch, n int) types.ReplicaID {
	return gateway.ProposerOfShard(s, epoch, n)
}

func (n *Node) myShard() types.ShardID {
	return MyShard(n.cfg.ID, n.epoch, n.n)
}

// Store returns this replica's state backend (authoritative,
// committed state only).
func (n *Node) Store() storage.Backend { return n.cfg.Store }

// Start launches the event loop and proposes the first block.
func (n *Node) Start() {
	n.wg.Add(1)
	go n.run()
}

// Stop terminates the node. It is idempotent.
func (n *Node) Stop() {
	n.once.Do(func() { close(n.done) })
	n.wg.Wait()
}

// Inspect runs f on the event-loop goroutine with exclusive access to
// all protocol state and blocks until it returns. Intended for tests
// and debugging tooling only.
func (n *Node) Inspect(f func(*DebugView)) error {
	donec := make(chan struct{})
	g := func(n *Node) {
		v := &DebugView{
			NextRound:      n.nextRound,
			DedupClients:   n.dedup.Clients(),
			HighestRound:   n.dagStore.HighestRound(),
			FutureMsgs:     n.futureLen(),
			GCFloor:        n.dagStore.Floor(),
			ArchiveFloor:   n.archive.lo,
			ArchiveRounds:  n.archive.rounds(),
			ArchiveBytes:   n.archive.bytes,
			DagVertices:    n.dagStore.Len(),
			CommittedFlags: n.committer.CommittedLen(),
			SlotsFast:      n.nm.slotsFast.Value(),
			Vertices: func(r types.Round) []VertexInfo {
				var out []VertexInfo
				for _, v := range n.dagStore.AtRound(r) {
					out = append(out, VertexInfo{Proposer: v.Proposer(), CertDigest: v.Cert.Digest()})
				}
				return out
			},
		}
		n.table.census(v)
		f(v)
		close(donec)
	}
	select {
	case n.inspCh <- g:
		<-donec
		return nil
	case <-n.done:
		return errors.New("node: stopped")
	}
}

// DebugView is a snapshot of event-loop state handed to Inspect.
type DebugView struct {
	NextRound types.Round
	// DedupClients is the bounded dedup state's population (clients
	// tracked) — the plateau tests sample it.
	DedupClients int
	// HighestRound is the highest certified round; CertWait counts the
	// slots whose certificate waits for its block.
	HighestRound types.Round
	CertWait     int
	// Collectors counts the slots with a live vote collector (voted on
	// but not yet certified here); EarlyVotes the votes they hold for
	// blocks their slot has not received. Both are bounded by the vote
	// window and reclaimed at the GC floor.
	Collectors int
	EarlyVotes int
	// FutureMsgs counts the messages parked for the next epoch, bounded
	// per sender.
	FutureMsgs int
	// GC observability: the decoded floor, the round archive below it
	// (its lowest round, rounds held and bytes pinned), and what
	// committed-wave GC bounds — decoded vertices, the slot table's blocks
	// (one per sender per slot) and journaled votes, the committer's
	// flags — which the long-run plateau tests sample.
	GCFloor        types.Round
	ArchiveFloor   types.Round
	ArchiveRounds  int
	ArchiveBytes   int
	DagVertices    int
	PendingBlocks  int
	VotedSlots     int
	CommittedFlags int
	// SlotsFast counts the slots committed on every proposer's received,
	// not yet certified, next-round block (slots_committed_fast, a subset
	// of slots_committed_direct).
	SlotsFast uint64
	// Vertices returns the certified vertices at one round (valid only
	// inside the Inspect callback).
	Vertices func(r types.Round) []VertexInfo
}

// VertexInfo is a read-only DAG vertex summary for debugging.
type VertexInfo struct {
	Proposer   types.ReplicaID
	CertDigest types.Digest
}

// Submit enqueues a client transaction. Single-shard transactions
// must be routed to the proposer currently serving their shard;
// misrouted ones are rejected so the client layer can re-route. A
// transaction without a (client, nonce) session is refused.
func (n *Node) Submit(tx *types.Transaction) error {
	if !gateway.Sessioned(tx) {
		return errors.New("node: transaction has no (client, nonce) session")
	}
	select {
	case n.txCh <- tx:
		return nil
	case <-n.done:
		return errors.New("node: stopped")
	}
}

func (n *Node) run() {
	defer n.wg.Done()
	tick := time.NewTicker(n.cfg.TickInterval)
	defer tick.Stop()
	pace := time.NewTicker(n.cfg.MinRoundInterval)
	defer pace.Stop()
	defer n.slotTimer.Stop()
	n.proposeEntry()
	n.flushOutbox()
	for {
		select {
		case <-n.inboxSig:
			n.drainInbox()
		case tx := <-n.txCh:
			n.enqueueTx(tx)
			// Drain whatever else the clients have queued before paying
			// for another full select pass (a non-blocking single-channel
			// receive compiles to a cheap runtime call, not selectgo).
		txdrain:
			for {
				select {
				case tx := <-n.txCh:
					n.enqueueTx(tx)
				default:
					break txdrain
				}
			}
			// A fresh transaction can make an idle node hot: propose
			// immediately if the quorum is already waiting.
			n.maybeAdvance()
		case f := <-n.inspCh:
			f(n)
		case <-pace.C:
			n.maybeAdvance()
		case <-n.slotTimer.C:
			n.maybeAdvance() // a slot hold reached its bound
		case <-tick.C:
			n.housekeeping()
		case <-n.done:
			return
		}
		// Pipeline tail. One coalesced flush sends everything the pass
		// produced, its ballot sealed into one bundle first unless held
		// for the round quorum — sealing counts this replica's own
		// votes, and can certify a vertex and release a commit wave.
		// The handlers above collected waves without executing them;
		// execute now, re-draining the inbox between waves so vote and
		// certificate handling for newer rounds is never blocked behind
		// execution of older ones, and flush what that produced, until
		// neither leaves work for the other.
		for n.flushOutbox(); len(n.execQ) > 0; n.flushOutbox() {
			n.drainExec()
		}
	}
}

func (n *Node) drainInbox() {
	for {
		n.inboxMu.Lock()
		q := n.inboxQ
		if len(q) == 0 {
			n.inboxMu.Unlock()
			return
		}
		n.inboxQ = n.inboxFree // empty; never aliases q's backing array
		n.inboxMu.Unlock()
		for _, m := range q {
			n.handle(m)
		}
		clear(q) // release payload references before recycling
		n.inboxFree = q[:0]
	}
}

// seenTTL bounds how long a non-committed transaction suppresses
// retransmissions. Long enough to cover normal commit latency, short
// enough that a transaction lost to a discarded block recovers.
const seenTTL = 5 * time.Second

func (n *Node) enqueueTx(tx *types.Transaction) {
	id := tx.ID()
	if n.dedup.Resolved(tx) {
		return
	}
	if at, ok := n.seen[id]; ok && time.Since(at) < seenTTL {
		return // local deduplication (§6)
	}
	n.seen[id] = time.Now()
	// Clone: the client retains its pointer for retransmission, and
	// the proposer may promote the transaction (P3/P4/P6).
	n.txQueue = append(n.txQueue, tx.Clone())
}

// housekeeping re-requests blocks for dangling certificates, pulls
// missing history, rebroadcasts this node's uncertified proposal, and
// purges self-healing caches.
func (n *Node) housekeeping() {
	n.nm.slotTableRounds.Set(int64(len(n.table.rounds)))
	// Pull the missing round range in bulk, up to the lowest orphan or
	// the committee's round, whichever is higher. Orphans above the
	// inserted frontier mark a gap — after an outage it spans hundreds
	// of rounds, and walking it one parent round-trip at a time loses
	// the race against round production. A committee seen proposing
	// beyond the vote window (f+1 proposers, one of them honest) marks
	// one too: this replica can only catch up from certificates. Each
	// orphan also re-pulls its parents' round, and each certificate
	// waiting for its block asks the proposer again, in case the first
	// answer was lost.
	hi := n.dagStore.HighestRound()
	var upTo types.Round
	if at := n.committeeRound(); at > hi+voteWindow {
		upTo = at
	}
	var lowest types.Round // of the orphans; 0: none
	for _, rs := range n.table.rounds {
		for i := range rs.slot {
			if c := rs.slot[i].cert; c != nil {
				n.queueTo(c.Proposer, MsgBlockReq, (&blockReq{Round: c.Round, Proposer: c.Proposer, BlockDigest: c.BlockDigest}).marshal())
			}
			if o := rs.slot[i].orphan; o != nil {
				if lowest == 0 || o.Round() < lowest {
					lowest = o.Round()
				}
				n.requestMissingParents(o)
			}
		}
	}
	upTo = max(upTo, lowest)
	for r := hi + 1; r < upTo && r <= hi+roundPullBatch; r++ {
		n.pullRound(r)
	}
	// A proposal lost to a crash or partition wedges this node: it
	// cannot advance past a round missing its own certificate
	// (maybeAdvance). Rebroadcast until the vertex lands — the block and
	// this replica's vote for it; peers that already voted repeat theirs
	// to this replica alone. Only a stall with a frozen vote count
	// re-sends: while the count rises the proposal evidently reached
	// peers. The stall threshold follows the measured certification
	// latency (stallAfter), so slow links do not look wedged.
	stalled := time.Since(n.lastProgress) >= n.stallAfter()
	if b := n.lastBlock; b != nil {
		if _, ok := n.dagStore.Get(b.Round, n.cfg.ID); !ok {
			rs := n.table.at(b.Round)
			votes := rs.slot[n.cfg.ID].n
			if stalled && votes <= rs.ownVotes {
				n.nm.stallRebroadcasts.Add(1)
				n.queueBcast(MsgBlock, b.Wire())
				// The vote goes again only if it is the slot's journaled
				// one (propose never makes a second block for a voted own
				// slot, so it is).
				if v, ok := n.repeatVote(voteKey{round: b.Round, proposer: n.cfg.ID}, b.Digest()); ok {
					n.queueBcast(MsgVote, v)
				}
			}
			rs.ownVotes = votes
		} else {
			n.lastBlock = nil
		}
	}
	// A ballot still held for its round quorum (sealVotes) leaves on a
	// stall, so no vote waits on blocks that are not coming. Sealed after
	// the rebroadcast above: a held own vote is not repeated there, it
	// leaves here.
	if stalled && len(n.ballot) > 0 {
		n.nm.voteSealsOnStall.Add(1)
		n.sealVotes(true, false)
	}
	// Votes lost on the way here leave no orphan to trigger recovery;
	// if advancement has stalled, pull the previous round from peers,
	// who answer with the certificates they assembled. The same pull
	// rescues a stranded replica: peers that moved to a later epoch, or
	// pruned the round, answer it with their snapshot manifest
	// (handleRoundReq).
	if stalled && n.nextRound > 1 {
		n.pullRound(n.nextRound - 1)
	}
	// Chunked rescue bookkeeping: replenish the per-tick serve budget
	// and drive the fetch state machine (timeouts, peer rotation).
	n.chunkBudget = chunkServeBudget
	n.pumpChunkFetch()
	for id, tx := range n.pendingCross {
		if n.dedup.Resolved(tx) {
			delete(n.pendingCross, id)
		}
	}
	for id, at := range n.seen {
		if time.Since(at) >= seenTTL {
			delete(n.seen, id)
		}
	}
	n.purgeClientSubs()
}

func (n *Node) handle(m inboundMsg) {
	switch m.mt {
	case MsgBatch:
		// Unpack a coalesced frame and dispatch each sub-message in
		// order. Nested batches are dropped — a crafted frame could
		// otherwise recurse unboundedly — and a malformed tail discards
		// only the messages after the corruption.
		_ = forEachBatched(m.payload, func(mt transport.MsgType, payload []byte) {
			if mt == MsgBatch {
				return
			}
			n.handle(inboundMsg{from: m.from, mt: mt, payload: payload})
		})
	case MsgBlock:
		// Judged by its header first: a block this replica refuses or
		// parks costs no decode of its transactions.
		e, r, p, ok := types.PeekBlockHeader(m.payload)
		if !ok {
			return
		}
		switch n.judgeBlock(m.from, e, r, p) {
		case blockPark:
			n.parkFuture(m.from, e, MsgBlock, m.payload)
			return
		case blockRefuse:
			n.nm.refusedPreDecode.Add(1)
			return
		}
		var b types.Block
		// Owned decode: the transport hands over the delivery buffer
		// (batch frames included), so the block aliases it directly.
		if err := b.UnmarshalBinaryOwned(m.payload); err != nil {
			return
		}
		n.handleBlock(m.from, &b, m.payload)
	case MsgVote:
		if err := n.inVotes.unmarshal(m.payload); err != nil {
			return
		}
		n.handleVote(m.from, &n.inVotes, m.payload)
	case MsgCert:
		var c types.Certificate
		if err := c.UnmarshalBinaryOwned(m.payload); err != nil {
			return
		}
		n.handleCert(m.from, &c, m.payload)
	case MsgBlockReq:
		var r blockReq
		if err := r.unmarshal(m.payload); err != nil {
			return
		}
		n.handleBlockReq(m.from, &r)
	case MsgTx:
		var tx types.Transaction
		if err := tx.UnmarshalBinary(m.payload); err != nil {
			return
		}
		n.enqueueTx(&tx)
	case MsgRoundReq:
		var r roundReq
		if err := r.unmarshal(m.payload); err != nil {
			return
		}
		n.handleRoundReq(m.from, &r)
	case MsgSnapManifest:
		n.handleSnapshot(m.from, m.payload)
	case MsgSnapChunkReq:
		var r snapChunkReq
		if err := r.unmarshal(m.payload); err != nil {
			return
		}
		n.handleSnapChunkReq(m.from, &r)
	case MsgSnapChunk:
		var c snapChunk
		if err := c.unmarshal(m.payload); err != nil {
			return
		}
		n.handleSnapChunk(m.from, &c)
	case gateway.MsgTxSubmit:
		var tx types.Transaction
		if err := tx.UnmarshalBinary(m.payload); err != nil {
			return
		}
		n.handleTxSubmit(m.from, &tx)
	}
}

// committeeRound is the highest round that f+1 peers have been seen
// proposing at or beyond — one of them honest, so the round before it
// holds a certificate quorum somewhere.
func (n *Node) committeeRound() types.Round {
	seen := slices.Clone(n.latestRound)
	seen[n.cfg.ID] = 0 // peers only
	slices.Sort(seen)
	return seen[len(seen)-1-n.f]
}

// pullRound broadcasts a MsgRoundReq for one round unless a request
// is already in flight (re-asked after four ticks, covering a
// round-trip on slow links, so recovery traffic doesn't multiply by
// latency/tick). A round below the GC floor is not asked for: its
// answer would be refused.
func (n *Node) pullRound(r types.Round) {
	if r < n.dagStore.Floor() {
		return
	}
	rs := n.table.at(r)
	if time.Since(rs.pulledAt) < 4*n.cfg.TickInterval {
		return
	}
	rs.pulledAt = time.Now()
	n.nm.roundPulls.Add(1)
	n.queueBcast(MsgRoundReq, (&roundReq{Epoch: n.epoch, Round: r}).marshal())
}

// handleRoundReq serves every certified vertex of one round (block
// first, certificate second, per vertex, in proposer order): from the
// decoded DAG inside the decoded window — each block as the bytes it
// arrived in (types.Block.Wire), so only certificates are encoded — and
// below it as the archived bytes, unchanged: the same messages either
// way (gc.go). A request
// from a stale epoch asks for a DAG this node discarded at a
// transition — the round-by-round answer no longer exists, so the
// useful reply is the snapshot that lets the requester jump epochs
// instead. The same logic covers mid-epoch stranding: a same-epoch
// request for a round below the archive can never be answered
// round-by-round, so the reply is the latest capture. The stranded
// replica need not know it is stranded: its ordinary stall pull
// reaches every peer, and serveSnapshot's gate and per-requester rate
// limit decide whether a manifest goes back.
func (n *Node) handleRoundReq(from types.ReplicaID, r *roundReq) {
	if r.Epoch < n.epoch {
		n.serveSnapshot(from, r.Epoch, 0)
		return
	}
	if r.Epoch > n.epoch {
		return
	}
	if r.Round < n.dagStore.Floor() {
		vs, ok := n.archive.round(r.Round)
		if !ok {
			n.serveSnapshot(from, r.Epoch, r.Round)
			return
		}
		for _, v := range vs {
			n.queueTo(from, MsgBlock, v.block)
			n.queueTo(from, MsgCert, v.cert)
		}
		return
	}
	for p := 0; p < n.n; p++ {
		if v, ok := n.dagStore.Get(r.Round, types.ReplicaID(p)); ok {
			n.queueTo(from, MsgBlock, v.Block.Wire())
			n.queueTo(from, MsgCert, mustMarshal(v.Cert))
		}
	}
}

// requestMissingParents pulls the round an orphan's parents live in —
// round r−1, the only round dag.Store.Add accepts them from — unless
// every parent it lacks is here already, an orphan itself. Recovery
// walks history backwards one round per round-trip: each recovered
// parent that is itself an orphan pulls the round below it.
func (n *Node) requestMissingParents(v *dag.Vertex) {
	for _, p := range v.Block.Parents {
		if _, ok := n.dagStore.ByCert(p); !ok && !n.table.orphaned(v.Round()-1, p) {
			n.pullRound(v.Round() - 1)
			return
		}
	}
}

// parkFuture keeps a message stamped with a later epoch — a peer
// already transitioned to the next DAG — for replay after this
// replica's own transition: the received bytes, no re-encode. Only what
// that transition could use is kept: messages of the very next epoch,
// from committee members, and per sender no more than maxBundle of
// them, the oldest making room — nothing here is verified yet, so
// without the bound one peer stamping junk with the next epoch would
// grow this replica's heap until its transition. What is dropped is
// recovered like any lost message (stall rebroadcast, round pulls).
func (n *Node) parkFuture(from types.ReplicaID, epoch types.Epoch, mt transport.MsgType, raw []byte) {
	if epoch != n.epoch+1 || int(from) >= n.n || from == n.cfg.ID {
		return
	}
	q := n.futureMsgs[from]
	if len(q) >= n.maxBundle() {
		copy(q, q[1:])
		q = q[:len(q)-1]
		n.nm.futureMsgsDropped.Add(1)
	}
	n.futureMsgs[from] = append(q, inboundMsg{from: from, mt: mt, payload: raw})
}

// replayFuture handles the messages parked for the epoch this replica
// just entered.
func (n *Node) replayFuture() {
	for from, q := range n.futureMsgs {
		n.futureMsgs[from] = nil // a replayed message may park again
		for _, m := range q {
			n.handle(m)
		}
	}
}

func (n *Node) futureLen() int {
	c := 0
	for _, q := range n.futureMsgs {
		c += len(q)
	}
	return c
}

// blockVerdict is what a block's header alone decides (judgeBlock).
type blockVerdict uint8

const (
	blockAccept blockVerdict = iota
	blockPark                // a later epoch's: kept as received, replayed after this replica's transition
	blockRefuse
)

// judgeBlock decides a block delivery by its epoch, round and proposer,
// which a receiver reads before decoding the rest (handle): park a
// later epoch's block, refuse one of an earlier epoch, from no
// committee member, below the GC floor (the vertex can never matter)
// or above the block ceiling, and accept the rest.
func (n *Node) judgeBlock(from types.ReplicaID, e types.Epoch, r types.Round, p types.ReplicaID) blockVerdict {
	if e > n.epoch {
		return blockPark
	}
	if e < n.epoch || int(p) >= n.n || r < n.dagStore.Floor() {
		return blockRefuse
	}
	// Only a proposer speaks for its own progress: a forged relayed block
	// at a far round would set off hundreds of round pulls
	// (committeeRound) and hide a silent proposer from Shift condition
	// (1). Noted before the ceiling: a replica far behind learns it is.
	if from == p {
		n.latestRound[from] = max(n.latestRound[from], r)
	}
	if r > n.blockCeiling() {
		n.nm.blocksDropped.Add(1)
		return blockRefuse
	}
	return blockAccept
}

// handleBlock processes one block delivery. raw is the received wire
// payload (nil when invoked without one, e.g. from tests), kept as-is
// when the message is parked for the next epoch. A delivery off the
// wire was judged by its header before it was decoded; judging it
// again here changes nothing.
func (n *Node) handleBlock(from types.ReplicaID, b *types.Block, raw []byte) {
	switch n.judgeBlock(from, b.Epoch, b.Round, b.Proposer) {
	case blockPark:
		if raw == nil {
			raw = mustMarshal(b)
		}
		n.parkFuture(from, b.Epoch, MsgBlock, raw)
		return
	case blockRefuse:
		return
	}
	d := b.Digest()
	s, held := n.trackPendingBlock(b, from)
	if !held {
		n.nm.blocksDropped.Add(1)
	}
	// Vote only for blocks received from their proposer, once per slot
	// — the anti-equivocation guard. The vote is journaled before its
	// signature leaves this replica (a restart cannot be induced into
	// signing a second digest for the slot, and two certificates for one
	// slot would let commit sequences diverge) and goes to the whole
	// committee in the next bundle sealed (votes.go). A repeat of the
	// block is its proposer saying it still lacks the quorum (stall
	// rebroadcast), so the same vote goes again, to the proposer alone —
	// even when the slot refused the block, the proposer's other one
	// having come first.
	if from == b.Proposer {
		if s.vote.IsZero() {
			n.castVote(b, s, d)
		} else if v, ok := n.repeatVote(voteKey{round: b.Round, proposer: b.Proposer}, d); ok {
			n.queueTo(b.Proposer, MsgVote, v)
		}
	}
	// A certificate may have arrived first (it names a held block);
	// landing the vertex runs the commit rule. Otherwise a block from
	// its proposer may still complete a slot of the round below: its
	// fast commit counts every proposer's block naming it.
	if c := s.cert; c != nil && c.BlockDigest == d {
		s.cert = nil
		n.addVertex(&dag.Vertex{Block: b, Cert: c})
	} else if from == b.Proposer && held && b.Round > n.committer.DecidedRound()+1 {
		n.processCommits()
	}
}

// blockCeiling is the highest round a block or certificate is kept for:
// the highest round a round pull asks for (housekeeping, stall pull).
func (n *Node) blockCeiling() types.Round {
	return max(n.dagStore.HighestRound(), n.nextRound) + roundPullBatch
}

// handleCert processes a certificate received whole: a reply to a
// round pull (MsgRoundReq), never steady-state traffic — replicas
// certify from votes. raw is the received payload; a parked
// future-epoch certificate keeps those bytes.
func (n *Node) handleCert(from types.ReplicaID, c *types.Certificate, raw []byte) {
	if c.Epoch > n.epoch {
		n.parkFuture(from, c.Epoch, MsgCert, raw)
		return
	}
	if c.Epoch < n.epoch || c.Round < n.dagStore.Floor() || c.Round > n.blockCeiling() || int(c.Proposer) >= n.n {
		return
	}
	if _, ok := n.dagStore.ByCert(c.Digest()); ok {
		return // already placed
	}
	if err := crypto.VerifyCertificate(c, n.n, n.memoVerifier); err != nil {
		return
	}
	n.placeCert(c, from)
}

// handleBlockReq serves a block from its slot, which holds it landed
// or not while its round is decoded.
func (n *Node) handleBlockReq(from types.ReplicaID, r *blockReq) {
	if s := n.table.find(voteKey{round: r.Round, proposer: r.Proposer}); s != nil {
		if b := s.block(r.BlockDigest); b != nil {
			n.queueTo(from, MsgBlock, b.Wire())
		}
	}
}

// addVertex inserts a certified vertex, drains any orphans that
// become insertable, advances the round, and processes commits.
func (n *Node) addVertex(v *dag.Vertex) {
	if !n.insertVertex(v) {
		return
	}
	// Orphans may now have parents. Retry them against the store, in
	// round order, until a pass lands none: still-orphaned vertices stay
	// parked (no re-request) until the next arrival or housekeeping
	// retry. A landed orphan leaves its slot in onVertexAdded.
	for progress := n.table.orphans > 0; progress; {
		progress = false
		for r := n.dagStore.Floor(); r <= n.blockCeiling() && n.table.orphans > 0; r++ {
			for i, rs := 0, n.table.rounds[r]; rs != nil && i < len(rs.slot); i++ {
				o := rs.slot[i].orphan
				if o == nil {
					continue
				}
				err := n.dagStore.Add(o)
				var missing *dag.MissingParentError
				switch {
				case err == nil:
					n.onVertexAdded(o)
					progress = true
				case !errors.As(err, &missing):
					// Permanent rejection (equivocation or garbage): do
					// not park it forever.
					n.table.park(&rs.slot[i], nil)
				}
			}
		}
	}
	n.maybeAdvance()
	n.processCommits()
}

// insertVertex adds to the DAG store, parking a vertex with missing
// parents in its slot. Returns true if the vertex landed.
func (n *Node) insertVertex(v *dag.Vertex) bool {
	err := n.dagStore.Add(v)
	if err == nil {
		n.onVertexAdded(v)
		return true
	}
	// The errors.As target lives behind the success check: taking its
	// address forces a heap allocation, and insertions succeed on the
	// hot path.
	var missing *dag.MissingParentError
	if !errors.As(err, &missing) {
		return false // equivocation or garbage
	}
	if s := n.table.slot(voteKey{round: v.Round(), proposer: v.Proposer()}); s.orphan == nil {
		n.table.park(s, v)
		// Ask peers for the missing history immediately; housekeeping
		// retries if the answers are lost.
		n.requestMissingParents(v)
	}
	return false
}

// onVertexAdded tracks proposer liveness and pending cross-shard
// transactions touching this node's shard (rules P3/P4 input).
func (n *Node) onVertexAdded(v *dag.Vertex) {
	n.lastProgress = time.Now()
	// Certified: the certify→commit stage clock starts when the
	// certificate quorum lands the vertex in the local DAG.
	if v.Block.Stamps.Certified.IsZero() {
		v.Block.Stamps.Certified = n.lastProgress
	}
	// The slot is decided: retire its collector and orphan. A collector
	// that assembled a certificate means the vertex was certified here.
	var local uint64
	if s := n.table.find(voteKey{round: v.Round(), proposer: v.Proposer()}); s != nil {
		if s.done {
			local = 1
		}
		n.table.retire(s)
		n.table.park(s, nil)
	}
	// a = proposer whose vertex was certified, b = 1 when the
	// certificate was assembled locally.
	n.trace(metrics.EvCert, v.Round(), uint64(v.Proposer()), local)
	if v.Proposer() == n.cfg.ID {
		n.observeCertLatency(v.Block)
	}
	n.latestRound[v.Proposer()] = max(n.latestRound[v.Proposer()], v.Round())
	// Track the newest round whose blocks carried transactions: input
	// to the adaptive pacing decision in maybeAdvance.
	if v.Round() > n.loadedRound &&
		(len(v.Block.SingleTxs) > 0 || len(v.Block.CrossTxs) > 0) {
		n.loadedRound = v.Round()
	}
	mine := n.myShard()
	for _, tx := range v.Block.CrossTxs {
		if tx.TouchesShard(mine) && !n.dedup.Resolved(tx) {
			n.pendingCross[tx.ID()] = tx
		}
	}
}

// maybeAdvance proposes the next round when the previous round holds
// a 2f+1 certificate quorum — including this node's own certificate,
// so every block links to its proposer's previous block (paper §4:
// "this vertex links to all prior vertices, including those proposed
// by R in round r−1"; without the self-link a slow certificate would
// orphan the block and lose its transactions) — and the batch timer
// has elapsed.
func (n *Node) maybeAdvance() {
	if n.nextRound <= 1 {
		return
	}
	// A node far behind the certified frontier (crash, partition) must
	// rejoin there: blocks proposed at long-past rounds are never
	// referenced by anyone's parents, so they never commit and their
	// transactions starve. The rejoin round must sit on a full
	// certificate quorum — a thin-parent proposal would break the
	// quorum intersection the slot commit rule needs
	// (observed as diverging commit sequences under asymmetric loss).
	if hi := n.dagStore.HighestRound(); hi >= n.nextRound-1+fastForwardGap {
		for r := hi; r > hi-4 && r >= n.nextRound-1+fastForwardGap; r-- {
			if n.dagStore.CountAtRound(r) >= crypto.QuorumSize(n.n) {
				n.fastForward(r)
				return
			}
		}
		// Frontier known but not quorate here. It may never be without
		// this replica: with f others down, the frontier's next quorum
		// is waiting for this replica's block, so standing still until
		// it forms deadlocks the committee (a replica four rounds behind
		// two peers whose third was just crashed). Keep advancing round
		// by round; the jump happens if and when a quorate round
		// appears.
	}
	prev := n.nextRound - 1
	if n.dagStore.CountAtRound(prev) < crypto.QuorumSize(n.n) {
		return
	}
	if _, ok := n.dagStore.Get(prev, n.cfg.ID); !ok {
		return // wait for our own certificate
	}
	if n.holdForSlots(prev) {
		return
	}
	// Adaptive round pacing: while the committee carries traffic —
	// transactions queued here, cross-shard work pending, or recent
	// rounds' blocks seen non-empty (loadedRound) — advance at wire
	// speed the moment the quorum completes. MinRoundInterval throttles
	// only an idle committee, where it caps empty-round spin; under
	// load it would otherwise put a hard pacing floor under every
	// round and dominate commit latency.
	hot := len(n.txQueue) > 0 || len(n.pendingCross) > 0 ||
		n.loadedRound+2 >= n.nextRound
	if hot || time.Since(n.lastProposal) >= n.cfg.MinRoundInterval {
		n.propose()
	}
}

// fastForwardGap is how many certified rounds past this node's last
// proposal the DAG must be before the node abandons its position and
// rejoins at the frontier. Jitter skews nodes by a round or two. A
// node further behind than that does not catch up by proposing: each
// of its rounds costs the same two message delays as the frontier's,
// and the frontier references only its own previous round, so nothing
// the straggler proposes back there is linked — or committed — until
// it is level again. Rejoining costs re-proposing the transactions of
// those unlinked blocks; staying costs every transaction it carries
// the whole episode (on two cores, where replicas drift apart, a gap
// of 10 left 8 % of commits over 10 ms against 3.5 % at 4).
const fastForwardGap = 4

// fastForward abandons every uncommitted own block (their rounds will
// never be referenced), requeues their transactions, and re-proposes
// at one past the certified frontier so the next frontier round links
// to this node again.
func (n *Node) fastForward(hi types.Round) {
	// Requeue the transactions of own stale blocks (each round record's
	// own proposal), deduplicated against the queue and each other (a
	// transaction can sit in several stale blocks after
	// validation-failure requeues); drainQueue filters committed ones.
	queued := n.queuedIDs()
	for r, rs := range n.table.rounds {
		if r <= hi && rs.own != nil {
			n.requeueOwnBlock(rs.own, queued)
			rs.own = nil
		}
	}
	// The own-writes overlay describes abandoned blocks; drop it.
	n.ownBlocks = nil
	n.ownWrites = make(map[types.Key]types.Value)
	n.preplayer.invalidate()
	n.lastBlock = nil
	n.nextRound = hi + 1
	n.nm.fastForwards.Add(1)
	// a = certified frontier round this node rejoined at.
	n.trace(metrics.EvFastForward, hi+1, uint64(hi), 0)
	n.propose()
}

// requeueOwnBlock returns an abandoned own block's transactions to
// the proposer queue and unclaims the requeued ones from the seen
// set, so client retransmissions are accepted again.
func (n *Node) requeueOwnBlock(b *types.Block, queued map[types.Digest]bool) {
	for _, txs := range [][]*types.Transaction{b.SingleTxs, b.CrossTxs} {
		for _, tx := range txs {
			if n.requeue(tx, queued) {
				delete(n.seen, tx.ID())
			}
		}
	}
}

// requeue appends an own uncommitted transaction to the proposer
// queue unless it is resolved or already in queued (the queue's IDs,
// see queuedIDs), and reports whether it did.
func (n *Node) requeue(tx *types.Transaction, queued map[types.Digest]bool) bool {
	id := tx.ID()
	if n.dedup.Resolved(tx) || queued[id] {
		return false
	}
	queued[id] = true
	n.txQueue = append(n.txQueue, tx)
	return true
}

// queuedIDs indexes the proposer queue for requeue.
func (n *Node) queuedIDs() map[types.Digest]bool {
	queued := make(map[types.Digest]bool, len(n.txQueue))
	for _, tx := range n.txQueue {
		queued[tx.ID()] = true
	}
	return queued
}

// trackPendingBlock keeps b, received from `from` (this replica: its
// own proposal), in its slot and returns the slot. held is false when
// b is refused: its sender has another block in the slot, and b is not
// the one the slot's waiting certificate names.
func (n *Node) trackPendingBlock(b *types.Block, from types.ReplicaID) (s *slot, held bool) {
	rs := n.table.at(b.Round)
	s = &rs.slot[b.Proposer]
	d := b.Digest()
	if s.block(d) != nil {
		return s, true
	}
	if s.cert == nil || s.cert.BlockDigest != d {
		for i := range s.blocks {
			if s.blocks[i].from == from {
				return s, false
			}
		}
	}
	// First sighting on this replica: the propose→certify stage clock
	// starts here (own blocks stamp at creation, peer blocks at first
	// receipt — both within the proposer's broadcast).
	if b.Stamps.Seen.IsZero() {
		b.Stamps.Seen = time.Now()
	}
	s.blocks = append(s.blocks, heldBlock{b: b, from: from})
	if from == n.cfg.ID {
		rs.own = b
	}
	return s, true
}

func mustMarshal(m interface{ MarshalBinary() ([]byte, error) }) []byte {
	b, err := m.MarshalBinary()
	if err != nil {
		panic(err)
	}
	return b
}
