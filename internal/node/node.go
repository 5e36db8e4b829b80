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

	// GCHorizon is the committed-wave garbage-collection retention
	// horizon, in rounds: after each commit wave the node prunes DAG
	// vertices, pending blocks, vote records, and collectors below
	// (last committed leader round − horizon), bounding steady-state
	// memory within an epoch. The horizon also bounds in-epoch
	// recovery: a replica that misses more rounds than the horizon
	// cannot be served the pruned range by its peers and waits for the
	// next reconfiguration's snapshot to jump forward (the cross-epoch
	// state-transfer protocol in snapshot.go — see README "Recovery").
	// Zero selects the default (2048); negative disables GC;
	// positive values are clamped to a safe minimum well above the
	// fast-forward gap.
	GCHorizon int

	// SnapshotInterval captures a mid-epoch snapshot every this many
	// committed leader rounds, in addition to the capture at every
	// epoch transition. Captures happen at deterministic positions of
	// the committed sequence, so honest replicas' mid-epoch snapshots
	// are bit-identical and a stranded replica can authenticate one
	// with f+1 matching digests — the rescue that bounds rejoin time by
	// the capture cadence instead of the epoch length. Zero selects the
	// default (512); negative disables mid-epoch capture; positive
	// values are clamped so GCHorizon − SnapshotInterval still leaves a
	// full re-entry margin (serving replicas must retain the rounds
	// just behind their latest capture).
	SnapshotInterval int

	// SpecExecDepth bounds the speculative-execution pipeline: how
	// many certified-but-uncommitted commit waves may be predicted
	// from the anchor chain and executed ahead of the Tusk commit
	// (spec.go), filling the certify→commit wait with execution work
	// that a matching commit installs in O(writes). 0 selects the
	// default (2); negative disables speculation — every wave then runs
	// at commit time, through the same code. Ignored in ModeSerial
	// (serial blocks run only at commit).
	SpecExecDepth int
	// SpecVerify re-runs every speculative hit at commit time — same
	// wave, committed store, committed dedup — and demotes the hit to a
	// miss unless the outcomes are bit-identical. The runtime
	// differential check behind the speculation contract; chaos
	// scenarios enable it, production keeps it off (it spends the exact
	// execution the hit saved).
	SpecVerify bool

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
	// the floor under the leader hold: a proposal waits for a leader
	// whose block has arrived for at most twice the measured
	// certification latency, and never less than this.
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
	// leader round (Figure 16's per-round runtime series).
	OnCommitWave func(epoch types.Epoch, leaderRound types.Round, when time.Time)
	// OnReconfig, if set, fires after each DAG transition.
	OnReconfig func(newEpoch types.Epoch, when time.Time)

	// snapChunkRecords is the ledger-record count per snapshot chunk,
	// types.DefaultChunkRecords unless a test sets it to cut many
	// chunks from a small ledger.
	snapChunkRecords int
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
	if c.SpecExecDepth == 0 {
		c.SpecExecDepth = defaultSpecExecDepth
	}
	switch {
	case c.GCHorizon == 0:
		c.GCHorizon = defaultGCHorizon
	case c.GCHorizon > 0 && c.GCHorizon < minGCHorizon:
		c.GCHorizon = minGCHorizon
	}
	if c.SnapshotInterval == 0 {
		c.SnapshotInterval = defaultSnapshotInterval
	}
	// The serving contract: a replica must still retain minGCHorizon
	// rounds below its newest capture's re-entry base, or the rescued
	// replica could not backfill the DAG segment it re-enters on. Clamp
	// the interval down — never the horizon up, which would silently
	// grow memory the operator bounded on purpose.
	if c.SnapshotInterval > 0 && c.GCHorizon > 0 {
		if max := c.GCHorizon - minGCHorizon; c.SnapshotInterval > max {
			if max < 2 {
				max = 2
			}
			c.SnapshotInterval = max
		}
	}
	if c.snapChunkRecords <= 0 {
		c.snapChunkRecords = types.DefaultChunkRecords
	}
	return c
}

const (
	// defaultGCHorizon keeps roughly two thousand rounds of history —
	// far beyond any in-epoch outage the chaos suite injects — while
	// still bounding steady-state memory.
	defaultGCHorizon = 2048
	// minGCHorizon is the floor on configurable horizons. The GC
	// safety argument (see dag.Store.PruneBelow) needs the horizon to
	// sit well above the fast-forward gap, so that any vertex old
	// enough to prune is also too old to ever join committed history.
	// Ten gaps (40 rounds) is that margin; the snapshot re-entry base
	// (snapshot.go) retains the same span.
	minGCHorizon = 10 * fastForwardGap
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
	// rescue snapshot is at most ~512 leader rounds stale, and servers
	// still hold four re-entry margins of history below it.
	defaultSnapshotInterval = 512
	// chunkServeBudget caps how many MsgSnapChunk replies this replica
	// sends per housekeeping tick (~64 × 4096 records ≈ a
	// quarter-million records per tick per server at the default chunk
	// size), so a rescue in progress cannot starve its own round
	// traffic. Requests over budget are dropped; the requester times
	// out and rotates to another server.
	chunkServeBudget = 64
	// defaultSpecExecDepth is the speculative-execution pipeline
	// depth: up to this many predicted commit waves executed ahead of
	// the Tusk commit. Two covers the certify→commit wait at LAN
	// latencies (one leader round in flight plus slack) at ~0.90 hit
	// rate; deeper pipelines predict across more unsettled anchors,
	// and the extra misses cost more re-execution than the extra
	// overlap saves.
	defaultSpecExecDepth = 2
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
	// EpochJumps counts cross-epoch snapshot installs — recoveries
	// from being stranded across a reconfiguration. SnapshotsServed
	// counts signed snapshot manifests served to stragglers.
	EpochJumps      uint64
	SnapshotsServed uint64
	// MidEpochCaptures counts deterministic mid-epoch snapshot
	// captures (Config.SnapshotInterval boundaries); MidEpochInstalls
	// counts installs of a mid-epoch snapshot — rescues that re-entered
	// a live epoch at the snapshot's base round instead of waiting for
	// the next reconfiguration.
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
	// Speculative execution (spec.go): SpecHits counts commit waves
	// installed from precomputed results, SpecMisses counts predicted
	// waves discarded on an anchor-order misprediction, and
	// SpecWastedTxs the speculatively executed transactions those
	// rollbacks threw away.
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

	pendingBlocks map[types.Digest]*types.Block // by block digest
	// pendingRounds indexes pendingBlocks by round so committed-wave
	// GC drops whole rounds without scanning the map, and ownPending
	// indexes this node's own proposals by round so fast-forward
	// requeue scans only own blocks instead of every pending block.
	pendingRounds map[types.Round][]types.Digest
	ownPending    map[types.Round]types.Digest
	certWait      map[types.Digest]*types.Certificate // certs waiting for blocks
	orphans       []*dag.Vertex                       // vertices waiting for parents
	orphanSet     map[types.Digest]bool               // orphan membership by cert digest
	// slots holds the vote collector of every (round, proposer) slot
	// that has received a vote and is not certified in the local DAG
	// yet (votes.go); slotFree recycles them.
	slots    map[voteKey]*slotVotes
	slotFree []*slotVotes
	voted    map[voteKey]types.Digest
	// ballot holds the votes cast since the last seal, in casting order
	// (ballotSpare is its double buffer); voteTree and leafBuf are the
	// scratch a bundle's Merkle tree is built in, sealing or checking,
	// and inVotes the one every received bundle decodes into.
	ballot      []voteEntry
	ballotSpare []voteEntry
	voteTree    types.MerkleTree
	leafBuf     []types.Digest
	inVotes     voteBundle
	lastSeen    map[types.ReplicaID]types.Round // latest round proposed per replica
	// futureMsgs parks messages stamped with the next epoch until this
	// replica's own transition, per sender and bounded (parkFuture).
	futureMsgs [][]inboundMsg
	// roundReqAt holds the send time of each in-flight round pull
	// (MsgRoundReq), so a round is asked for at most once per re-ask
	// interval (pullRound).
	roundReqAt map[types.Round]time.Time
	// lastBlock is this node's newest proposed block; rebroadcast by
	// housekeeping until its certificate lands in the DAG, which lets a
	// replica whose proposal was lost (crash, partition) resume
	// progress after recovery. lastBlockRaw caches its wire encoding
	// (marshaled once at propose time), and lastBlockVotes remembers
	// the vote count seen at the previous housekeeping tick so the
	// rebroadcast fires only when vote collection has actually stopped
	// — not merely because round latency exceeds the tick interval.
	lastBlock      *types.Block
	lastBlockRaw   []byte
	lastBlockVotes int

	// certLatency is this replica's running estimate (EWMA, 1/8 per
	// sample) of how long its own blocks take from proposal to landing
	// certified in the local DAG — two message delays plus queueing. It
	// scales the two waits that used to be LAN constants: how long a
	// proposal is held for a leader (leaderWaitBound) and how long
	// without progress counts as a stall (stallAfter). Zero until the
	// first own block certifies.
	certLatency time.Duration
	// leaderWait is the hold maybeAdvance is applying, if any: the
	// leader round this replica would leave, when the hold began, and
	// whether its bound already expired. leaderTimer wakes the loop at
	// the bound.
	leaderWait  leaderWait
	leaderTimer *time.Timer

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

	// Speculative execution (spec.go): specQ holds commit waves
	// predicted from the anchor chain in predicted commit order, run
	// ahead of the Tusk commit during the certify→commit wait — each
	// entry's result doubles as the state layer later entries run on;
	// specVerts claims their vertex digests (the committed filter
	// stacked predictions linearize against). specDepth caps the queue
	// (Config.SpecExecDepth; 0 = speculation off).
	specDepth int
	specQ     []specWave
	specVerts map[types.Digest]bool
	// specClaimFn is bound once like baseReader.
	specClaimFn func(types.Digest) bool

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
	// lastSnap is this node's most recent capture (epoch transition or
	// mid-epoch boundary); it outlives per-epoch state so the node can
	// serve stragglers from any earlier position. snapChunks holds its
	// encoded chunk payloads for MsgSnapChunk serving, and snapCut the
	// store sequence number they were cut at — what lets the next capture
	// share the chunks nothing has written to since (0 when they were
	// installed from peers, not cut here). lastManifestMsg caches the
	// signed manifest, built once on first serve (the snapshot is
	// immutable, so every serve after that is a plain Send). snapFrom
	// holds the latest snapshot candidate per verified signer (install
	// needs f+1 matching digests), snapServed rate-limits serving per
	// requester, lastSnapAt is the committed leader round of the newest
	// capture (mid-epoch cadence tracking), chunkBudget is the per-tick
	// chunk-serve allowance, and fetch is the in-progress chunked rescue,
	// if any.
	lastSnap        *types.Snapshot
	snapChunks      [][]byte
	snapCut         uint64
	lastManifestMsg []byte
	snapFrom        map[types.ReplicaID]*types.Snapshot
	snapServed      map[types.ReplicaID]time.Time
	lastSnapAt      types.Round
	chunkBudget     int
	fetch           *chunkFetch
	// recoveredVotes carries WAL-journaled vote records (durable.go)
	// from recovery to the first resetEpochState, then stays nil.
	recoveredVotes map[voteKey]types.Digest

	// proposer state
	txQueue []*types.Transaction
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
	// scratch is the dedup view waves run under (commit.go's runWave):
	// reset before each run, so one arena serves every wave.
	scratch *gateway.Scratch
	// durable is non-nil when Config.Store persists a recovery
	// sidecar (storage.Recoverable): the commit path then annotates
	// every apply with the dedup mutations it performs (durable.go).
	durable storage.Recoverable
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

type voteKey struct {
	round    types.Round
	proposer types.ReplicaID
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
	}
	n.leaderTimer = time.NewTimer(time.Hour)
	n.leaderTimer.Stop()
	n.baseReader = n.baseRead
	n.specClaimFn = n.specVertClaimed
	if cfg.SpecExecDepth > 0 && cfg.Mode != ModeSerial {
		n.specDepth = cfg.SpecExecDepth
	}
	n.nm = newNodeMetrics(cfg.ID)
	n.dedup = gateway.NewDedup(cfg.NonceWindow, 0)
	n.scratch = n.dedup.Scratch()
	startEpoch := types.Epoch(0)
	if rec, ok := cfg.Store.(storage.Recoverable); ok {
		n.durable = rec
		// Restart-from-disk: rebuild the dedup/commit position from
		// the backend's sidecar and resume in the recovered epoch —
		// in-epoch catch-up (round pulls, fast-forward) replays the
		// missed suffix, and waves below the recovered position
		// validate as duplicates instead of re-applying.
		e, err := n.recoverFromBackend(rec)
		if err != nil {
			return nil, err
		}
		startEpoch = e
		rec.SetMetaFunc(n.walMeta)
	}
	n.resetEpochState(startEpoch)
	// Re-arm the anti-equivocation guard with the votes journaled for
	// the recovered epoch: a restarted replica must refuse to sign a
	// conflicting digest for any slot it already voted on.
	for k, d := range n.recoveredVotes {
		n.voted[k] = d
	}
	n.recoveredVotes = nil
	n.chunkBudget = chunkServeBudget
	n.outDirect = make([][]outMsg, cfg.N)
	n.futureMsgs = make([][]inboundMsg, cfg.N)
	n.batch = newBatchController(cfg.BatchSize, 4*cfg.BatchSize)
	n.txClients = make(map[types.Digest]clientSub)
	n.seen = make(map[types.Digest]time.Time)
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

// resetEpochState initializes per-epoch protocol state.
func (n *Node) resetEpochState(epoch types.Epoch) {
	// Votes already journaled for the dying epoch still leave, under its
	// number: peers still in it may be waiting for them.
	n.sealVotes(false)
	if n.preplayer != nil { // nil during construction
		n.preplayer.invalidate() // own-writes overlay resets; carried tips are stale
	}
	n.epoch = epoch
	n.dagStore = dag.NewStore(epoch, n.n)
	n.committer = tusk.NewCommitter(n.dagStore, n.n)
	n.nextRound = 1
	n.pendingBlocks = make(map[types.Digest]*types.Block)
	n.pendingRounds = make(map[types.Round][]types.Digest)
	n.ownPending = make(map[types.Round]types.Digest)
	n.certWait = make(map[types.Digest]*types.Certificate)
	n.orphans = nil
	n.orphanSet = make(map[types.Digest]bool)
	for k := range n.slots {
		n.releaseSlot(k)
	}
	n.slots = make(map[voteKey]*slotVotes)
	n.voted = make(map[voteKey]types.Digest)
	n.lastSeen = make(map[types.ReplicaID]types.Round)
	n.ownWrites = make(map[types.Key]types.Value)
	n.ownBlocks = nil
	n.pendingCross = make(map[types.Digest]*types.Transaction)
	n.shiftSent = false
	n.roundsProposed = 0
	n.committedShift = make(map[types.ReplicaID]bool)
	n.roundReqAt = make(map[types.Round]time.Time)
	n.lastBlock = nil
	n.lastBlockRaw = nil
	n.lastBlockVotes = 0
	n.leaderWait = leaderWait{}
	n.execQ = nil // waves of a dying epoch never execute
	n.resetSpec() // predictions bind to the dying epoch's DAG
	n.loadedRound = 0
	n.snapFrom = make(map[types.ReplicaID]*types.Snapshot)
	n.snapServed = make(map[types.ReplicaID]time.Time)
	n.lastSnapAt = 0
	n.fetch = nil
}

// CommitEntry is one record of a node's ordered commit sequence: the
// transaction identity plus its provenance — which epoch and commit
// wave (leader round) applied it, which block carried it, and through
// which path. The provenance fields turn a cross-replica divergence
// from a bare digest mismatch into an explainable event.
type CommitEntry struct {
	ID       types.Digest
	Epoch    types.Epoch
	Wave     types.Round // leader round of the committing wave
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
		prev := n.nextRound - 1
		_, ownPrev := n.dagStore.Get(prev, n.cfg.ID)
		lastBlockRound := types.Round(0)
		if n.lastBlock != nil {
			lastBlockRound = n.lastBlock.Round
		}
		f(&DebugView{
			Epoch:          n.epoch,
			NextRound:      n.nextRound,
			QueueLen:       len(n.txQueue),
			Pending:        pendingIDs(n),
			Resolved:       func(tx *types.Transaction) bool { return n.dedup.Resolved(tx) },
			Seen:           func(d types.Digest) bool { _, ok := n.seen[d]; return ok },
			DedupClients:   n.dedup.Clients(),
			PrevRoundCerts: n.dagStore.CountAtRound(prev),
			HasOwnPrev:     ownPrev,
			HighestRound:   n.dagStore.HighestRound(),
			Orphans:        len(n.orphans),
			CertWait:       len(n.certWait),
			Collectors:     len(n.slots),
			EarlyVotes:     n.earlyVotes(),
			LastBlockRound: lastBlockRound,
			FutureMsgs:     n.futureLen(),
			GCFloor:        n.dagStore.Floor(),
			DagVertices:    n.dagStore.Len(),
			PendingBlocks:  len(n.pendingBlocks),
			VotedSlots:     len(n.voted),
			CommittedFlags: n.committer.CommittedLen(),
			SnapshotEpoch: func() types.Epoch {
				if n.lastSnap == nil {
					return 0
				}
				return n.lastSnap.Epoch
			}(),
			Vertices: func(r types.Round) []VertexInfo {
				var out []VertexInfo
				for _, v := range n.dagStore.AtRound(r) {
					out = append(out, VertexInfo{
						Round: v.Round(), Proposer: v.Proposer(),
						Kind:       v.Block.Kind,
						CertDigest: v.Cert.Digest(),
						Parents:    append([]types.Digest(nil), v.Block.Parents...),
					})
				}
				return out
			},
		})
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
	Epoch     types.Epoch
	NextRound types.Round
	QueueLen  int
	Pending   []types.Digest
	// Resolved reports whether a transaction is deduplicated as
	// resolved (committed or deterministically failed); Seen reports
	// pre-commit queue dedup. DedupClients is the bounded dedup
	// state's population (clients tracked) — the plateau tests sample
	// it.
	Resolved     func(*types.Transaction) bool
	Seen         func(types.Digest) bool
	DedupClients int
	// Frontier internals for liveness debugging: certificates present
	// at nextRound-1, whether our own is among them, the highest
	// certified round, and the sizes of the recovery queues.
	PrevRoundCerts int
	HasOwnPrev     bool
	HighestRound   types.Round
	Orphans        int
	CertWait       int
	// Collectors counts the live per-slot vote collectors (slots voted
	// on but not yet certified here); EarlyVotes the votes they hold
	// for blocks this replica has not received. Both are bounded by the
	// vote window and reclaimed at the GC floor.
	Collectors     int
	EarlyVotes     int
	LastBlockRound types.Round
	// FutureMsgs counts the messages parked for the next epoch, bounded
	// per sender.
	FutureMsgs int
	// GC observability: the retention floor, and the sizes of the
	// per-epoch maps committed-wave GC bounds (the long-run plateau
	// tests sample these).
	GCFloor        types.Round
	DagVertices    int
	PendingBlocks  int
	VotedSlots     int
	CommittedFlags int
	// SnapshotEpoch is the epoch of the node's latest captured
	// transition snapshot (0 before the first reconfiguration).
	SnapshotEpoch types.Epoch
	// Vertices returns the certified vertices at one round (valid only
	// inside the Inspect callback).
	Vertices func(r types.Round) []VertexInfo
}

// VertexInfo is a read-only DAG vertex summary for debugging.
type VertexInfo struct {
	Round      types.Round
	Proposer   types.ReplicaID
	Kind       types.BlockKind
	CertDigest types.Digest
	Parents    []types.Digest
}

func pendingIDs(n *Node) []types.Digest {
	out := make([]types.Digest, 0, len(n.pendingCross))
	for id := range n.pendingCross {
		out = append(out, id)
	}
	return out
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
	defer n.leaderTimer.Stop()
	n.propose()
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
		case <-n.leaderTimer.C:
			n.maybeAdvance() // a leader hold reached its bound
		case <-tick.C:
			n.housekeeping()
		case <-n.done:
			return
		}
		// Pipeline tail. One coalesced flush sends everything the pass
		// produced, its votes sealed into one bundle first — which
		// counts this replica's own, and can certify a vertex and
		// release a commit wave. The handlers above collected waves
		// without executing them; execute now, re-draining the inbox
		// between waves so vote and certificate handling for newer
		// rounds is never blocked behind execution of older ones, and
		// flush what that produced, until neither leaves work for the
		// other. Then spend the certify→commit wait: predict and run
		// certified waves the commit rule has not released yet
		// (drainSpec), so the next commit can install a result that
		// already exists instead of running on the critical path.
		for n.flushOutbox(); len(n.execQ) > 0; n.flushOutbox() {
			n.drainExec()
		}
		n.drainSpec()
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
	for bd, cert := range n.certWait {
		n.queueTo(cert.Proposer, MsgBlockReq, (&blockReq{BlockDigest: bd}).marshal())
	}
	// Pull the missing round range in bulk, up to the lowest orphan or
	// the committee's round, whichever is higher. Orphans above the
	// inserted frontier mark a gap — after an outage it spans hundreds
	// of rounds, and walking it one parent round-trip at a time loses
	// the race against round production. A committee seen proposing
	// beyond the vote window (f+1 proposers, so at least one honest one)
	// marks one too: this replica dropped the votes for the rounds in
	// between and can only catch up from certificates. Each orphan also
	// re-pulls its parents' round, in case the first answer was lost.
	hi := n.dagStore.HighestRound()
	var upTo types.Round
	if at := n.committeeRound(); at > hi+voteWindow {
		upTo = at
	}
	if len(n.orphans) > 0 {
		lowest := n.orphans[0].Round()
		for _, o := range n.orphans {
			lowest = min(lowest, o.Round())
			n.requestMissingParents(o)
		}
		upTo = max(upTo, lowest)
	}
	for r := hi + 1; r < upTo && r <= hi+roundPullBatch; r++ {
		n.pullRound(r)
	}
	// A proposal lost to a crash or partition wedges this node: it
	// cannot advance past a round missing its own certificate
	// (maybeAdvance). Rebroadcast until the vertex lands — the block and
	// this replica's vote for it, as at proposal; peers that already
	// voted repeat their vote to this replica alone. Gated on
	// certification state, not just the stall timer: while the vote
	// count is still rising the proposal evidently reached peers, and
	// re-sending it every tick is pure wire noise — only a stall with a
	// frozen vote count re-sends (the cached proposal bytes, no
	// re-marshal). The stall threshold follows the measured
	// certification latency (stallAfter), so a healthy committee on slow
	// links is not mistaken for a wedged one.
	stalled := time.Since(n.lastProgress) >= n.stallAfter()
	if b := n.lastBlock; b != nil {
		if _, ok := n.dagStore.Get(b.Round, n.cfg.ID); !ok {
			k := voteKey{round: b.Round, proposer: n.cfg.ID}
			votes := 0
			if s, ok := n.slots[k]; ok {
				votes = s.n
			}
			if stalled && votes <= n.lastBlockVotes {
				if n.lastBlockRaw == nil {
					n.lastBlockRaw = mustMarshal(b)
				}
				n.nm.stallRebroadcasts.Add(1)
				n.queueBcast(MsgBlock, n.lastBlockRaw)
				// The vote goes again only if it is the slot's journaled
				// one: a replica restarted into a round it had already
				// proposed holds a vote for the earlier block, and signs
				// nothing for this one.
				if v, ok := n.repeatVote(k, b.Digest()); ok {
					n.queueBcast(MsgVote, v)
				}
			}
			n.lastBlockVotes = votes
		} else {
			n.lastBlock = nil
			n.lastBlockRaw = nil
			n.lastBlockVotes = 0
		}
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
	seen := make([]types.Round, 0, n.n)
	for p, r := range n.lastSeen {
		if p != n.cfg.ID {
			seen = append(seen, r)
		}
	}
	if len(seen) <= n.f {
		return 0
	}
	slices.Sort(seen)
	return seen[len(seen)-1-n.f]
}

// pullRound broadcasts a MsgRoundReq for one round unless a request
// is already in flight (re-asked after four ticks, covering a
// round-trip on slow links, so recovery traffic doesn't multiply by
// latency/tick).
func (n *Node) pullRound(r types.Round) {
	if at, ok := n.roundReqAt[r]; ok && time.Since(at) < 4*n.cfg.TickInterval {
		return
	}
	n.roundReqAt[r] = time.Now()
	n.nm.roundPulls.Add(1)
	n.queueBcast(MsgRoundReq, (&roundReq{Epoch: n.epoch, Round: r}).marshal())
}

// handleRoundReq serves every certified vertex of one round (block
// first, certificate second, per vertex). A request from a stale
// epoch asks for a DAG this node discarded at a transition — the
// round-by-round answer no longer exists, so the useful reply is the
// snapshot that lets the requester jump epochs instead. The same
// logic covers mid-epoch stranding: a same-epoch request for a round
// below this node's GC floor can never be answered round-by-round, so
// the reply is the latest capture. The stranded replica need not know
// it is stranded: its ordinary stall pull reaches every peer, and
// serveSnapshot's gate and per-requester rate limit decide whether a
// manifest goes back.
func (n *Node) handleRoundReq(from types.ReplicaID, r *roundReq) {
	if r.Epoch < n.epoch {
		n.serveSnapshot(from, r.Epoch, 0)
		return
	}
	if r.Epoch > n.epoch {
		return
	}
	if r.Round < n.dagStore.Floor() {
		n.serveSnapshot(from, r.Epoch, r.Round)
		return
	}
	for _, v := range n.dagStore.AtRound(r.Round) {
		n.queueTo(from, MsgBlock, mustMarshal(v.Block))
		n.queueTo(from, MsgCert, mustMarshal(v.Cert))
	}
}

// requestMissingParents pulls the round an orphan's parents live in —
// round r−1, the only round dag.Store.Add accepts them from — unless
// every parent it lacks has arrived already, itself an orphan waiting
// for its own parents. Recovery walks causal history backwards one
// round per round-trip: each recovered parent that is itself an orphan
// pulls the round below it.
func (n *Node) requestMissingParents(v *dag.Vertex) {
	for _, p := range v.Block.Parents {
		if _, ok := n.dagStore.ByCert(p); !ok && !n.orphanSet[p] {
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

// handleBlock processes one block delivery. raw is the received wire
// payload (nil when invoked without one, e.g. from tests), kept as-is
// when the message is parked for the next epoch.
func (n *Node) handleBlock(from types.ReplicaID, b *types.Block, raw []byte) {
	if b.Epoch > n.epoch {
		if raw == nil {
			raw = mustMarshal(b)
		}
		n.parkFuture(from, b.Epoch, MsgBlock, raw)
		return
	}
	if b.Epoch < n.epoch || int(b.Proposer) >= n.n {
		return
	}
	if b.Round < n.dagStore.Floor() {
		return // round garbage-collected; the vertex can never matter
	}
	d := b.Digest()
	n.trackPendingBlock(b)
	if b.Round > n.lastSeen[b.Proposer] {
		n.lastSeen[b.Proposer] = b.Round
	}
	// Vote only for blocks received from their proposer, once per
	// (round, proposer) slot — the anti-equivocation guard. On a
	// durable backend the first vote per slot is journaled before the
	// signature leaves this replica, so a crash+restart cannot be
	// induced into signing a conflicting digest for an already-voted
	// slot (two certificates for one slot would let commit sequences
	// diverge across replicas). The first vote goes to the whole
	// committee, in the bundle this pass's flush seals — every replica
	// certifies from votes. A repeat of the block is its proposer saying
	// it still lacks the quorum (stall rebroadcast), so the same vote
	// goes again, to the proposer alone.
	if from == b.Proposer {
		k := voteKey{round: b.Round, proposer: b.Proposer}
		if _, ok := n.voted[k]; !ok {
			n.castVote(b, k, d)
		} else if v, ok := n.repeatVote(k, d); ok {
			n.queueTo(b.Proposer, MsgVote, v)
		}
	}
	// A certificate may have arrived first.
	if cert, ok := n.certWait[d]; ok {
		delete(n.certWait, d)
		n.addVertex(&dag.Vertex{Block: b, Cert: cert})
	}
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
	if c.Epoch < n.epoch || c.Round < n.dagStore.Floor() {
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

func (n *Node) handleBlockReq(from types.ReplicaID, r *blockReq) {
	if b, ok := n.pendingBlocks[r.BlockDigest]; ok {
		n.queueTo(from, MsgBlock, mustMarshal(b))
		return
	}
	if v, ok := n.dagStore.ByBlock(r.BlockDigest); ok {
		n.queueTo(from, MsgBlock, mustMarshal(v.Block))
	}
}

// addVertex inserts a certified vertex, drains any orphans that
// become insertable, advances the round, and processes commits.
func (n *Node) addVertex(v *dag.Vertex) {
	if !n.insertVertex(v) {
		return
	}
	// Orphans may now have parents. Retry against the store directly:
	// still-orphaned vertices stay parked (membership unchanged, no
	// re-request) until the next arrival or housekeeping retry.
	progress := true
	for progress {
		progress = false
		keep := n.orphans[:0]
		for _, o := range n.orphans {
			d := o.Cert.Digest()
			if n.inserted(o) {
				delete(n.orphanSet, d)
				continue
			}
			err := n.dagStore.Add(o)
			var missing *dag.MissingParentError
			switch {
			case err == nil:
				delete(n.orphanSet, d)
				n.onVertexAdded(o)
				progress = true
			case errors.As(err, &missing):
				keep = append(keep, o)
			default:
				// Permanent rejection (equivocation or garbage): do
				// not park it forever.
				delete(n.orphanSet, d)
			}
		}
		n.orphans = keep
	}
	n.maybeAdvance()
	n.processCommits()
}

func (n *Node) inserted(v *dag.Vertex) bool {
	_, ok := n.dagStore.ByCert(v.Cert.Digest())
	return ok
}

// insertVertex adds to the DAG store, parking vertices with missing
// parents on the orphan list. Returns true if the vertex landed.
func (n *Node) insertVertex(v *dag.Vertex) bool {
	err := n.dagStore.Add(v)
	if err == nil {
		delete(n.orphanSet, v.Cert.Digest())
		n.onVertexAdded(v)
		return true
	}
	// The errors.As target lives behind the success check: taking its
	// address forces a heap allocation, and insertions succeed on the
	// hot path.
	var missing *dag.MissingParentError
	switch {
	case errors.As(err, &missing):
		if d := v.Cert.Digest(); !n.orphanSet[d] {
			n.orphanSet[d] = true
			n.orphans = append(n.orphans, v)
			// Ask peers for the missing history immediately;
			// housekeeping retries if the answers are lost.
			n.requestMissingParents(v)
		}
		return false
	default:
		return false // equivocation or garbage
	}
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
	// The slot is decided: retire its vote collector. One that
	// assembled a certificate means this vertex was certified here,
	// from votes, rather than received certified.
	k := voteKey{round: v.Round(), proposer: v.Proposer()}
	var local uint64
	if s, ok := n.slots[k]; ok {
		if s.done {
			local = 1
		}
		n.releaseSlot(k)
	}
	// a = proposer whose vertex was certified, b = 1 when the
	// certificate was assembled locally.
	n.trace(metrics.EvCert, v.Round(), uint64(v.Proposer()), local)
	if v.Proposer() == n.cfg.ID {
		n.observeCertLatency(v.Block)
	}
	if v.Round() > n.lastSeen[v.Proposer()] {
		n.lastSeen[v.Proposer()] = v.Round()
	}
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
	// certificate quorum — a thin-parent proposal on a leader round
	// would break the quorum intersection Tusk's commit rule needs
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
	if n.holdForLeader(prev) {
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
	// Recover transactions from own stale blocks — the ownPending
	// round index, not a scan over every pending block — deduplicated
	// against the queue and each other (a transaction can sit in
	// several stale blocks after validation-failure requeues);
	// committed ones stay filtered by the dedup state in drainQueue.
	queued := make(map[types.Digest]bool, len(n.txQueue))
	for _, tx := range n.txQueue {
		queued[tx.ID()] = true
	}
	for r, d := range n.ownPending {
		if r > hi {
			continue
		}
		delete(n.ownPending, r)
		if b, ok := n.pendingBlocks[d]; ok {
			n.requeueOwnBlock(b, queued)
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
// the proposer queue, skipping committed ones and those already
// queued, and unclaims them from dedup so client retransmissions are
// accepted again.
func (n *Node) requeueOwnBlock(b *types.Block, queued map[types.Digest]bool) {
	for _, txs := range [][]*types.Transaction{b.SingleTxs, b.CrossTxs} {
		for _, tx := range txs {
			id := tx.ID()
			if n.dedup.Resolved(tx) || queued[id] {
				continue
			}
			queued[id] = true
			delete(n.seen, id)
			n.txQueue = append(n.txQueue, tx)
		}
	}
}

// trackPendingBlock stores a block by digest and indexes it by round
// (for committed-wave GC and the own-block fast-forward scan).
func (n *Node) trackPendingBlock(b *types.Block) {
	d := b.Digest()
	if _, ok := n.pendingBlocks[d]; ok {
		return
	}
	// First sighting on this replica: the propose→certify stage clock
	// starts here (own blocks stamp at creation, peer blocks at first
	// receipt — both within the proposer's broadcast).
	if b.Stamps.Seen.IsZero() {
		b.Stamps.Seen = time.Now()
	}
	n.pendingBlocks[d] = b
	n.pendingRounds[b.Round] = append(n.pendingRounds[b.Round], d)
}

func mustMarshal(m interface{ MarshalBinary() ([]byte, error) }) []byte {
	b, err := m.MarshalBinary()
	if err != nil {
		panic(err)
	}
	return b
}
