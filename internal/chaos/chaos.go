// Package chaos is the deterministic fault-injection harness: it
// drives a live cluster.Cluster through a declarative schedule of
// network faults (partitions, crashes, loss, duplication, latency
// spikes) while a real workload runs, and checks machine-verifiable
// safety and liveness invariants afterwards.
//
// Every random choice — the workload stream, the network's loss and
// duplication processes, key generation — derives from one master
// seed, printed by every scenario. A failing run is replayed by
// setting CHAOS_SEED to that value; wall-clock interleavings still
// vary between runs, but the injected fault decisions and the
// submitted transactions are identical.
//
// The package is a library, not only a test suite: later performance
// and scaling PRs regress against these scenarios, and new ones are
// a Schedule literal away.
package chaos

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"thunderbolt/internal/cluster"
	"thunderbolt/internal/node"
	"thunderbolt/internal/transport"
	"thunderbolt/internal/workload"
)

// SeedFromEnv returns the chaos master seed: CHAOS_SEED if set (the
// reproduction path), otherwise def.
func SeedFromEnv(def int64) int64 {
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return def
}

// Options assembles a harness.
type Options struct {
	// N is the committee size (default 4).
	N int
	// Mode selects the execution pipeline.
	Mode node.ExecutionMode
	// Seed is the master seed; every derived random process (cluster
	// keys, workload streams, network loss/duplication) feeds from it.
	Seed int64
	// Accounts and InitBalance shape the SmallBank genesis (defaults
	// 64 accounts, 10_000 each). The conservation invariant asserts
	// against Accounts * 2 * InitBalance.
	Accounts    int
	InitBalance int64
	// K / KPrime are the reconfiguration knobs (node.Config).
	K, KPrime int
	// BatchSize is the adaptive batch floor (default 64; batches grow
	// up to 4x it under backlog).
	BatchSize int
	// Latency is the network model (default: tight LAN jitter).
	Latency transport.LatencyModel
	// TickInterval paces node housekeeping — also the fault-recovery
	// retry cadence (default 5ms, aggressive for test turnaround).
	TickInterval time.Duration
	// MinRoundInterval throttles round advancement (default: node's
	// 1ms). GC scenarios raise it so an outage's missed-round count
	// stays related to the configured horizon.
	MinRoundInterval time.Duration
	// SpecExecDepth bounds each node's speculative-execution pipeline
	// (node.Config.SpecExecDepth): 0 = default (on), negative disables.
	SpecExecDepth int
	// SpecVerify re-derives every speculative hit cold at install time
	// (node.Config.SpecVerify) — speculation scenarios turn it on so a
	// hit is a proven equivalence, not an assumption.
	SpecVerify bool
	// GCHorizon sets each node's round-pull serving horizon in rounds
	// (node.Config.GCHorizon: 0 = node default, negative disables GC).
	GCHorizon int
	// SnapshotInterval is the mid-epoch snapshot capture cadence in
	// decided rounds (node.Config.SnapshotInterval): 0 =
	// default, negative disables. Rescue scenarios set it small so a
	// stranded replica finds a fresh snapshot quickly.
	SnapshotInterval int
	// Headless lists replica indices to leave without a node: their
	// SimNetwork endpoints are free for a wire-level Byzantine driver
	// (see the equivocating-proposer scenario). Replica 0 must stay
	// live (it is the harness observer).
	Headless []int
	// GatewayClients reserves wire-client endpoints on the simulated
	// network (cluster.Config.GatewayClients) so scenarios can drive
	// load through the sessioned gateway protocol.
	GatewayClients int
	// NonceWindow sets each node's per-client dedup window
	// (node.Config.NonceWindow); 0 = gateway default. Scenarios use
	// small windows so plateau assertions bite.
	NonceWindow int
	// DataDir gives every replica a durable WAL storage backend under
	// per-replica subdirectories (cluster.Config.DataDir); restart
	// scenarios then recover state from disk. WALNoSync skips fsync
	// for test turnaround.
	DataDir   string
	WALNoSync bool
}

func (o Options) withDefaults() Options {
	if o.N <= 0 {
		o.N = 4
	}
	if o.Accounts <= 0 {
		o.Accounts = 64
	}
	if o.InitBalance == 0 {
		o.InitBalance = 10_000
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 64
	}
	if o.Latency == nil {
		o.Latency = transport.UniformLatency(50*time.Microsecond, 300*time.Microsecond)
	}
	if o.TickInterval <= 0 {
		o.TickInterval = 5 * time.Millisecond
	}
	return o
}

// Harness wires a cluster to the fault scheduler and the invariant
// checkers.
type Harness struct {
	opt     Options
	cluster *cluster.Cluster

	// expectedTotal is the genesis total balance the conservation
	// invariant asserts (valid under conserving workloads).
	expectedTotal int64

	mu     sync.Mutex
	start  time.Time
	events []string // applied-fault log for failure reports

	schedMu   sync.Mutex
	schedDone chan struct{}
	stop      chan struct{}
	stopOnce  sync.Once
}

// New assembles (but does not start) a harness and its cluster. Node
// commit logs are enabled so the commit-sequence invariants have
// evidence to check.
func New(opt Options) (*Harness, error) {
	opt = opt.withDefaults()
	c, err := cluster.New(cluster.Config{
		N: opt.N, Mode: opt.Mode, Latency: opt.Latency,
		Accounts: opt.Accounts, InitBalance: opt.InitBalance,
		Executors: 2, Validators: 2,
		BatchSize: opt.BatchSize, K: opt.K, KPrime: opt.KPrime,
		TickInterval: opt.TickInterval, MinRoundInterval: opt.MinRoundInterval,
		SpecExecDepth: opt.SpecExecDepth, SpecVerify: opt.SpecVerify,
		GCHorizon: opt.GCHorizon, Seed: opt.Seed,
		SnapshotInterval: opt.SnapshotInterval,
		CommitLogCap:     1 << 20,
		Headless:         opt.Headless,
		GatewayClients:   opt.GatewayClients,
		NonceWindow:      opt.NonceWindow,
		DataDir:          opt.DataDir,
		WALNoSync:        opt.WALNoSync,
	})
	if err != nil {
		return nil, err
	}
	return &Harness{
		opt:           opt,
		cluster:       c,
		expectedTotal: int64(opt.Accounts) * 2 * opt.InitBalance,
		stop:          make(chan struct{}),
	}, nil
}

// Cluster exposes the cluster under test.
func (h *Harness) Cluster() *cluster.Cluster { return h.cluster }

// Net exposes the simulated network for ad-hoc fault injection.
func (h *Harness) Net() *transport.SimNetwork { return h.cluster.Network() }

// Seed returns the master seed (for failure reports).
func (h *Harness) Seed() int64 { return h.opt.Seed }

// Start launches the cluster and stamps the schedule clock.
func (h *Harness) Start() {
	h.mu.Lock()
	h.start = time.Now()
	h.mu.Unlock()
	h.cluster.Start()
}

// Stop halts the scheduler and tears the cluster down.
func (h *Harness) Stop() {
	h.stopOnce.Do(func() { close(h.stop) })
	h.schedMu.Lock()
	done := h.schedDone
	h.schedMu.Unlock()
	if done != nil {
		<-done
	}
	h.cluster.Stop()
}

// logEvent appends one line to the applied-fault log.
func (h *Harness) logEvent(format string, args ...any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	at := time.Duration(0)
	if !h.start.IsZero() {
		at = time.Since(h.start).Round(time.Millisecond)
	}
	h.events = append(h.events, fmt.Sprintf("[%8s] %s", at, fmt.Sprintf(format, args...)))
}

// EventLog returns the applied-fault log: what fired, when. Scenario
// failure reports print it next to the seed.
func (h *Harness) EventLog() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.events...)
}

// FlightDump renders the last `last` flight-recorder events of every
// live replica, one "--- node i flight recorder ---" section each.
// Failure reports print it beside the seed and fault log: the fault
// log says what the harness did, the flight dump says what each node
// was doing (protocol-event level) when the invariant broke.
func (h *Harness) FlightDump(last int) string {
	var b strings.Builder
	for i := 0; i < h.cluster.N(); i++ {
		n := h.cluster.Node(i)
		if n == nil {
			continue
		}
		fmt.Fprintf(&b, "--- node %d flight recorder (last %d) ---\n", i, last)
		b.WriteString(n.Flight().Dump(last))
	}
	return b.String()
}

// LoadOptions parameterizes RunLoadAsync. The zero value is a usable
// conserving mixed workload.
type LoadOptions struct {
	// Duration of the closed-loop load (default 1s).
	Duration time.Duration
	// Clients is the number of closed-loop clients (default 8).
	Clients int
	// Workload overrides the generator config. Conserving is forced on
	// (the conservation invariant depends on it); Shards, Accounts,
	// and Seed come from the harness.
	Workload workload.Config
	// RetryEvery/Timeout bound one transaction's client-side life
	// (defaults 250ms / 60s — retry aggressively, never give up within
	// a scenario).
	RetryEvery time.Duration
	Timeout    time.Duration
	// ViaGateway drives the load through gateway wire clients
	// (requires Options.GatewayClients > 0).
	ViaGateway bool
}

// LoadHandle is a running background load.
type LoadHandle struct {
	done chan struct{}
	rep  cluster.Report
}

// Wait blocks until the load window closes and returns the report.
func (l *LoadHandle) Wait() cluster.Report {
	<-l.done
	return l.rep
}

// RunLoadAsync drives a conserving workload through cluster.RunLoad
// on a background goroutine, so fault schedules overlap the load.
func (h *Harness) RunLoadAsync(lo LoadOptions) *LoadHandle {
	if lo.Duration <= 0 {
		lo.Duration = time.Second
	}
	if lo.Clients <= 0 {
		lo.Clients = 8
	}
	if lo.RetryEvery <= 0 {
		lo.RetryEvery = 250 * time.Millisecond
	}
	if lo.Timeout <= 0 {
		lo.Timeout = 60 * time.Second
	}
	lo.Workload.Conserving = true
	lc := cluster.LoadConfig{
		Duration: lo.Duration, Clients: lo.Clients,
		Workload:   lo.Workload,
		RetryEvery: lo.RetryEvery, Timeout: lo.Timeout,
		ViaGateway: lo.ViaGateway,
	}
	l := &LoadHandle{done: make(chan struct{})}
	h.logEvent("load: %d clients for %s (cross=%.0f%%, reads=%.0f%%)",
		lo.Clients, lo.Duration, lo.Workload.CrossPct*100, lo.Workload.ReadRatio*100)
	go func() {
		defer close(l.done)
		l.rep = h.cluster.RunLoad(lc)
	}()
	return l
}
