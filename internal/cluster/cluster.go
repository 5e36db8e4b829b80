// Package cluster is the local testbed: it assembles n Thunderbolt
// replicas over an in-process simulated network, routes client
// transactions to shard proposers (re-routing across
// reconfigurations), and measures the throughput and latency figures
// the paper reports.
package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"thunderbolt/internal/contract"
	"thunderbolt/internal/crypto"
	"thunderbolt/internal/gateway"
	"thunderbolt/internal/metrics"
	"thunderbolt/internal/node"
	"thunderbolt/internal/storage"
	"thunderbolt/internal/transport"
	"thunderbolt/internal/types"
	"thunderbolt/internal/workload"
)

// Config assembles a cluster.
type Config struct {
	// N is the number of replicas (= shards).
	N int
	// Mode selects the execution pipeline for every node.
	Mode node.ExecutionMode
	// Latency models the network (default LAN).
	Latency transport.LatencyModel
	// SchemeName selects the signature scheme ("insecure" default for
	// in-process scale; "ed25519" for realism).
	SchemeName string
	// Accounts and InitBalance seed the SmallBank state.
	Accounts    int
	InitBalance int64
	// Executors, Validators, BatchSize, K, KPrime configure each node
	// (see node.Config).
	Executors  int
	Validators int
	BatchSize  int
	K          int
	KPrime     int
	// TickInterval paces node housekeeping (default 25ms).
	TickInterval time.Duration
	// Seed feeds key generation and the workload.
	Seed int64
	// CommitLogCap, when positive, makes every node retain its ordered
	// commit sequence (node.Config.CommitLogCap) for the chaos
	// harness's divergence and double-commit checkers.
	CommitLogCap int
	// GCHorizon is each node's round-pull serving horizon in rounds
	// (node.Config.GCHorizon): 0 = default, negative disables GC.
	GCHorizon int
	// SnapshotInterval is the mid-epoch snapshot capture cadence in
	// decided rounds (node.Config.SnapshotInterval): 0 =
	// default, negative disables mid-epoch captures.
	SnapshotInterval int
	// MinRoundInterval throttles each node's round advancement
	// (node.Config.MinRoundInterval); 0 = default 1ms.
	MinRoundInterval time.Duration
	// Headless lists replica indices for which no node is constructed:
	// their network endpoints stay free for a test harness to drive at
	// the wire level (Byzantine drivers, protocol fuzzers). Node(i)
	// returns nil for them and routing treats them as black holes
	// (clients fall back on retries and reconfiguration).
	Headless []int
	// GatewayClients reserves this many extra SimNetwork endpoints
	// (IDs N..N+GatewayClients-1) for gateway clients: wire clients
	// that speak the sessioned submission protocol to the committee
	// instead of calling node.Submit in-process. See GatewayClient.
	GatewayClients int
	// NonceWindow configures every node's per-client dedup window
	// (node.Config); 0 selects the gateway default.
	NonceWindow int
	// DataDir, when set, gives every replica a durable WAL storage
	// backend under <DataDir>/replica-<i> instead of the in-memory
	// store: replicas restarted against the same directory recover
	// their committed state from disk. Fresh directories are seeded
	// with the SmallBank genesis; recovered ones are not re-seeded.
	DataDir string
	// WALNoSync skips fsync in the durable backend (test speed).
	WALNoSync bool
}

func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = 4
	}
	if c.Latency == nil {
		c.Latency = transport.LANModel()
	}
	if c.SchemeName == "" {
		c.SchemeName = "insecure"
	}
	if c.Accounts <= 0 {
		c.Accounts = 1000
	}
	if c.InitBalance == 0 {
		c.InitBalance = 1_000_000
	}
	return c
}

// Cluster is a running local committee.
type Cluster struct {
	cfg   Config
	net   *transport.SimNetwork
	nodes []*node.Node
	reg   *contract.Registry
	// backends holds the durable storage backends to close on Stop
	// (empty when Config.DataDir is unset).
	backends []*storage.Durable

	// gateways caches one gateway.Client per reserved client endpoint;
	// sessions allocates cluster-unique dedup session IDs — each load
	// run opens fresh sessions, because a session's nonces start at 1
	// exactly once (reusing a client ID with restarted nonces would
	// collide with the committee's nonce floors by design).
	gwMu     sync.Mutex
	gateways map[int]*gateway.Client
	sessions atomic.Uint64

	// committed holds every transaction committed anywhere in the
	// cluster. Only membership is read, and a value-free map of
	// pointer-free keys is one the garbage collector never scans.
	mu        sync.Mutex
	committed map[types.Digest]struct{}
	waiters   map[types.Digest]*waiter // chained through waiter.next
	spare     []*waiter                // waiters no map entry reaches

	latencies *metrics.LatencyRecorder
	commits   metrics.Counter
	// waveSeries records, from the observer node (replica 0), each
	// commit wave's wall-clock time (Figure 16).
	waveSeries *metrics.Series
	lastWaveAt time.Time
	nacks      metrics.Counter

	// rejected carries proposer negative-acks to the resubmit
	// goroutine (node event loops must never block on re-routing).
	rejected chan *types.Transaction
	done     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	started bool
}

// New assembles (but does not start) a cluster with SmallBank
// registered and seeded identically on every replica.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	scheme, err := crypto.SchemeByName(cfg.SchemeName)
	if err != nil {
		return nil, err
	}
	signers, verifier, err := scheme.Committee(cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	reg := contract.NewRegistry()
	workload.RegisterSmallBank(reg)

	c := &Cluster{
		cfg: cfg,
		net: transport.NewSimNetwork(transport.SimConfig{
			N: cfg.N + cfg.GatewayClients, Committee: cfg.N,
			Latency: cfg.Latency, Seed: cfg.Seed,
		}),
		reg:        reg,
		gateways:   make(map[int]*gateway.Client),
		committed:  make(map[types.Digest]struct{}),
		waiters:    make(map[types.Digest]*waiter),
		latencies:  metrics.NewLatencyRecorder(),
		waveSeries: &metrics.Series{},
		rejected:   make(chan *types.Transaction, 8192),
		done:       make(chan struct{}),
	}
	headless := make(map[int]bool, len(cfg.Headless))
	for _, i := range cfg.Headless {
		headless[i] = true
	}
	for i := 0; i < cfg.N; i++ {
		if headless[i] {
			c.nodes = append(c.nodes, nil)
			continue
		}
		var st storage.Backend
		if cfg.DataDir != "" {
			d, err := storage.OpenDurable(storage.DurableOptions{
				Dir:    filepath.Join(cfg.DataDir, fmt.Sprintf("replica-%d", i)),
				NoSync: cfg.WALNoSync,
			})
			if err != nil {
				return nil, fmt.Errorf("cluster: replica %d storage: %w", i, err)
			}
			c.backends = append(c.backends, d)
			st = d
		} else {
			st = storage.New()
		}
		if st.Seq() == 0 {
			workload.InitAccounts(st, cfg.Accounts, cfg.InitBalance, cfg.InitBalance)
		}
		id := types.ReplicaID(i)
		ncfg := node.Config{
			ID: id, N: cfg.N,
			Transport: c.net.Endpoint(id),
			Signer:    signers[i], Verifier: verifier,
			Registry: reg, Store: st,
			Mode:      cfg.Mode,
			Executors: cfg.Executors, Validators: cfg.Validators,
			BatchSize: cfg.BatchSize, K: cfg.K, KPrime: cfg.KPrime,
			TickInterval:     cfg.TickInterval,
			MinRoundInterval: cfg.MinRoundInterval,
			CommitLogCap:     cfg.CommitLogCap,
			GCHorizon:        cfg.GCHorizon,
			SnapshotInterval: cfg.SnapshotInterval,
			NonceWindow:      cfg.NonceWindow,
			OnCommitTx:       c.onCommit,
			OnRejectTx:       c.onReject,
		}
		if i == 0 {
			ncfg.OnCommitWave = c.onWave
		}
		nd, err := node.New(ncfg)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, nd)
	}
	return c, nil
}

// Registry returns the shared contract registry.
func (c *Cluster) Registry() *contract.Registry { return c.reg }

// Network exposes the simulated network for fault injection.
func (c *Cluster) Network() *transport.SimNetwork { return c.net }

// Node returns replica i.
func (c *Cluster) Node(i int) *node.Node { return c.nodes[i] }

// N returns the committee size.
func (c *Cluster) N() int { return c.cfg.N }

// Start launches every node and the negative-ack resubmitter.
func (c *Cluster) Start() {
	if c.started {
		return
	}
	c.started = true
	c.wg.Add(1)
	go c.resubmitRejected()
	for _, n := range c.nodes {
		if n != nil {
			n.Start()
		}
	}
}

// Stop tears the cluster down. Idempotent and safe for concurrent use.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() { close(c.done) })
	for _, n := range c.nodes {
		if n != nil {
			n.Stop()
		}
	}
	c.wg.Wait()
	c.net.Close()
	// Backends close after their nodes: Durable.Close cuts a final
	// checkpoint whose meta capture reads node state.
	for _, b := range c.backends {
		_ = b.Close()
	}
}

// onReject receives a proposer's negative-ack on that node's event
// loop; hand the transaction to the resubmitter without blocking.
func (c *Cluster) onReject(tx *types.Transaction) {
	select {
	case c.rejected <- tx:
	default:
		// Backlogged: the client's own retry timer is the backstop.
	}
}

// resubmitRejected re-routes negative-acked transactions immediately,
// cutting the fault-path tail latency from the client retry interval
// to one round trip. Only transactions a SubmitWait caller is still
// blocked on are resubmitted, so abandoned traffic cannot circulate.
// Routing uses the freshest epoch any replica reports — the rejecting
// proposer has already transitioned, so the observer node's view can
// lag and would bounce the resubmission straight back.
func (c *Cluster) resubmitRejected() {
	defer c.wg.Done()
	for {
		select {
		case tx := <-c.rejected:
			c.mu.Lock()
			_, waiting := c.waiters[tx.ID()]
			c.mu.Unlock()
			if !waiting {
				continue
			}
			c.nacks.Add(1)
			epoch := types.Epoch(0)
			for _, n := range c.nodes {
				if n == nil {
					continue
				}
				if e := n.Stats().Epoch; e > epoch {
					epoch = e
				}
			}
			shard := types.ShardID(0)
			if len(tx.Shards) > 0 {
				shard = tx.Shards[0]
			}
			if nd := c.nodes[ProposerOf(shard, epoch, c.cfg.N)]; nd != nil {
				_ = nd.Submit(tx)
			}
		case <-c.done:
			return
		}
	}
}

// Nacks returns how many negative-acked transactions were immediately
// resubmitted (observability for the fault-path latency tests).
func (c *Cluster) Nacks() uint64 { return c.nacks.Value() }

// onCommit records the first commit of each transaction anywhere in
// the cluster (the paper's client-observed commit point).
func (c *Cluster) onCommit(tx *types.Transaction, when time.Time) {
	id := tx.ID()
	c.mu.Lock()
	if _, dup := c.committed[id]; dup {
		c.mu.Unlock()
		return
	}
	c.committed[id] = struct{}{}
	// Signalled under c.mu: a waiter's owner recycles it under c.mu
	// too, so no signal can reach the waiter's next user.
	for w := c.waiters[id]; w != nil; w = w.next {
		w.signal()
	}
	delete(c.waiters, id)
	c.mu.Unlock()

	c.commits.Add(1)
	if tx.SubmitUnixNano > 0 {
		c.latencies.Record(when.Sub(time.Unix(0, tx.SubmitUnixNano)))
	}
}

// onWave records inter-wave commit spacing on the observer node.
func (c *Cluster) onWave(_ types.Epoch, _ types.Round, when time.Time) {
	c.mu.Lock()
	last := c.lastWaveAt
	c.lastWaveAt = when
	c.mu.Unlock()
	if !last.IsZero() {
		c.waveSeries.Append(when, when.Sub(last).Seconds())
	}
}

// WaveSeries returns the per-wave commit spacing series (seconds).
func (c *Cluster) WaveSeries() *metrics.Series { return c.waveSeries }

// Reconfigurations returns the observer's (replica 0's) count of
// in-band reconfigurations; snapshot epoch jumps do not count. A
// headless replica 0 observes none.
func (c *Cluster) Reconfigurations() uint64 {
	if c.nodes[0] == nil {
		return 0
	}
	return c.nodes[0].Stats().Reconfigurations
}

// Committed reports whether tx has committed anywhere.
func (c *Cluster) Committed(id types.Digest) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.committed[id]
	return ok
}

// PendingWaits returns the IDs of transactions some SubmitWait caller
// is still blocked on — the chaos harness's starvation diagnostics.
func (c *Cluster) PendingWaits() []types.Digest {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]types.Digest, 0, len(c.waiters))
	for id := range c.waiters {
		out = append(out, id)
	}
	return out
}

// waiter is one SubmitWait call's wait for a commit: a channel the
// commit signals once, and a timer for the call's retries. Waiters are
// recycled through c.spare, so a call allocates nothing of its own once
// the load's concurrency has been reached. A waiter goes back only
// after it has left c.waiters under c.mu — removed by its commit, or by
// unwatch — so a late commit of its last transaction cannot signal its
// next user.
type waiter struct {
	ch    chan struct{} // buffered: a commit never blocks on it
	timer *time.Timer   // stopped and drained between waits
	next  *waiter       // the next waiter on the same transaction
}

// signal marks w's transaction committed. A waiter is signalled once
// per registration, so the buffer always has room; the send cannot
// block the lock it is made under.
func (w *waiter) signal() {
	select {
	case w.ch <- struct{}{}:
	default:
	}
}

// wait reports whether w was signalled within d.
func (w *waiter) wait(d time.Duration) bool {
	if w.timer == nil {
		w.timer = time.NewTimer(d)
	} else {
		w.timer.Reset(d)
	}
	select {
	case <-w.ch:
		if !w.timer.Stop() {
			select { // drain a fire that raced the signal
			case <-w.timer.C:
			default:
			}
		}
		return true
	case <-w.timer.C:
		return false
	}
}

// watch returns a waiter signalled when tx id first commits — at once
// if it already has.
func (c *Cluster) watch(id types.Digest) *waiter {
	c.mu.Lock()
	defer c.mu.Unlock()
	var w *waiter
	if k := len(c.spare); k > 0 {
		w = c.spare[k-1]
		c.spare[k-1] = nil
		c.spare = c.spare[:k-1]
	} else {
		w = &waiter{ch: make(chan struct{}, 1)}
	}
	w.next = nil
	if _, done := c.committed[id]; done {
		w.signal()
		return w
	}
	w.next = c.waiters[id]
	c.waiters[id] = w
	return w
}

// unwatch recycles the waiter of a SubmitWait call that gives up, so
// PendingWaits reflects only live clients. A waiter its commit already
// left signalled is drained first.
func (c *Cluster) unwatch(id types.Digest, w *waiter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if head := c.waiters[id]; head == w {
		if w.next == nil {
			delete(c.waiters, id)
		} else {
			c.waiters[id] = w.next
		}
	} else {
		for p := head; p != nil; p = p.next {
			if p.next == w {
				p.next = w.next
				break
			}
		}
	}
	select {
	case <-w.ch:
	default:
	}
	c.spare = append(c.spare, w)
}

// release recycles the waiter of a SubmitWait call whose commit
// signalled it, and with that removed it from c.waiters.
func (c *Cluster) release(w *waiter) {
	c.mu.Lock()
	c.spare = append(c.spare, w)
	c.mu.Unlock()
}

// route picks the node a transaction should be submitted to: the
// proposer currently serving its (first) shard. The observer node's
// epoch approximates the cluster epoch; a stale guess is corrected by
// client resubmission after a timeout. Returns nil when the proposer
// is headless (a black hole the client's retry loop works around).
func (c *Cluster) route(tx *types.Transaction) *node.Node {
	var epoch types.Epoch
	for _, n := range c.nodes {
		if n != nil {
			epoch = n.Stats().Epoch
			break
		}
	}
	shard := types.ShardID(0)
	if len(tx.Shards) > 0 {
		shard = tx.Shards[0]
	}
	return c.nodes[ProposerOf(shard, epoch, c.cfg.N)]
}

// ProposerOf mirrors the protocol's shard-rotation schedule.
func ProposerOf(s types.ShardID, epoch types.Epoch, n int) types.ReplicaID {
	return node.ProposerOfShard(s, epoch, n)
}

// NewSession allocates a cluster-unique gateway session ID. A session
// is an identity whose nonces start at 1 exactly once; anything
// submitting a fresh transaction stream must hold a fresh session
// (RunLoad allocates one per client goroutine per call).
func (c *Cluster) NewSession() uint64 {
	return 1<<20 + c.sessions.Add(1)
}

// GatewayClient returns the gateway client bound to reserved client
// endpoint i (0 ≤ i < Config.GatewayClients), creating it on first
// use. The client speaks the sessioned submission wire protocol to
// the committee over the simulated network — acks, nacks with
// re-route hints, commit notifications — exactly as a remote TCP
// client would. Safe for concurrent use.
func (c *Cluster) GatewayClient(i int) *gateway.Client {
	c.gwMu.Lock()
	defer c.gwMu.Unlock()
	if gw, ok := c.gateways[i]; ok {
		return gw
	}
	if i < 0 || i >= c.cfg.GatewayClients {
		panic(fmt.Sprintf("cluster: gateway client %d outside reserved range %d", i, c.cfg.GatewayClients))
	}
	gw, err := gateway.NewClient(gateway.ClientConfig{
		Transport:  c.net.Endpoint(types.ReplicaID(c.cfg.N + i)),
		N:          c.cfg.N,
		Session:    c.NewSession(),
		AckTimeout: 250 * time.Millisecond,
		RetryEvery: 250 * time.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	c.gateways[i] = gw
	return gw
}

// Submit stamps and routes one transaction without waiting.
func (c *Cluster) Submit(tx *types.Transaction) error {
	if !c.started {
		return errors.New("cluster: not started")
	}
	if tx.SubmitUnixNano == 0 {
		tx.SubmitUnixNano = time.Now().UnixNano()
	}
	nd := c.route(tx)
	if nd == nil {
		// Headless proposer: the submission is dropped on the floor,
		// exactly as a Byzantine proposer would drop it. Clients retry
		// until a reconfiguration rotates the shard to a live replica.
		return nil
	}
	return nd.Submit(tx)
}

// SubmitWait submits tx and blocks until it commits somewhere,
// resubmitting (with re-routing) every retryEvery until the deadline
// — the paper's client retransmission behaviour across
// reconfigurations.
func (c *Cluster) SubmitWait(tx *types.Transaction, retryEvery, timeout time.Duration) error {
	id := tx.ID()
	w := c.watch(id)
	deadline := time.Now().Add(timeout)
	if err := c.Submit(tx); err != nil {
		c.unwatch(id, w)
		return err
	}
	// The waiter's one timer serves every retry quantum: a time.After
	// per quantum leaves an unstoppable timer in the heap for the full
	// retry interval long after the commit arrived — at load, thousands
	// of dead timers.
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			c.unwatch(id, w)
			return fmt.Errorf("cluster: tx %s not committed within %v", id, timeout)
		}
		wait := retryEvery
		if wait <= 0 || wait > remaining {
			wait = remaining
		}
		if w.wait(wait) {
			c.release(w)
			return nil
		}
		_ = c.Submit(tx) // re-route and retry
	}
}

// Converged checks that every replica's store holds identical state.
func (c *Cluster) Converged() error {
	return c.ConvergedAmong(c.Replicas()...)
}

// ConvergedAmong checks that the listed replicas' stores hold
// identical state. Fault scenarios use it to assert agreement among
// the live majority while a crashed or partitioned replica lags.
func (c *Cluster) ConvergedAmong(replicas ...int) error {
	if len(replicas) < 2 {
		return nil
	}
	ref := c.nodes[replicas[0]].Store()
	keys := ref.Keys()
	for _, i := range replicas[1:] {
		st := c.nodes[i].Store()
		for _, k := range keys {
			a, _ := ref.Get(k)
			b, _ := st.Get(k)
			if !a.Equal(b) {
				return fmt.Errorf("cluster: replica %d diverges from %d at %s: %q vs %q", i, replicas[0], k, b, a)
			}
		}
		if st.Len() != ref.Len() {
			return fmt.Errorf("cluster: replica %d has %d keys, replica %d has %d", i, st.Len(), replicas[0], ref.Len())
		}
	}
	return nil
}

// Replicas returns the constructed replica indices — the default
// argument for the *Among helpers. Headless replicas are excluded
// (they have no node to observe).
func (c *Cluster) Replicas() []int {
	ids := make([]int, 0, len(c.nodes))
	for i, n := range c.nodes {
		if n != nil {
			ids = append(ids, i)
		}
	}
	return ids
}

// WaitConverged polls Converged until the deadline.
func (c *Cluster) WaitConverged(timeout time.Duration) error {
	return c.WaitConvergedAmong(timeout, c.Replicas()...)
}

// WaitConvergedAmong polls ConvergedAmong until the deadline.
func (c *Cluster) WaitConvergedAmong(timeout time.Duration, replicas ...int) error {
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		if last = c.ConvergedAmong(replicas...); last == nil {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return last
}

// Commits returns the number of distinct transactions committed
// anywhere in the cluster so far (the client-observed commit count).
func (c *Cluster) Commits() uint64 { return c.commits.Value() }

// MergedHistogram merges the named histogram across every live node
// into one cluster-wide bucket snapshot (per-stage commit-path
// breakdowns; see metrics.StageNames). Headless replicas contribute
// nothing.
func (c *Cluster) MergedHistogram(name string) metrics.HistogramSnapshot {
	var merged metrics.HistogramSnapshot
	for _, n := range c.nodes {
		if n == nil {
			continue
		}
		merged.Merge(n.Metrics().HistogramSnapshotOf(name))
	}
	return merged
}

// WaitCommitCountsEqual polls until every listed replica (default:
// all) reports the same CommittedTxs count and that count is stable
// across one poll interval — the quiescence point at which
// commit-count and state comparisons are meaningful.
func (c *Cluster) WaitCommitCountsEqual(timeout time.Duration, replicas ...int) error {
	if len(replicas) == 0 {
		replicas = c.Replicas()
	}
	deadline := time.Now().Add(timeout)
	var prev uint64
	stable := false
	for time.Now().Before(deadline) {
		base := c.nodes[replicas[0]].Stats().CommittedTxs
		equal := true
		for _, i := range replicas[1:] {
			if c.nodes[i].Stats().CommittedTxs != base {
				equal = false
				break
			}
		}
		if equal && stable && base == prev {
			return nil
		}
		stable = equal
		prev = base
		time.Sleep(20 * time.Millisecond)
	}
	counts := make([]uint64, 0, len(replicas))
	for _, i := range replicas {
		counts = append(counts, c.nodes[i].Stats().CommittedTxs)
	}
	return fmt.Errorf("cluster: commit counts never settled: %v", counts)
}

// Report summarizes one load run.
type Report struct {
	Mode      node.ExecutionMode
	N         int
	Duration  time.Duration
	Committed uint64
	TPS       float64
	Latency   metrics.Summary
	Reconfigs uint64
	NodeStats []node.Stats
}

func (r Report) String() string {
	return fmt.Sprintf("%s n=%d tps=%.0f committed=%d latency{%s} reconfigs=%d",
		r.Mode, r.N, r.TPS, r.Committed, r.Latency, r.Reconfigs)
}

// LoadConfig parameterizes RunLoad.
type LoadConfig struct {
	// Duration is the measurement window.
	Duration time.Duration
	// Clients is the number of closed-loop client goroutines.
	Clients int
	// Workload parameterizes the SmallBank generator (Shards and Seed
	// are overridden by the cluster).
	Workload workload.Config
	// RetryEvery/Timeout bound one transaction's client-side life.
	RetryEvery time.Duration
	Timeout    time.Duration
	// ViaGateway drives the load through gateway clients speaking the
	// sessioned wire protocol (requires Config.GatewayClients > 0)
	// instead of in-process Submit + commit-watch. Each load goroutine
	// still owns a fresh session; goroutines share the reserved
	// gateway endpoints round-robin.
	ViaGateway bool
}

// RunLoad drives closed-loop clients for the configured duration and
// reports committed throughput and latency.
func (c *Cluster) RunLoad(lc LoadConfig) Report {
	if lc.ViaGateway && c.cfg.GatewayClients <= 0 {
		panic("cluster: LoadConfig.ViaGateway requires Config.GatewayClients > 0")
	}
	if lc.Clients <= 0 {
		lc.Clients = 8
	}
	if lc.RetryEvery <= 0 {
		lc.RetryEvery = 2 * time.Second
	}
	if lc.Timeout <= 0 {
		lc.Timeout = 30 * time.Second
	}
	lc.Workload.Shards = c.cfg.N
	lc.Workload.Accounts = c.cfg.Accounts

	startCommits := c.commits.Value()
	start := time.Now()
	deadline := start.Add(lc.Duration)

	// Each goroutine gets a fresh dedup session: session nonces start
	// at 1 exactly once per identity, so re-running a load against the
	// same cluster must not reuse client IDs (the committee's nonce
	// floors would swallow the restarted stream as duplicates).
	sessionBase := make([]uint64, lc.Clients)
	for cl := range sessionBase {
		sessionBase[cl] = c.NewSession()
	}
	var wg sync.WaitGroup
	for cl := 0; cl < lc.Clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			wcfg := lc.Workload
			wcfg.Seed = c.cfg.Seed*7919 + int64(cl)
			wcfg.Client = sessionBase[cl]
			gen := workload.NewGenerator(wcfg)
			var gw *gateway.Client
			if lc.ViaGateway {
				gw = c.GatewayClient(cl % c.cfg.GatewayClients)
			}
			for time.Now().Before(deadline) {
				tx := gen.Next()
				tx.SubmitUnixNano = time.Now().UnixNano()
				if gw != nil {
					_, _ = gw.SubmitWait(tx, lc.Timeout)
				} else {
					_ = c.SubmitWait(tx, lc.RetryEvery, lc.Timeout)
				}
			}
		}(cl)
	}
	wg.Wait()
	elapsed := time.Since(start)
	committed := c.commits.Value() - startCommits

	rep := Report{
		Mode: c.cfg.Mode, N: c.cfg.N, Duration: elapsed,
		Committed: committed,
		TPS:       metrics.Throughput(committed, elapsed),
		Latency:   c.latencies.Summarize(),
		Reconfigs: c.Reconfigurations(),
	}
	for _, n := range c.nodes {
		if n == nil {
			rep.NodeStats = append(rep.NodeStats, node.Stats{})
			continue
		}
		rep.NodeStats = append(rep.NodeStats, n.Stats())
	}
	return rep
}

// WaitEpochAtLeast polls until replica i reports an epoch ≥ e — the
// observable point at which a replica has joined (by transition or by
// snapshot epoch-jump) the given configuration.
func (c *Cluster) WaitEpochAtLeast(i int, e types.Epoch, timeout time.Duration) error {
	if c.nodes[i] == nil {
		return fmt.Errorf("cluster: replica %d is headless; it has no epoch to wait on", i)
	}
	deadline := time.Now().Add(timeout)
	var last types.Epoch
	for time.Now().Before(deadline) {
		if last = c.nodes[i].Stats().Epoch; last >= e {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("cluster: replica %d stuck at epoch %d (want ≥ %d) after %v", i, last, e, timeout)
}
