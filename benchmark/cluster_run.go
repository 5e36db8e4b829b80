package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"thunderbolt/internal/cluster"
	"thunderbolt/internal/gateway"
	"thunderbolt/internal/metrics"
	"thunderbolt/internal/node"
	"thunderbolt/internal/transport"
	"thunderbolt/internal/types"
	"thunderbolt/internal/workload"
)

// runOpts parameterizes one run of one workload.
type runOpts struct {
	Seed   int64
	Window time.Duration
	// WarmupTxs is how many transactions are committed before the live
	// heap is read and the window opens: caches, pools and the adaptive
	// batch controller settle on them, and none is measured.
	WarmupTxs int
	// SetupReps caps how often set-up is repeated for its median.
	SetupReps int
	// Trace selects the traced run: per-layer metrics, spans and the
	// message interceptor. End-to-end numbers come from untraced runs.
	Trace bool
	// OutDir receives trace files and holds the WAL directories.
	OutDir string
}

// runResult is one run's outcome.
type runResult struct {
	OK        bool
	Err       string
	Attempted uint64
	Failed    uint64
	// Samples is how many commits (exec-hot: batches) landed in the window.
	Samples int
	Metrics map[string]float64
}

const (
	submitRetry   = 2 * time.Second
	submitTimeout = 30 * time.Second
	quiesceWait   = 10 * time.Second
	// sliceTarget is the length of one slice of a traced window: tracing
	// is switched on for every other slice.
	sliceTarget = 500 * time.Millisecond
	// Set-up is repeated and its median reported: a single cold
	// construction varies far more than the system it measures.
	// It repeats until setupBudget is spent (but at least minSetups
	// times), and never more than runOpts.SetupReps times.
	minSetups   = 5
	setupBudget = 1500 * time.Millisecond
)

// sliceCount is how many slices the window is cut into: one for an
// untraced run, whose numbers are whole-window; an even number of
// sliceTarget-long ones for a traced run.
func sliceCount(o runOpts) int {
	if !o.Trace {
		return 1
	}
	return max(2, 2*int(o.Window/(2*sliceTarget)))
}

// edge is the process state at one slice boundary.
type edge struct {
	at          time.Time
	cpu         time.Duration
	mem         runtime.MemStats
	msgs, bytes uint64
	queue       uint64
	batch       uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func gcSettle() {
	// Two collections: sync.Pool contents survive one in the victim cache.
	runtime.GC()
	runtime.GC()
}

// sample is one completed SubmitWait.
type sample struct {
	end time.Duration // since load start
	lat time.Duration
}

// wireCounter counts what crosses the simulated network; installed as
// the SimNetwork interceptor in traced slices only (an installed
// interceptor makes the network clone every payload once more).
type wireCounter struct {
	msgs, bytes atomic.Uint64
}

func (c *wireCounter) intercept(_, _ types.ReplicaID, _ transport.MsgType, payload []byte) ([]byte, bool) {
	c.msgs.Add(1)
	c.bytes.Add(uint64(len(payload)))
	return payload, true
}

// ackTap wraps a gateway client's endpoint to time submit → first ack
// as the client sees it.
type ackTap struct {
	transport.Transport
	mu   sync.Mutex
	sent map[types.Digest]time.Time
	rtts []float64 // ms
}

func (t *ackTap) SetHandler(h transport.Handler) {
	t.Transport.SetHandler(func(from types.ReplicaID, mt transport.MsgType, payload []byte) {
		if mt == gateway.MsgTxAck {
			var a gateway.Ack
			if a.Unmarshal(payload) == nil {
				t.mu.Lock()
				if at, ok := t.sent[a.TxID]; ok {
					t.rtts = append(t.rtts, ms(time.Since(at)))
					delete(t.sent, a.TxID)
				}
				t.mu.Unlock()
			}
		}
		h(from, mt, payload)
	})
}

func (t *ackTap) note(id types.Digest, at time.Time) {
	t.mu.Lock()
	t.sent[id] = at
	t.mu.Unlock()
}

// testbed is one constructed, started cluster plus the way load enters it.
type testbed struct {
	c       *cluster.Cluster
	dataDir string
	gws     []*gateway.Client
	taps    []*ackTap
	gen     *workload.Generator
	genMu   sync.Mutex
}

func clusterConfig(w workloadSpec, seed int64, dataDir string) cluster.Config {
	cfg := cluster.Config{
		N: committee, Mode: node.ModeCE, Accounts: w.Accounts, Seed: seed,
		BatchSize: batchSize, Executors: execWorkers, Validators: execWorkers,
	}
	if w.WAN {
		cfg.Latency = transport.WANModel()
	}
	if w.Prod {
		cfg.SchemeName = "ed25519"
		cfg.DataDir = dataDir
		// The WAL is written but not fsync'd: with fsync on, this box's
		// disk moved tps by 27 % between identical runs (10 % without).
		// The traced run prices fsync on its own (storage.sync_ms).
		cfg.WALNoSync = true
		cfg.GatewayClients = prodGateways
	}
	return cfg
}

// newTestbed builds and starts the cluster, the gateway clients and
// the generator.
func newTestbed(w workloadSpec, o runOpts) (*testbed, error) {
	tb := &testbed{}
	if w.Prod {
		if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(o.OutDir, "wal-")
		if err != nil {
			return nil, err
		}
		tb.dataDir = dir
	}
	c, err := cluster.New(clusterConfig(w, o.Seed, tb.dataDir))
	if err != nil {
		tb.stop()
		return nil, err
	}
	tb.c = c
	c.Start()
	if w.Prod {
		for i := 0; i < prodGateways; i++ {
			var ep transport.Transport = c.Network().Endpoint(types.ReplicaID(committee + i))
			if o.Trace {
				tap := &ackTap{Transport: ep, sent: make(map[types.Digest]time.Time)}
				tb.taps = append(tb.taps, tap)
				ep = tap
			}
			gw, err := gateway.NewClient(gateway.ClientConfig{
				Transport: ep, N: committee, Session: c.NewSession(),
				AckTimeout: 250 * time.Millisecond, RetryEvery: 250 * time.Millisecond,
			})
			if err != nil {
				tb.stop()
				return nil, err
			}
			tb.gws = append(tb.gws, gw)
		}
	}
	// One generator for all callers: a generator per caller holds the
	// whole account table, which at 100k accounts is most of the heap.
	tb.gen = workload.NewGenerator(workload.Config{
		Accounts: w.Accounts, Shards: committee, Theta: w.Theta,
		ReadRatio: w.ReadRatio, CrossPct: w.CrossPct, Seed: o.Seed,
	})
	return tb, nil
}

// next draws the next generated transaction and stamps it with the
// caller's own dedup session.
func (tb *testbed) next(session, nonce uint64) *types.Transaction {
	tb.genMu.Lock()
	tx := tb.gen.Next()
	tb.genMu.Unlock()
	tx.Client, tx.Nonce = session, nonce
	tx.SubmitUnixNano = time.Now().UnixNano()
	return tx
}

func (tb *testbed) submit(caller int, tx *types.Transaction) error {
	if len(tb.gws) > 0 {
		_, err := tb.gws[caller%len(tb.gws)].SubmitWait(tx, submitTimeout)
		return err
	}
	return tb.c.SubmitWait(tx, submitRetry, submitTimeout)
}

func (tb *testbed) stop() {
	for _, gw := range tb.gws {
		gw.Close()
	}
	if tb.c != nil {
		tb.c.Stop()
	}
	if tb.dataDir != "" {
		_ = os.RemoveAll(tb.dataDir) // scratch WAL; a leftover is only disk
	}
}

// measureSetup builds the testbed repeatedly and returns the last one
// with the median construction time. Each testbed then commits one
// transaction, untimed, to show it works: on wan-single that first
// commit is 98 % injected delay and lands in one of two modes (0.47 s
// or 0.72 s), which made a set-up time that included it flip between
// them from run to run.
func measureSetup(w workloadSpec, o runOpts) (*testbed, float64, error) {
	reps := o.SetupReps
	if o.Trace {
		reps = 1
	}
	var secs []float64
	began := time.Now()
	for {
		t0 := time.Now()
		tb, err := newTestbed(w, o)
		if err != nil {
			return nil, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if err := tb.submit(0, tb.next(tb.c.NewSession(), 1)); err != nil {
			tb.stop()
			return nil, 0, fmt.Errorf("first commit: %w", err)
		}
		if len(secs) >= reps || (len(secs) >= minSetups && time.Since(began) >= setupBudget) {
			return tb, median(secs), nil
		}
		tb.stop()
		gcSettle()
	}
}

func runCluster(w workloadSpec, o runOpts) runResult {
	res := runResult{Metrics: map[string]float64{}}
	fail := func(err error) runResult {
		res.OK, res.Err = false, err.Error()
		return res
	}
	var rec *recorder
	root := -1
	if o.Trace {
		rec = newRecorder()
		root = rec.open("cluster.run", -1, 0, 0)
	}

	setupAt := time.Now()
	tb, setupS, err := measureSetup(w, o)
	if err != nil {
		return fail(fmt.Errorf("set-up: %w", err))
	}
	defer tb.stop()
	if rec != nil {
		rec.add("cluster.setup", setupAt, time.Now(), root, 0, 0)
	}
	c := tb.c

	nSlices := sliceCount(o)
	sliceDur := o.Window / time.Duration(nSlices)

	var (
		wire     wireCounter
		tracing  atomic.Bool
		attempts atomic.Uint64
		failures atomic.Uint64
	)
	perCaller := make([][]sample, w.Clients)
	loadStart := time.Now()
	loadSpan := -1
	if rec != nil {
		loadSpan = rec.open("cluster.load", root, 0, 0)
	}

	// Callers first share a fixed budget of warm-up transactions, then
	// wait for the window to open and send until its deadline.
	var (
		warmLeft atomic.Int64
		warmed   sync.WaitGroup
		open     = make(chan struct{})
		deadline time.Time // set before open is closed
		wg       sync.WaitGroup
	)
	warmLeft.Store(int64(o.WarmupTxs))
	for cl := 0; cl < w.Clients; cl++ {
		wg.Add(1)
		warmed.Add(1)
		go func(cl int) {
			defer wg.Done()
			session := c.NewSession()
			var tap *ackTap
			if len(tb.taps) > 0 {
				tap = tb.taps[cl%len(tb.taps)]
			}
			nonce := uint64(0)
			// one submits the caller's next transaction and waits for its commit.
			one := func(start time.Time, measured bool) {
				nonce++
				tx := tb.next(session, nonce)
				traced := measured && tracing.Load()
				if traced && tap != nil {
					tap.note(tx.ID(), start)
				}
				attempts.Add(1)
				err := tb.submit(cl, tx)
				end := time.Now()
				if err != nil {
					failures.Add(1)
					return
				}
				if measured {
					perCaller[cl] = append(perCaller[cl], sample{end: end.Sub(loadStart), lat: end.Sub(start)})
				}
				if traced {
					rec.add("cluster.submit_wait", start, end, loadSpan, uint64(cl)<<32|nonce, cl+1)
				}
			}
			for warmLeft.Add(-1) >= 0 {
				one(time.Now(), false)
			}
			warmed.Done()
			<-open
			for start := time.Now(); start.Before(deadline); start = time.Now() {
				one(start, true)
			}
		}(cl)
	}

	// The sampler reads process and node counters at each slice
	// boundary; in a traced run it also switches tracing on for the
	// even slices, so traced and untraced throughput are measured side
	// by side under the same neighbours.
	readEdge := func() edge {
		e := edge{at: time.Now(), cpu: cpuTime(), msgs: wire.msgs.Load(), bytes: wire.bytes.Load()}
		runtime.ReadMemStats(&e.mem)
		for i := 0; i < c.N(); i++ {
			st := c.Node(i).Stats()
			e.queue += st.QueueLen
			e.batch += st.BatchSize
		}
		return e
	}
	// The live heap is read after warm-up's fixed amount of work: a
	// reading at the end of the window would grow with every
	// transaction a faster system commits in it.
	warmed.Wait()
	gcSettle()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	measureStart := time.Now()
	deadline = measureStart.Add(o.Window)
	close(open)

	edges := make([]edge, 0, nSlices+1)
	var statsStart []node.Stats
	for i := 0; i <= nSlices; i++ {
		time.Sleep(time.Until(measureStart.Add(time.Duration(i) * sliceDur)))
		if o.Trace {
			on := i < nSlices && i%2 == 0
			if on {
				c.Network().SetInterceptor(wire.intercept)
			} else {
				c.Network().SetInterceptor(nil)
			}
			tracing.Store(on)
		}
		if i == 0 {
			statsStart = nodeStats(c)
		}
		edges = append(edges, readEdge())
	}
	statsEnd := nodeStats(c)
	wg.Wait()
	if rec != nil {
		rec.close(loadSpan)
	}

	// Correctness: every replica reaches the same commit count and the
	// same state.
	quiesceAt := time.Now()
	if err := c.WaitCommitCountsEqual(quiesceWait); err != nil {
		return fail(err)
	}
	quiesced := time.Now()
	if err := c.Converged(); err != nil {
		return fail(err)
	}
	if rec != nil {
		rec.add("cluster.quiesce", quiesceAt, quiesced, root, 0, 0)
		rec.add("cluster.converged", quiesced, time.Now(), root, 0, 0)
	}

	res.Attempted, res.Failed = attempts.Load()+1, failures.Load() // +1: the set-up commit
	sl := cutSlices(perCaller, edges, loadStart)
	all := total(sl)
	res.Samples = all.n
	if all.n == 0 {
		return fail(errors.New("no transaction committed inside the measured window"))
	}

	m := res.Metrics
	if !o.Trace {
		m["setup_s"] = setupS
		m["live_heap_mb"] = float64(live.HeapAlloc) / (1 << 20)
		all.endToEnd(m)
		res.OK = true
		return res
	}

	// Traced run: the cluster's own layers first, then each layer alone.
	traced, plain := splitTraced(sl)
	var queue, batch float64
	for _, s := range sl {
		queue += float64(s.queue) / float64(len(sl))
		batch += float64(s.batch) / float64(len(sl))
	}
	d := diffStats(statsStart, statsEnd)
	committed := float64(d.CommittedTxs) / committee // every replica counts every commit
	blocks := float64(d.RoundsProposed - d.SkipBlocks)

	m["cluster.nacks_per_tx"] = ratio(float64(c.Nacks()), float64(res.Attempted))
	m["cluster.quiesce_ms"] = ms(quiesced.Sub(quiesceAt))
	m["cluster.commit_p99_ms"] = quantile(all.lats, 0.99)
	m["node.msgs_per_tx"] = ratio(float64(traced.msgs), float64(traced.n))
	m["node.bytes_per_tx"] = ratio(float64(traced.wireBytes), float64(traced.n))
	m["node.txs_per_block"] = ratio(committed, blocks)
	m["node.batch_size"] = batch / committee
	m["node.rounds_per_s"] = ratio(float64(d.Round), all.dur.Seconds())
	m["node.skip_block_ratio"] = ratio(float64(d.SkipBlocks), float64(d.RoundsProposed))
	m["node.spec_hit_rate"] = ratio(float64(d.SpecHits), float64(d.SpecHits+d.SpecMisses))
	m["node.spec_wasted_per_tx"] = ratio(float64(d.SpecWastedTxs)/committee, committed)
	m["node.reexec_per_tx"] = ratio(float64(d.Reexecutions), committed)
	m["node.validation_fail_ratio"] = ratio(float64(d.ValidationFailures)/committee, blocks)
	m["node.converted_cross_ratio"] = ratio(float64(d.ConvertedToCross), committed)
	m["node.queue_len"] = queue / committee
	for stage, name := range map[string]string{
		metrics.StageProposeCertify: "node.stage_propose_certify_p50_ms",
		metrics.StageCertifyCommit:  "node.stage_certify_commit_p50_ms",
		metrics.StageCommitExecute:  "node.stage_commit_execute_p50_ms",
		metrics.StageSubmitAck:      "node.stage_submit_ack_p50_ms",
	} {
		m[name] = ms(c.MergedHistogram(stage).Quantile(0.50))
	}
	var rtts []float64
	for _, t := range tb.taps {
		t.mu.Lock()
		rtts = append(rtts, t.rtts...)
		t.mu.Unlock()
	}
	m["gateway.submit_rtt_p50_ms"] = median(rtts)
	m["harness.trace_overhead_ratio"] = ratio(traced.tps(), plain.tps())
	first, last := edges[0].mem, edges[nSlices].mem
	m["harness.gc_pause_ms_per_s"] = ratio(float64(last.PauseTotalNs-first.PauseTotalNs)/1e6, all.dur.Seconds())
	m["harness.gc_cycles_per_s"] = ratio(float64(last.NumGC-first.NumGC), all.dur.Seconds())

	frame := 256
	if n := wire.msgs.Load(); n > 0 {
		frame = int(wire.bytes.Load() / n)
	}
	tb.stop() // the layer pass wants the processor to itself
	rec.close(root)
	if err := layerPass(w, o, rec, frame, m); err != nil {
		return fail(err)
	}
	res.OK = true
	return res
}

func nodeStats(c *cluster.Cluster) []node.Stats {
	out := make([]node.Stats, c.N())
	for i := range out {
		out[i] = c.Node(i).Stats()
	}
	return out
}

// diffStats sums the window's counter deltas across replicas; Round is
// the largest round advance any replica made.
func diffStats(a, b []node.Stats) node.Stats {
	var d node.Stats
	for i := range a {
		d.CommittedTxs += b[i].CommittedTxs - a[i].CommittedTxs
		d.RoundsProposed += b[i].RoundsProposed - a[i].RoundsProposed
		d.SkipBlocks += b[i].SkipBlocks - a[i].SkipBlocks
		d.SpecHits += b[i].SpecHits - a[i].SpecHits
		d.SpecMisses += b[i].SpecMisses - a[i].SpecMisses
		d.SpecWastedTxs += b[i].SpecWastedTxs - a[i].SpecWastedTxs
		d.Reexecutions += b[i].Reexecutions - a[i].Reexecutions
		d.ValidationFailures += b[i].ValidationFailures - a[i].ValidationFailures
		d.ConvertedToCross += b[i].ConvertedToCross - a[i].ConvertedToCross
		if r := b[i].Round - a[i].Round; r > d.Round {
			d.Round = r
		}
	}
	return d
}

// slice is what happened between two consecutive edges.
type slice struct {
	dur             time.Duration
	n               int
	lats            []float64 // ms, sorted
	cpu             time.Duration
	mallocs         uint64
	allocBytes      uint64
	msgs, wireBytes uint64
	queue, batch    uint64 // gauges read at the slice's end
}

// cutSlices assigns every sample to the slice its commit landed in;
// samples from warm-up or after the window are dropped.
func cutSlices(perCaller [][]sample, edges []edge, loadStart time.Time) []slice {
	out := make([]slice, len(edges)-1)
	bounds := make([]time.Duration, len(edges))
	for i, e := range edges {
		bounds[i] = e.at.Sub(loadStart)
	}
	for i := range out {
		a, b := edges[i], edges[i+1]
		out[i] = slice{
			dur: b.at.Sub(a.at), cpu: b.cpu - a.cpu,
			mallocs: b.mem.Mallocs - a.mem.Mallocs, allocBytes: b.mem.TotalAlloc - a.mem.TotalAlloc,
			msgs: b.msgs - a.msgs, wireBytes: b.bytes - a.bytes,
			queue: b.queue, batch: b.batch,
		}
	}
	for _, ss := range perCaller {
		for _, s := range ss {
			// First boundary after the sample's end; slice is the one before.
			i := sort.Search(len(bounds), func(i int) bool { return bounds[i] > s.end }) - 1
			if i < 0 || i >= len(out) {
				continue
			}
			out[i].n++
			out[i].lats = append(out[i].lats, ms(s.lat))
		}
	}
	for i := range out {
		sort.Float64s(out[i].lats)
	}
	return out
}

// total merges consecutive slices into one.
func total(sl []slice) slice {
	var t slice
	for _, s := range sl {
		t.dur += s.dur
		t.n += s.n
		t.lats = append(t.lats, s.lats...)
		t.cpu += s.cpu
		t.mallocs += s.mallocs
		t.allocBytes += s.allocBytes
		t.msgs += s.msgs
		t.wireBytes += s.wireBytes
	}
	sort.Float64s(t.lats)
	return t
}

// splitTraced merges a traced window's even slices (tracing on) and
// its odd ones (tracing off).
func splitTraced(sl []slice) (traced, plain slice) {
	var on, off []slice
	for i, s := range sl {
		if i%2 == 0 {
			on = append(on, s)
		} else {
			off = append(off, s)
		}
	}
	return total(on), total(off)
}

func (s slice) tps() float64 { return ratio(float64(s.n), s.dur.Seconds()) }

// endToEnd fills in the end-to-end metrics a window's commits define.
func (s slice) endToEnd(m map[string]float64) {
	n := float64(s.n)
	m["tps"] = s.tps()
	m["commit_p50_ms"] = quantile(s.lats, 0.50)
	m["commit_p95_ms"] = quantile(s.lats, 0.95)
	m["cpu_us_per_tx"] = ratio(us(s.cpu), n)
	m["allocs_per_tx"] = ratio(float64(s.mallocs), n)
	m["alloc_kb_per_tx"] = ratio(float64(s.allocBytes)/1024, n)
}
