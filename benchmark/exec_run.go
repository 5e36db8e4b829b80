package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"thunderbolt/internal/ce"
	"thunderbolt/internal/contract"
	"thunderbolt/internal/depgraph"
	"thunderbolt/internal/storage"
	"thunderbolt/internal/types"
	"thunderbolt/internal/validate"
	"thunderbolt/internal/workload"
)

// evmCost is the synthetic per-access execution cost, in SHA-256
// rounds: it stands in for EVM interpretation so that executor numbers
// measure conflict handling rather than bookkeeping constants.
const evmCost = 16

// costlyState burns the synthetic cost and yields at every state
// access; the yield reproduces multi-core interleaving on few cores,
// which is what exposes concurrency-control conflicts.
type costlyState struct{ inner contract.State }

func burn() {
	var b [32]byte
	for i := 0; i < evmCost; i++ {
		b = sha256.Sum256(b[:])
	}
}

func (s costlyState) Read(k types.Key) (types.Value, error) {
	burn()
	runtime.Gosched()
	return s.inner.Read(k)
}

func (s costlyState) Write(k types.Key, v types.Value) error {
	burn()
	runtime.Gosched()
	return s.inner.Write(k, v)
}

func smallBank() *contract.Registry {
	reg := contract.NewRegistry()
	workload.RegisterSmallBank(reg)
	return reg
}

// costlySmallBank wraps every SmallBank contract in costlyState.
func costlySmallBank() *contract.Registry {
	inner := smallBank()
	outer := contract.NewRegistry()
	for _, name := range inner.Names() {
		c, _ := inner.Lookup(name)
		outer.MustRegister(contract.Func{ContractName: name, Fn: func(st contract.State, args [][]byte) error {
			return c.Execute(costlyState{inner: st}, args)
		}})
	}
	return outer
}

// storeState runs a contract straight against a store: the serial
// reference the concurrent result is checked against.
type storeState struct{ s *storage.Store }

func (s storeState) Read(k types.Key) (types.Value, error) {
	v, _ := s.s.Get(k)
	return v, nil
}

func (s storeState) Write(k types.Key, v types.Value) error {
	s.s.Set(k, v)
	return nil
}

const execBalance = 1_000_000

// execBed is the executor pipeline: preplay → validate → apply, plus a
// shadow store that replays each returned schedule serially.
type execBed struct {
	reg, plain *contract.Registry
	store      *storage.Store
	shadow     *storage.Store
	sess       *ce.Session
	gen        *workload.Generator
}

func newExecBed(w workloadSpec, seed int64) *execBed {
	b := &execBed{reg: costlySmallBank(), plain: smallBank(), store: storage.New(), shadow: storage.New()}
	workload.InitAccounts(b.store, w.Accounts, execBalance, execBalance)
	workload.InitAccounts(b.shadow, w.Accounts, execBalance, execBalance)
	b.sess = ce.New(ce.Config{Executors: execWorkers, Registry: b.reg}).NewSession()
	b.gen = workload.NewGenerator(workload.Config{
		Accounts: w.Accounts, Shards: 1, Theta: w.Theta, ReadRatio: w.ReadRatio, Seed: seed, Client: 1,
	})
	return b
}

func (b *execBed) base(k types.Key) types.Value {
	v, _ := b.store.Get(k)
	return v
}

// batchTiming is one batch through the pipeline.
type batchTiming struct {
	start, preplayed, validated, applied time.Time
	txs                                  int
	cpu                                  time.Duration
	mallocs, allocBytes                  uint64
}

var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

// allocCounters reads the cumulative heap allocation counters without
// stopping the world (runtime.ReadMemStats would, once per batch).
func allocCounters() (objects, bytes uint64) {
	metrics.Read(allocSamples)
	return allocSamples[0].Value.Uint64(), allocSamples[1].Value.Uint64()
}

// batch generates one batch, times it through preplay → validate →
// apply, and then — outside the timed part — replays the returned
// schedule serially on the shadow store. rec may be nil.
func (b *execBed) batch(rec *recorder, parent int) (batchTiming, error) {
	txs := b.gen.Batch(batchSize)
	var t batchTiming
	o0, b0 := allocCounters()
	c0 := cpuTime()
	t.start = time.Now()
	res := b.sess.ExecuteBatch(depgraph.BaseReader(b.base), txs)
	t.preplayed = time.Now()
	v, err := validate.ValidateBatch(b.reg, b.base, res.Schedule, res.Results, execWorkers)
	t.validated = time.Now()
	if err != nil {
		return t, fmt.Errorf("validator rejects the executor's own result: %w", err)
	}
	b.store.Apply(v.Writes)
	t.applied = time.Now()
	t.cpu = cpuTime() - c0
	o1, b1 := allocCounters()
	t.mallocs, t.allocBytes = o1-o0, b1-b0
	t.txs = len(res.Schedule)
	if len(res.Failed) > 0 {
		return t, fmt.Errorf("%d transactions failed in preplay: %v", len(res.Failed), res.Failed[0].Err)
	}
	for _, tx := range res.Schedule {
		c, ok := b.plain.Lookup(tx.Contract)
		if !ok {
			return t, fmt.Errorf("unknown contract %q", tx.Contract)
		}
		if err := c.Execute(storeState{b.shadow}, tx.Args); err != nil {
			return t, fmt.Errorf("serial replay: %w", err)
		}
	}
	if rec != nil {
		id := rec.add("batch", t.start, t.applied, parent, 0, 0)
		rec.add("ce.preplay", t.start, t.preplayed, id, 0, 0)
		rec.add("validate.batch", t.preplayed, t.validated, id, 0, 0)
		rec.add("storage.apply", t.validated, t.applied, id, 0, 0)
	}
	return t, nil
}

// replayAgrees checks that serial replay of every returned schedule
// reproduced the state the concurrent pipeline built.
func (b *execBed) replayAgrees() error {
	got, want := b.store.Snapshot(), b.shadow.Snapshot()
	if len(got) != len(want) {
		return fmt.Errorf("serial replay holds %d keys, pipeline %d", len(want), len(got))
	}
	for k, v := range want {
		if !got[k].Equal(v) {
			return fmt.Errorf("serial replay disagrees at %s: %q vs %q", k, v, got[k])
		}
	}
	return nil
}

func runExec(w workloadSpec, o runOpts) runResult {
	res := runResult{Metrics: map[string]float64{}}
	fail := func(err error) runResult {
		res.OK, res.Err = false, err.Error()
		return res
	}
	var rec *recorder
	root := -1
	if o.Trace {
		rec = newRecorder()
		root = rec.open("exec.run", -1, 0, 0)
	}

	reps := o.SetupReps
	if o.Trace {
		reps = 1
	}
	var (
		bed    *execBed
		setups []float64
	)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		bed = newExecBed(w, o.Seed)
		setups = append(setups, time.Since(t0).Seconds())
	}

	for done := 0; done < o.WarmupTxs; done += batchSize {
		if _, err := bed.batch(nil, -1); err != nil {
			return fail(err)
		}
	}

	// Live heap is read where the cluster workloads read it: after
	// warm-up, before the window.
	gcSettle()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)

	// The window is cut by wall time like a cluster workload's, but a
	// slice holds only the timed part of each batch: generation and the
	// serial replay are the harness's work, not the pipeline's.
	nSlices := sliceCount(o)
	sliceDur := o.Window / time.Duration(nSlices)
	sl := make([]slice, nSlices)
	start := time.Now()
	for {
		i := int(time.Since(start) / sliceDur)
		if i >= nSlices {
			break
		}
		var r *recorder
		if o.Trace && i%2 == 0 {
			r = rec
		}
		t, err := bed.batch(r, root)
		res.Attempted += batchSize
		if err != nil {
			res.Failed += batchSize
			return fail(err)
		}
		s := &sl[i]
		s.dur += t.applied.Sub(t.start)
		s.n += t.txs
		s.lats = append(s.lats, ms(t.applied.Sub(t.start)))
		s.cpu += t.cpu
		s.mallocs += t.mallocs
		s.allocBytes += t.allocBytes
	}
	window := time.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	all := total(sl)
	res.Samples = len(all.lats)
	if all.n == 0 {
		return fail(errors.New("no transaction committed inside the measured window"))
	}
	if err := bed.replayAgrees(); err != nil {
		return fail(err)
	}

	m := res.Metrics
	if !o.Trace {
		m["setup_s"] = median(setups)
		m["live_heap_mb"] = float64(live.HeapAlloc) / (1 << 20)
		// Every transaction of a batch commits when the batch is applied,
		// so the batch time is each one's submit → commit time.
		all.endToEnd(m)
		res.OK = true
		return res
	}

	for _, mt := range perLayer {
		m[mt.Name] = 0 // cluster, node and gateway do no work here
	}
	traced, plain := splitTraced(sl)
	m["harness.trace_overhead_ratio"] = ratio(traced.tps(), plain.tps())
	m["harness.gc_pause_ms_per_s"] = ratio(float64(after.PauseTotalNs-live.PauseTotalNs)/1e6, window.Seconds())
	m["harness.gc_cycles_per_s"] = ratio(float64(after.NumGC-live.NumGC), window.Seconds())
	rec.close(root)
	if err := layerPass(w, o, rec, 0, m); err != nil {
		return fail(err)
	}
	res.OK = true
	return res
}
