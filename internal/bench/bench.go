// Package bench regenerates every table and figure of the paper's
// evaluation (§11–§12). Each FigNN function runs the experiment and
// returns rows matching the series the paper plots; cmd/bench and the
// root bench_test.go drive them.
//
// Absolute numbers depend on the host (the paper used one AWS
// c5.9xlarge per replica; this harness colocates every replica in one
// process), so EXPERIMENTS.md compares shapes: who wins, by what
// factor, and where curves cross.
package bench

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"thunderbolt/internal/ce"
	"thunderbolt/internal/cluster"
	"thunderbolt/internal/contract"
	"thunderbolt/internal/depgraph"
	"thunderbolt/internal/node"
	"thunderbolt/internal/occ"
	"thunderbolt/internal/storage"
	"thunderbolt/internal/tpl"
	"thunderbolt/internal/transport"
	"thunderbolt/internal/types"
	"thunderbolt/internal/workload"
)

// Row is one data point of one figure series.
type Row struct {
	Figure    string
	Series    string
	X         string
	TPS       float64
	LatencyMS float64
	// Reexec is the mean number of re-executions per transaction
	// (Figures 11's abort metric); NaN-free zero when not measured.
	Reexec float64
}

// Options tunes run length. Quick shrinks sweeps for CI; Full is the
// paper-shaped sweep.
type Options struct {
	Quick bool
	// Seed decorrelates repeated runs.
	Seed int64
}

// workFactor adds deterministic CPU cost around every state access,
// standing in for EVM interpretation overhead (the paper executes
// inside eEVM). Without it, native SmallBank is so cheap that
// coordination hides execution entirely: at ~16 hashes per access one
// state touch costs a few microseconds, which is still well below an
// interpreted SLOAD but enough that executor comparisons measure
// conflict handling rather than raw bookkeeping constants.
const workFactor = 16

func spin() {
	var b [32]byte
	for i := 0; i < workFactor; i++ {
		b = sha256.Sum256(b[:])
	}
	_ = b
}

// yieldState interposes on contract state accesses: it burns the
// synthetic EVM cost and yields the processor at every access
// boundary. The yield matters on small hosts: true multi-core
// interleaving is what exposes concurrency-control conflicts, and
// cooperative yields reproduce that interleaving faithfully when
// replicas are colocated on few cores (see EXPERIMENTS.md, setup
// notes).
type yieldState struct{ inner contract.State }

func (y yieldState) Read(k types.Key) (types.Value, error) {
	spin()
	runtime.Gosched()
	return y.inner.Read(k)
}

func (y yieldState) Write(k types.Key, v types.Value) error {
	spin()
	runtime.Gosched()
	return y.inner.Write(k, v)
}

// slowRegistry wraps every SmallBank contract with the synthetic
// execution cost and access-boundary yields.
func slowRegistry() *contract.Registry {
	inner := contract.NewRegistry()
	workload.RegisterSmallBank(inner)
	outer := contract.NewRegistry()
	for _, name := range inner.Names() {
		c, _ := inner.Lookup(name)
		cc := c
		outer.MustRegister(contract.Func{ContractName: name, Fn: func(st contract.State, args [][]byte) error {
			return cc.Execute(yieldState{inner: st}, args)
		}})
	}
	return outer
}

// --- Executor-level experiments (Figures 11 and 12) ---

// execProto names the three §11 protocols.
type execProto string

const (
	protoCE  execProto = "Thunderbolt"
	protoOCC execProto = "OCC"
	protoTPL execProto = "2PL-NoWait"
)

// runExecutorBench runs `batches` batches of `batch` transactions
// through one protocol and reports throughput, mean per-batch
// latency, mean re-executions per transaction, and the committed
// count.
func runExecutorBench(p execProto, executors, batch, accounts int, theta, pr float64,
	batches int, seed int64) (tps, latencyMS, reexec float64, total int) {
	reg := slowRegistry()
	store := storage.New()
	workload.InitAccounts(store, accounts, 10_000, 10_000)
	gen := workload.NewGenerator(workload.Config{
		Accounts: accounts, Shards: 1, Theta: theta, ReadRatio: pr, Seed: seed, Client: 1,
	})
	base := func(k types.Key) types.Value {
		v, _ := store.Get(k)
		return v
	}

	// Executors are hoisted out of the batch loop, as in a real
	// proposer: the CE session keeps its graph arena warm and carries
	// each batch's committed tips into the next (the applied writes
	// below are exactly those tips, so the carry stays truthful).
	var (
		committed int
		rexecs    uint64
		elapsed   time.Duration
	)
	ceSess := ce.New(ce.Config{Executors: executors, Registry: reg}).NewSession()
	occExec := occ.New(occ.Config{Executors: executors, Registry: reg})
	tplExec := tpl.New(tpl.Config{Executors: executors, Registry: reg})
	for b := 0; b < batches; b++ {
		txs := gen.Batch(batch)
		start := time.Now()
		switch p {
		case protoCE:
			res := ceSess.ExecuteBatch(depgraph.BaseReader(base), txs)
			elapsed += time.Since(start)
			committed += len(res.Schedule)
			rexecs += res.Reexecutions
			// Persist so the next batch builds on it, like a proposer's
			// speculative state.
			var writes []types.RWRecord
			for i := range res.Results {
				writes = append(writes, res.Results[i].WriteSet...)
			}
			store.Apply(writes)
		case protoOCC:
			res := occExec.ExecuteBatch(store, txs)
			elapsed += time.Since(start)
			committed += len(res.Schedule)
			rexecs += res.Reexecutions
		case protoTPL:
			res := tplExec.ExecuteBatch(store, txs)
			elapsed += time.Since(start)
			committed += len(res.Schedule)
			rexecs += res.Reexecutions
		}
	}
	if committed == 0 || elapsed == 0 {
		return 0, 0, 0, 0
	}
	tps = float64(committed) / elapsed.Seconds()
	latencyMS = (elapsed / time.Duration(batches)).Seconds() * 1000
	reexec = float64(rexecs) / float64(committed)
	return tps, latencyMS, reexec, committed
}

func executorSweep(fig string, pr float64, opt Options) []Row {
	executors := []int{1, 4, 8, 12, 16}
	batches := 8
	if opt.Quick {
		executors = []int{1, 4, 8, 16}
		batches = 3
	}
	var rows []Row
	for _, bsz := range []int{300, 500} {
		for _, p := range []execProto{protoCE, protoOCC, protoTPL} {
			series := fmt.Sprintf("%s-b%d", p, bsz)
			for _, ex := range executors {
				tps, lat, re, _ := runExecutorBench(p, ex, bsz, 10_000, 0.85, pr, batches, opt.Seed+int64(ex))
				rows = append(rows, Row{Figure: fig, Series: series,
					X: fmt.Sprintf("%d", ex), TPS: tps, LatencyMS: lat, Reexec: re})
			}
		}
	}
	return rows
}

// Fig11a: read-write balanced workload (Pr = 0.5), executors 1–16.
func Fig11a(opt Options) []Row { return executorSweep("11a", 0.5, opt) }

// Fig11b: update-only workload (Pr = 0), executors 1–16.
func Fig11b(opt Options) []Row { return executorSweep("11b", 0.0, opt) }

// Fig12 sweeps θ (a,b) at Pr=0.5 and Pr (c,d) at θ=0.85, with the
// paper's two batch sizes and the peak executor count.
func Fig12(opt Options) []Row {
	executors := 16
	batches := 8
	if opt.Quick {
		batches = 3
	}
	var rows []Row
	thetas := []float64{0.75, 0.80, 0.85, 0.90}
	prs := []float64{1, 0.8, 0.5, 0.1, 0}
	for _, bsz := range []int{300, 500} {
		for _, p := range []execProto{protoCE, protoOCC, protoTPL} {
			series := fmt.Sprintf("%s-b%d", p, bsz)
			for _, th := range thetas {
				tps, lat, re, _ := runExecutorBench(p, executors, bsz, 10_000, th, 0.5, batches, opt.Seed)
				rows = append(rows, Row{Figure: "12ab", Series: series,
					X: fmt.Sprintf("θ=%.2f", th), TPS: tps, LatencyMS: lat, Reexec: re})
			}
			for _, pr := range prs {
				tps, lat, re, _ := runExecutorBench(p, executors, bsz, 10_000, 0.85, pr, batches, opt.Seed)
				rows = append(rows, Row{Figure: "12cd", Series: series,
					X: fmt.Sprintf("Pr=%.1f", pr), TPS: tps, LatencyMS: lat, Reexec: re})
			}
		}
	}
	return rows
}

// --- System-level experiments (Figures 13–17) ---

// runCluster spins up a committee, drives closed-loop load, and
// returns the report.
func runCluster(cfg cluster.Config, lc cluster.LoadConfig) (cluster.Report, *cluster.Cluster, error) {
	c, err := cluster.New(cfg)
	if err != nil {
		return cluster.Report{}, nil, err
	}
	c.Start()
	rep := c.RunLoad(lc)
	return rep, c, nil
}

func modeName(m node.ExecutionMode) string {
	switch m {
	case node.ModeCE:
		return "Thunderbolt"
	case node.ModeOCC:
		return "Thunderbolt-OCC"
	default:
		return "Tusk"
	}
}

// Fig13 scales the committee over LAN and WAN latency models for the
// three systems.
func Fig13(opt Options) []Row {
	ns := []int{8, 16, 32, 64}
	dur := 4 * time.Second
	nets := []struct {
		name string
		lm   transport.LatencyModel
	}{{"LAN", transport.LANModel()}, {"WAN", transport.WANModel()}}
	if opt.Quick {
		ns = []int{4, 8, 16}
		dur = 1500 * time.Millisecond
		nets = nets[:1]
	}
	var rows []Row
	for _, net := range nets {
		for _, m := range []node.ExecutionMode{node.ModeCE, node.ModeOCC, node.ModeSerial} {
			for _, n := range ns {
				rep, c, err := runCluster(cluster.Config{
					N: n, Mode: m, Latency: net.lm, Accounts: 1000,
					BatchSize: 500, Executors: 16, Validators: 16, Seed: opt.Seed,
				}, cluster.LoadConfig{
					Duration: dur, Clients: 8 * n,
					Workload:   workload.Config{Theta: 0.85, ReadRatio: 0.5},
					RetryEvery: 5 * time.Second, Timeout: 60 * time.Second,
				})
				if err != nil {
					continue
				}
				c.Stop()
				rows = append(rows, Row{Figure: "13-" + net.name, Series: modeName(m),
					X: fmt.Sprintf("%d", n), TPS: rep.TPS,
					LatencyMS: rep.Latency.Mean.Seconds() * 1000})
			}
		}
	}
	return rows
}

// Fig14 sweeps the cross-shard percentage on a 16-replica committee.
func Fig14(opt Options) []Row {
	n := 16
	dur := 4 * time.Second
	pcts := []float64{0, 0.04, 0.08, 0.20, 0.60, 1.00}
	if opt.Quick {
		n = 8
		dur = 1500 * time.Millisecond
		pcts = []float64{0, 0.08, 0.60, 1.00}
	}
	var rows []Row
	for _, m := range []node.ExecutionMode{node.ModeCE, node.ModeOCC, node.ModeSerial} {
		for _, p := range pcts {
			rep, c, err := runCluster(cluster.Config{
				N: n, Mode: m, Accounts: 1000,
				BatchSize: 500, Executors: 16, Validators: 16, Seed: opt.Seed,
			}, cluster.LoadConfig{
				Duration: dur, Clients: 8 * n,
				Workload:   workload.Config{Theta: 0.85, ReadRatio: 0.5, CrossPct: p},
				RetryEvery: 5 * time.Second, Timeout: 60 * time.Second,
			})
			if err != nil {
				continue
			}
			c.Stop()
			rows = append(rows, Row{Figure: "14", Series: modeName(m),
				X: fmt.Sprintf("%.0f%%", p*100), TPS: rep.TPS,
				LatencyMS: rep.Latency.Mean.Seconds() * 1000})
		}
	}
	return rows
}

// Fig15 sweeps the reconfiguration period K' on an 8-replica committee.
func Fig15(opt Options) []Row {
	kprimes := []int{10, 100, 500, 1000, 5000}
	dur := 4 * time.Second
	if opt.Quick {
		kprimes = []int{10, 100, 1000}
		dur = 1500 * time.Millisecond
	}
	var rows []Row
	for _, kp := range kprimes {
		rep, c, err := runCluster(cluster.Config{
			N: 8, Mode: node.ModeCE, Accounts: 1000,
			BatchSize: 500, Executors: 16, Validators: 16,
			KPrime: kp, Seed: opt.Seed,
		}, cluster.LoadConfig{
			Duration: dur, Clients: 64,
			Workload:   workload.Config{Theta: 0.85, ReadRatio: 0.5},
			RetryEvery: 1 * time.Second, Timeout: 60 * time.Second,
		})
		if err != nil {
			continue
		}
		c.Stop()
		rows = append(rows, Row{Figure: "15", Series: "Thunderbolt",
			X: fmt.Sprintf("K'=%d", kp), TPS: rep.TPS,
			LatencyMS: rep.Latency.Mean.Seconds() * 1000})
	}
	return rows
}

// Fig16 runs with K'=300 and reports the mean commit-wave runtime per
// bucket of 100 waves, demonstrating commits never stall across
// reconfigurations.
func Fig16(opt Options) []Row {
	dur := 8 * time.Second
	kp := 300
	if opt.Quick {
		dur = 2 * time.Second
		kp = 60
	}
	c, err := cluster.New(cluster.Config{
		N: 8, Mode: node.ModeCE, Accounts: 1000,
		BatchSize: 500, Executors: 16, Validators: 16,
		KPrime: kp, Seed: opt.Seed,
	})
	if err != nil {
		return nil
	}
	c.Start()
	_ = c.RunLoad(cluster.LoadConfig{
		Duration: dur, Clients: 64,
		Workload:   workload.Config{Theta: 0.85, ReadRatio: 0.5},
		RetryEvery: 1 * time.Second, Timeout: 60 * time.Second,
	})
	reconfigs := c.Reconfigurations()
	buckets := c.WaveSeries().BucketMeans(100)
	c.Stop()
	var rows []Row
	for i, mean := range buckets {
		rows = append(rows, Row{Figure: "16", Series: fmt.Sprintf("runtime (K'=%d, %d reconfigs)", kp, reconfigs),
			X: fmt.Sprintf("waves %d-%d", i*100, i*100+99), LatencyMS: mean * 1000})
	}
	return rows
}

// Fig17 repeats the cross-shard sweep with f crashed replicas.
func Fig17(opt Options) []Row {
	n := 16
	dur := 4 * time.Second
	pcts := []float64{0, 0.04, 0.08, 0.20, 0.60, 1.00}
	fails := []int{1, 2}
	if opt.Quick {
		n = 8
		dur = 1500 * time.Millisecond
		pcts = []float64{0, 0.20, 1.00}
		fails = []int{1}
	}
	var rows []Row
	for _, f := range fails {
		for _, p := range pcts {
			c, err := cluster.New(cluster.Config{
				N: n, Mode: node.ModeCE, Accounts: 1000,
				BatchSize: 500, Executors: 16, Validators: 16,
				K: 20, Seed: opt.Seed,
			})
			if err != nil {
				continue
			}
			c.Start()
			for i := 0; i < f; i++ {
				c.Network().Crash(types.ReplicaID(n - 1 - i))
			}
			rep := c.RunLoad(cluster.LoadConfig{
				Duration: dur, Clients: 8 * n,
				Workload:   workload.Config{Theta: 0.85, ReadRatio: 0.5, CrossPct: p},
				RetryEvery: 2 * time.Second, Timeout: 60 * time.Second,
			})
			c.Stop()
			rows = append(rows, Row{Figure: "17", Series: fmt.Sprintf("Thunderbolt/f=%d", f),
				X: fmt.Sprintf("%.0f%%", p*100), TPS: rep.TPS,
				LatencyMS: rep.Latency.Mean.Seconds() * 1000})
		}
	}
	return rows
}

// All runs every figure.
func All(opt Options) []Row {
	var rows []Row
	rows = append(rows, Fig11a(opt)...)
	rows = append(rows, Fig11b(opt)...)
	rows = append(rows, Fig12(opt)...)
	rows = append(rows, Fig13(opt)...)
	rows = append(rows, Fig14(opt)...)
	rows = append(rows, Fig15(opt)...)
	rows = append(rows, Fig16(opt)...)
	rows = append(rows, Fig17(opt)...)
	return rows
}

// Format renders rows as aligned per-figure tables.
func Format(rows []Row) string {
	byFig := map[string][]Row{}
	var figs []string
	for _, r := range rows {
		if _, ok := byFig[r.Figure]; !ok {
			figs = append(figs, r.Figure)
		}
		byFig[r.Figure] = append(byFig[r.Figure], r)
	}
	sort.Strings(figs)
	var b strings.Builder
	for _, fig := range figs {
		fmt.Fprintf(&b, "== Figure %s ==\n", fig)
		fmt.Fprintf(&b, "%-28s %-10s %12s %12s %10s\n", "series", "x", "tps", "latency_ms", "reexec/tx")
		for _, r := range byFig[fig] {
			fmt.Fprintf(&b, "%-28s %-10s %12.0f %12.2f %10.3f\n",
				r.Series, r.X, r.TPS, r.LatencyMS, r.Reexec)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
