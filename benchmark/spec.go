package main

// The registry: every workload and every metric the benchmark knows,
// under the names BENCHMARK.json declares. benchmark_test.go fails when
// the two drift.

// metric is one declared measurement.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression
	// (per-layer metrics carry none).
	Bound float64
}

// workloadSpec is one named input configuration. Every cluster workload is
// N=4 replicas on transport.SimNetwork, CE mode, SmallBank
// GetBalance/SendPayment, BatchSize 500, 16 executors/validators,
// speculation on; the fields are what varies.
type workloadSpec struct {
	Name string
	Why  string
	// Procs is the GOMAXPROCS the harness pins for the run.
	Procs int
	// Clients is the closed-loop caller count (cluster workloads).
	Clients   int
	Accounts  int
	Theta     float64
	ReadRatio float64
	CrossPct  float64
	WAN       bool
	// Prod switches on what a deployment pays for: ed25519 signatures,
	// the durable WAL, and load through gateway wire clients.
	Prod bool
	// Exec marks the executor-only pipeline (no consensus).
	Exec bool
}

const (
	committee    = 4
	batchSize    = 500
	execWorkers  = 16
	prodGateways = 2
)

var workloads = []workloadSpec{
	{
		Name: "lan-single", Procs: 1, Clients: 32, Accounts: 1000, Theta: 0.85, ReadRatio: 0.5,
		Why: "consensus pipeline (node/dag/tusk/transport/codec) does nearly all the work on one core; the most repeatable lane",
	},
	{
		Name: "lan-single-mp2", Procs: 2, Clients: 32, Accounts: 1000, Theta: 0.85, ReadRatio: 0.5,
		Why: "same inputs on two cores: exposes serialization points and lock hand-offs that multi-core work must remove",
	},
	{
		Name: "lan-cross50", Procs: 1, Clients: 32, Accounts: 1000, Theta: 0.85, ReadRatio: 0.5, CrossPct: 0.5,
		Why: "half the traffic takes the ordered cross-shard (OE) path, so an EOV gain that taxes OE shows",
	},
	{
		Name: "lan-prod", Procs: 1, Clients: 32, Accounts: 1000, Theta: 0.85, ReadRatio: 0.5, Prod: true,
		Why: "ed25519 + durable WAL + gateway wire clients: crypto, storage and gateway do the work that lan-single skips",
	},
	{
		Name: "lan-big100k", Procs: 1, Clients: 32, Accounts: 100_000, Theta: 0.85, ReadRatio: 0.5,
		Why: "100k accounts (200k records per replica): storage iteration, snapshot capture and GC pressure set tails and set-up",
	},
	{
		Name: "wan-single", Procs: 1, Clients: 256, Accounts: 1000, Theta: 0.85, ReadRatio: 0.5, WAN: true,
		Why: "30-50 ms links, CPU nearly idle: only round count and overlap move it; CPU optimisations must predict no change",
	},
	{
		Name: "exec-hot", Procs: 2, Accounts: 200, Theta: 0.95, ReadRatio: 0.5, Exec: true,
		Why: "no consensus: preplay, validate and apply under hot-key contention; the bypass lane for consensus optimisations",
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// endToEnd are the metrics a user of the system sees; every workload
// reports every one of them from an untraced run.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"tps", "tx/s", "higher", 0.25},
	{"commit_p50_ms", "ms", "lower", 0.25},
	{"commit_p95_ms", "ms", "lower", 0.25},
	{"cpu_us_per_tx", "us", "lower", 0.25},
	{"allocs_per_tx", "count", "lower", 0.20},
	{"alloc_kb_per_tx", "KiB", "lower", 0.20},
	{"live_heap_mb", "MiB", "lower", 0.25},
}

// perLayer are single-layer measurements from the traced run. A metric
// whose layer the workload does not exercise reads 0.
var perLayer = []metric{
	{Name: "cluster.nacks_per_tx", Unit: "count", Better: "lower"},
	{Name: "cluster.quiesce_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.commit_p99_ms", Unit: "ms", Better: "lower"},

	{Name: "node.msgs_per_tx", Unit: "count", Better: "lower"},
	{Name: "node.bytes_per_tx", Unit: "B", Better: "lower"},
	{Name: "node.txs_per_block", Unit: "count", Better: "higher"},
	{Name: "node.batch_size", Unit: "count", Better: "higher"},
	{Name: "node.rounds_per_s", Unit: "1/s", Better: "higher"},
	{Name: "node.skip_block_ratio", Unit: "ratio", Better: "lower"},
	{Name: "node.spec_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "node.spec_wasted_per_tx", Unit: "count", Better: "lower"},
	{Name: "node.reexec_per_tx", Unit: "count", Better: "lower"},
	{Name: "node.validation_fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "node.converted_cross_ratio", Unit: "ratio", Better: "lower"},
	{Name: "node.queue_len", Unit: "count", Better: "lower"},
	{Name: "node.stage_propose_certify_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "node.stage_certify_commit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "node.stage_commit_execute_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "node.stage_submit_ack_p50_ms", Unit: "ms", Better: "lower"},

	{Name: "dag.add_us", Unit: "us", Better: "lower"},
	{Name: "dag.linearize_us_per_vertex", Unit: "us", Better: "lower"},
	{Name: "tusk.advance_us_per_wave", Unit: "us", Better: "lower"},
	{Name: "tusk.predict_us_per_wave", Unit: "us", Better: "lower"},

	{Name: "transport.sim_us_per_msg", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_us_per_msg", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_mb_per_s", Unit: "MB/s", Better: "higher"},

	{Name: "types.tx_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "types.tx_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "types.block_encode_us", Unit: "us", Better: "lower"},
	{Name: "types.block_decode_us", Unit: "us", Better: "lower"},
	{Name: "types.snapshot_capture_ms", Unit: "ms", Better: "lower"},
	{Name: "types.snapshot_verify_ms", Unit: "ms", Better: "lower"},

	{Name: "crypto.sign_us", Unit: "us", Better: "lower"},
	{Name: "crypto.verify_us", Unit: "us", Better: "lower"},
	{Name: "crypto.verify_batch_us_per_sig", Unit: "us", Better: "lower"},
	{Name: "crypto.cache_hit_rate", Unit: "ratio", Better: "higher"},

	{Name: "gateway.dedup_admit_ns", Unit: "ns", Better: "lower"},
	{Name: "gateway.dedup_mark_ns", Unit: "ns", Better: "lower"},
	{Name: "gateway.submit_rtt_p50_ms", Unit: "ms", Better: "lower"},

	{Name: "ce.preplay_us_per_tx", Unit: "us", Better: "lower"},
	{Name: "ce.reexec_per_tx", Unit: "count", Better: "lower"},
	{Name: "ce.failed_per_tx", Unit: "count", Better: "lower"},
	{Name: "ce.layered_us_per_tx", Unit: "us", Better: "lower"},
	{Name: "depgraph.layers_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "depgraph.layer_count", Unit: "count", Better: "lower"},

	{Name: "validate.us_per_tx", Unit: "us", Better: "lower"},
	{Name: "validate.fail_ratio", Unit: "ratio", Better: "lower"},

	{Name: "storage.apply_us_per_record", Unit: "us", Better: "lower"},
	{Name: "storage.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.get_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.ascend_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "storage.wal_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "storage.open_s", Unit: "s", Better: "lower"},

	{Name: "harness.gen_ns_per_tx", Unit: "ns", Better: "lower"},
	{Name: "harness.trace_overhead_ratio", Unit: "ratio", Better: "higher"},
	{Name: "harness.gc_pause_ms_per_s", Unit: "ms/s", Better: "lower"},
	{Name: "harness.gc_cycles_per_s", Unit: "1/s", Better: "lower"},
}
