// Command benchmark is the repository's yardstick: named workloads,
// end-to-end metrics with regression bounds, and per-layer metrics
// from a separate traced run. See README.md in this directory and
// BENCHMARK.json at the repository root.
//
//	go run ./benchmark                         # the suite: 3 rounds × every workload, then a traced run
//	go run ./benchmark -agree                  # the suite twice; fails when the two disagree
//	go run ./benchmark -workload lan-single -seed 7 -seconds 10 -trace 0   # one run, one JSON line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// warmupTxs is the fixed amount of work done before the measured
// window opens (about half a second on the LAN workloads).
const warmupTxs = 2000

// setupReps caps the set-up repetitions of one run; cheap set-ups
// reach it, expensive ones stop at the time budget first.
const setupReps = 400

func main() {
	var (
		single  = flag.String("workload", "", "run this one workload once and print one JSON result line")
		seed    = flag.Int64("seed", 42, "workload generator seed")
		seconds = flag.Float64("seconds", 10, "measured window of a -workload run, in seconds")
		trace   = flag.String("trace", "", "1: traced run (per-layer metrics) only; 0: untraced only; unset: the suite does both")
		rounds  = flag.Int("rounds", 3, "suite: rounds, each running every workload once in a fresh process")
		window  = flag.Duration("window", 5*time.Second, "suite: measured window per untraced run (traced runs use 3/5 of it)")
		only    = flag.String("only", "", "suite: run just this workload")
		agree   = flag.Bool("agree", false, "run the untraced suite twice and fail if any end-to-end median moves by more than its bound")
		out     = flag.String("out", "benchmark/out", "directory for traces, layers.json, summary.json and scratch WAL data")
	)
	flag.Parse()
	if *trace != "" && *trace != "0" && *trace != "1" {
		fatalf("-trace takes 0 or 1, not %q", *trace)
	}

	if *single != "" {
		w, ok := workloadByName(*single)
		if !ok {
			fatalf("unknown workload %q", *single)
		}
		res := runWorkload(w, runOpts{
			Seed: *seed, Window: time.Duration(*seconds * float64(time.Second)), WarmupTxs: warmupTxs, SetupReps: setupReps,
			Trace: *trace == "1", OutDir: *out,
		})
		if res.Err != "" {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", w.Name, res.Err)
		}
		fmt.Println(resultLine(res))
		if !res.OK {
			os.Exit(1)
		}
		return
	}

	s := suite{Seed: *seed, Rounds: *rounds, Window: *window, Out: *out, Trace: *trace}
	if *only != "" {
		w, ok := workloadByName(*only)
		if !ok {
			fatalf("unknown workload %q", *only)
		}
		s.Workloads = []workloadSpec{w}
	} else {
		s.Workloads = workloads
	}
	var err error
	if *agree {
		err = s.agree()
	} else {
		err = s.run()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// runWorkload runs one workload once with GOMAXPROCS pinned to the
// workload's own value, never the environment's, and gates the result:
// a missing, NaN or infinite metric makes the run incorrect.
func runWorkload(w workloadSpec, o runOpts) runResult {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.Procs))
	var res runResult
	if w.Exec {
		res = runExec(w, o)
	} else {
		res = runCluster(w, o)
	}
	if !res.OK {
		return res
	}
	declared := endToEnd
	if o.Trace {
		declared = perLayer
	}
	for _, mt := range declared {
		v, ok := res.Metrics[mt.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.OK = false
			res.Err = fmt.Sprintf("metric %s is missing or not a number (%v)", mt.Name, v)
			return res
		}
	}
	return res
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the one-line JSON result: exactly the declared
// metrics of the run's kind, by name, each with its unit.
func resultLine(res runResult) string {
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted uint64                 `json:"attempted"`
		Failed    uint64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: res.OK, Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, mt := range list {
			if v, ok := res.Metrics[mt.Name]; ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
				out.Metrics[mt.Name] = metricValue{Value: v, Unit: mt.Unit}
			}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}
