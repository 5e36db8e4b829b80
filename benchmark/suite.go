package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// suite runs every workload in fresh child processes: one process per
// workload per round, so GOMAXPROCS, heap and pools start clean, and
// a noisy-neighbour burst cannot land on one workload's every round.
type suite struct {
	Seed      int64
	Rounds    int
	Window    time.Duration
	Out       string
	Trace     string // "", "0" or "1"
	Workloads []workloadSpec
}

// childResult is a child's parsed result line.
type childResult struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// child runs one workload once in a fresh process of this same binary.
func (s suite) child(w workloadSpec, window time.Duration, trace bool) (childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(s.Seed, 10),
		"-seconds", strconv.FormatFloat(window.Seconds(), 'f', -1, 64), "-trace", t, "-out", s.Out)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	var last []byte
	for sc := bufio.NewScanner(bytes.NewReader(stdout)); sc.Scan(); {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res childResult
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("%s: no result line (%v): %w", w.Name, runErr, err)
	}
	if runErr != nil {
		return res, fmt.Errorf("%s: %w", w.Name, runErr)
	}
	return res, nil
}

// stat is one metric of one workload across rounds.
type stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Rounds []float64 `json:"rounds"`
}

func newStat(unit string, vs []float64) stat {
	lo, hi := minMax(vs)
	return stat{Unit: unit, Median: median(append([]float64(nil), vs...)), Min: lo, Max: hi, Rounds: vs}
}

// row is one workload's end-to-end result.
type row struct {
	Workload   string `json:"workload"`
	OK         bool   `json:"ok"`
	Err        string `json:"error,omitempty"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	Attempted  uint64 `json:"attempted"`
	Failed     uint64 `json:"failed"`
	// Committed is the sample count: requests that completed, over all rounds.
	Committed uint64          `json:"committed"`
	Metrics   map[string]stat `json:"metrics"`
}

// suiteName is the name a metric is reported under in the suite: the
// executor workload's request is a batch, so its two latency metrics
// are named for what they time.
func suiteName(w workloadSpec, name string) string {
	if w.Exec {
		switch name {
		case "commit_p50_ms":
			return "batch_p50_ms"
		case "commit_p95_ms":
			return "batch_p95_ms"
		}
	}
	return name
}

// untraced runs Rounds rounds of every workload and reduces each
// end-to-end metric to the median over rounds.
func (s suite) untraced() []row {
	values := make([]map[string][]float64, len(s.Workloads)) // per workload: metric → per-round
	rows := make([]row, len(s.Workloads))
	for i, w := range s.Workloads {
		rows[i] = row{Workload: w.Name, OK: true, GoMaxProcs: w.Procs, Clients: w.Clients, Metrics: map[string]stat{}}
		values[i] = map[string][]float64{}
	}
	for r := 0; r < s.Rounds; r++ {
		for i, w := range s.Workloads {
			fmt.Fprintf(os.Stderr, "round %d/%d  %s\n", r+1, s.Rounds, w.Name)
			res, err := s.child(w, s.Window, false)
			rw := &rows[i]
			rw.Attempted += res.Attempted
			rw.Failed += res.Failed
			if err != nil { // an incorrect run exits non-zero
				rw.OK = false
				rw.Err = fmt.Sprint("round ", r+1, ": ", err)
				continue
			}
			for _, mt := range endToEnd {
				values[i][mt.Name] = append(values[i][mt.Name], res.Metrics[mt.Name].Value)
			}
		}
	}
	for i, w := range s.Workloads {
		rw := &rows[i]
		rw.Committed = rw.Attempted - rw.Failed
		for _, mt := range endToEnd {
			if vs := values[i][mt.Name]; len(vs) > 0 {
				rw.Metrics[suiteName(w, mt.Name)] = newStat(mt.Unit, vs)
			}
		}
		fr := ratio(float64(rw.Failed), float64(rw.Attempted))
		rw.Metrics["fail_ratio"] = stat{Unit: "ratio", Median: fr, Min: fr, Max: fr}
		if rw.Committed == 0 {
			rw.OK = false
		}
	}
	return rows
}

// traced runs each workload once with tracing on and returns each
// workload's per-layer metrics and span self times.
func (s suite) traced() (map[string]layerFile, error) {
	layers := make(map[string]layerFile)
	var errs []error
	for _, w := range s.Workloads {
		fmt.Fprintf(os.Stderr, "traced  %s\n", w.Name)
		if _, err := s.child(w, s.Window*3/5, true); err != nil {
			errs = append(errs, err)
			continue
		}
		raw, err := os.ReadFile(filepath.Join(s.Out, "layers-"+w.Name+".json"))
		if err != nil {
			errs = append(errs, err)
			continue
		}
		var lf layerFile
		if err := json.Unmarshal(raw, &lf); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", w.Name, err))
			continue
		}
		layers[w.Name] = lf
	}
	return layers, errors.Join(errs...)
}

// summary is the suite's machine-readable output. Claim stays null:
// this benchmark measures; a change that claims a gain says so in its
// own issue, with paired runs.
type summary struct {
	Seed      int64                `json:"seed"`
	Rounds    int                  `json:"rounds"`
	WindowS   float64              `json:"window_s"`
	Workloads []row                `json:"workloads"`
	Layers    map[string]layerFile `json:"layers,omitempty"`
	Claim     *string              `json:"claim"`
}

func (s suite) run() error {
	sum := summary{Seed: s.Seed, Rounds: s.Rounds, WindowS: s.Window.Seconds()}
	var errs []error
	if s.Trace != "1" {
		sum.Workloads = s.untraced()
		printRows(sum.Workloads)
		for _, rw := range sum.Workloads {
			if !rw.OK {
				errs = append(errs, fmt.Errorf("%s failed its correctness gate: %s", rw.Workload, rw.Err))
			}
		}
	}
	if s.Trace != "0" {
		layers, err := s.traced()
		if err != nil {
			errs = append(errs, err)
		}
		sum.Layers = layers
		printLayers(s.Workloads, layers)
		if err := writeJSON(filepath.Join(s.Out, "layers.json"), layers); err != nil {
			errs = append(errs, err)
		}
	}
	if err := writeJSON(filepath.Join(s.Out, "summary.json"), sum); err != nil {
		errs = append(errs, err)
	}
	b, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return errors.Join(errs...)
}

// agree runs the untraced suite twice on the same code. Two sets of
// runs must agree within the benchmark's own bounds, or the bounds
// cannot tell a regression from noise.
func (s suite) agree() error {
	a := s.untraced()
	b := s.untraced()
	var errs []error
	fmt.Printf("%-16s %-16s %12s %12s %8s %8s %8s\n", "workload", "metric", "median A", "median B", "moved", "spread", "bound")
	for i, w := range s.Workloads {
		if !a[i].OK || !b[i].OK {
			errs = append(errs, fmt.Errorf("%s failed its correctness gate", w.Name))
			continue
		}
		for _, mt := range endToEnd {
			name := suiteName(w, mt.Name)
			sa, sb := a[i].Metrics[name], b[i].Metrics[name]
			moved := math.Abs(sb.Median-sa.Median) / sa.Median
			all := append(append([]float64(nil), sa.Rounds...), sb.Rounds...)
			spread := quartileSpread(all)
			verdict := ""
			if moved > mt.Bound {
				verdict = "  DISAGREE"
				errs = append(errs, fmt.Errorf("%s %s: medians %.4g and %.4g differ by %.1f%%, bound %.0f%%",
					w.Name, name, sa.Median, sb.Median, 100*moved, 100*mt.Bound))
			}
			fmt.Printf("%-16s %-16s %12.4g %12.4g %7.1f%% %7.1f%% %7.0f%%%s\n",
				w.Name, name, sa.Median, sb.Median, 100*moved, 100*spread, 100*mt.Bound, verdict)
		}
		if fa, fb := a[i].Metrics["fail_ratio"].Median, b[i].Metrics["fail_ratio"].Median; fa != fb {
			errs = append(errs, fmt.Errorf("%s fail_ratio: %g and %g differ", w.Name, fa, fb))
		}
	}
	return errors.Join(errs...)
}

// quartileSpread is (Q3 − Q1) / median, with quartiles as Python's
// statistics.quantiles(values, n=4) computes them — the spread the
// bounds in BENCHMARK.json are held against.
func quartileSpread(vs []float64) float64 {
	vs = append([]float64(nil), vs...)
	sort.Float64s(vs)
	n := len(vs)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (vs[j-1]*(4-delta) + vs[j]*delta) / 4
	}
	return ratio(q(3)-q(1), median(vs))
}

func printRows(rows []row) {
	for _, rw := range rows {
		status := "ok"
		if !rw.OK {
			status = "FAILED: " + rw.Err
		}
		fmt.Printf("\n%s  GOMAXPROCS=%d clients=%d attempted=%d failed=%d committed=%d  %s\n",
			rw.Workload, rw.GoMaxProcs, rw.Clients, rw.Attempted, rw.Failed, rw.Committed, status)
		names := make([]string, 0, len(rw.Metrics))
		for name := range rw.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			st := rw.Metrics[name]
			fmt.Printf("  %-18s %12.4f %-6s [%.4f .. %.4f] rounds=%d\n", name, st.Median, st.Unit, st.Min, st.Max, len(st.Rounds))
		}
	}
	fmt.Println()
}

func printLayers(ws []workloadSpec, layers map[string]layerFile) {
	fmt.Printf("%-36s", "per-layer metric (traced run)")
	for _, w := range ws {
		fmt.Printf(" %14s", w.Name)
	}
	fmt.Println()
	for _, mt := range perLayer {
		fmt.Printf("%-36s", mt.Name+" ["+mt.Unit+"]")
		for _, w := range ws {
			if v, ok := layers[w.Name].Metrics[mt.Name]; ok {
				fmt.Printf(" %14.4g", v)
			} else {
				fmt.Printf(" %14s", "-")
			}
		}
		fmt.Println()
	}
	fmt.Println()
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
