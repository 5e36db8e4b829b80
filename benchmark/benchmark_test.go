package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload, untraced and traced, with a 300 ms
// window, and checks that each run passes its correctness gate and
// emits every declared metric of its kind, by name, with its unit.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name, declared := w.Name+"/untraced", endToEnd
			if trace {
				name, declared = w.Name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				out := t.TempDir()
				window := 300 * time.Millisecond
				if w.WAN {
					window = 800 * time.Millisecond // one commit takes ≈ 0.5 s there
				}
				// A smoke test checks plumbing, not scale: the full ledger's
				// layer pass alone takes longer than the rest of the test.
				w.Accounts = min(w.Accounts, 10_000)
				res := runWorkload(w, runOpts{
					Seed: 1, Window: window, WarmupTxs: 100, SetupReps: 1, Trace: trace, OutDir: out,
				})
				if !res.OK {
					t.Fatalf("correctness gate: %s", res.Err)
				}
				if res.Attempted == 0 || res.Failed != 0 || res.Samples == 0 {
					t.Fatalf("attempted=%d failed=%d samples=%d", res.Attempted, res.Failed, res.Samples)
				}
				var line struct {
					Correct bool                   `json:"correct"`
					Metrics map[string]metricValue `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(resultLine(res)), &line); err != nil {
					t.Fatal(err)
				}
				if !line.Correct || len(line.Metrics) != len(declared) {
					t.Fatalf("result line: correct=%v with %d metrics, want %d", line.Correct, len(line.Metrics), len(declared))
				}
				for _, mt := range declared {
					got, ok := line.Metrics[mt.Name]
					if !ok || got.Unit != mt.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("%s: got %+v (present=%v), want unit %q", mt.Name, got, ok, mt.Unit)
					}
					if !trace && got.Value <= 0 {
						t.Errorf("%s: end-to-end metric reads %v, must be positive", mt.Name, got.Value)
					}
				}
				if trace {
					if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
						t.Errorf("no trace file: %v", err)
					}
				}
			})
		}
	}
}

// TestDeclaration holds BENCHMARK.json to the registry in spec.go and
// both to the limits the benchmark contract sets.
func TestDeclaration(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string  `json:"name"`
		Why    string  `json:"why,omitempty"`
		Unit   string  `json:"unit,omitempty"`
		Better string  `json:"better,omitempty"`
		Bound  float64 `json:"bound,omitempty"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []decl   `json:"workloads"`
		EndToEnd   []decl   `json:"end_to_end"`
		PerLayer   []decl   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	var ws, e2e, layers []decl
	for _, w := range workloads {
		ws = append(ws, decl{Name: w.Name, Why: w.Why})
	}
	for _, m := range endToEnd {
		e2e = append(e2e, decl{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
	}
	for _, m := range perLayer {
		layers = append(layers, decl{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(file.Workloads, ws) {
		t.Errorf("workloads drifted:\nfile %+v\ncode %+v", file.Workloads, ws)
	}
	if !reflect.DeepEqual(file.EndToEnd, e2e) {
		t.Errorf("end_to_end drifted:\nfile %+v\ncode %+v", file.EndToEnd, e2e)
	}
	if !reflect.DeepEqual(file.PerLayer, layers) {
		t.Errorf("per_layer drifted:\nfile %+v\ncode %+v", file.PerLayer, layers)
	}
	if !reflect.DeepEqual(file.Paths, []string{"benchmark"}) || !reflect.DeepEqual(file.Command, []string{"go", "run", "./benchmark"}) {
		t.Errorf("command %v paths %v", file.Command, file.Paths)
	}

	if len(ws) < 2 || len(ws) > 8 || len(e2e) < 1 || len(e2e) > 16 || len(layers) < 1 || len(layers) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer: outside 2..8 / 1..16 / 1..128", len(ws), len(e2e), len(layers))
	}
	seen := map[string]bool{}
	setup := false
	for _, d := range append(append(append([]decl(nil), ws...), e2e...), layers...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Why == "" && (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
		if len(d.Why) > 200 {
			t.Errorf("%s: why has %d characters", d.Name, len(d.Why))
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range e2e {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds %d", file.RunSeconds)
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartileSpread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread %v, want 1.0", got)
	}
}

func TestSelfTime(t *testing.T) {
	r := newRecorder()
	at := func(d time.Duration) time.Time { return r.epoch.Add(d) }
	parent := r.add("batch", at(0), at(10*time.Millisecond), -1, 1, 0)
	r.add("ce.preplay", at(1*time.Millisecond), at(5*time.Millisecond), parent, 1, 0)
	r.add("storage.apply", at(5*time.Millisecond), at(7*time.Millisecond), parent, 1, 0)
	self := r.selfTimes()
	if self["batch"] != 4*time.Millisecond || self["ce.preplay"] != 4*time.Millisecond {
		t.Errorf("self times %v", self)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	var file struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &file); err != nil || len(file.TraceEvents) != 3 {
		t.Fatalf("trace file: %v, %d events", err, len(file.TraceEvents))
	}
}
