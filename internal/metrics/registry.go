package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Registry is a named set of counters, gauges, and histograms that
// snapshots as one coherent struct. Registration (get-or-create) takes
// a mutex; the returned instruments record through atomics, so the
// pattern is: resolve every instrument once at construction, then
// record lock-free forever. Instruments are never unregistered — a
// pointer handed out stays valid for the registry's lifetime.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// RegistrySnapshot is one coherent copy of every registered
// instrument, JSON-serializable for the debug listener.
type RegistrySnapshot struct {
	Counters   map[string]uint64           `json:"counters"`
	Gauges     map[string]int64            `json:"gauges"`
	Histograms map[string]HistogramSummary `json:"histograms"`
}

// HistogramSummary is the JSON-facing reduction of one histogram.
type HistogramSummary struct {
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// Summarize reduces a histogram snapshot to its JSON form.
func Summarize(s HistogramSnapshot) HistogramSummary {
	return HistogramSummary{
		Count:  s.Count,
		MeanMS: s.Mean().Seconds() * 1000,
		P50MS:  s.Quantile(0.50).Seconds() * 1000,
		P99MS:  s.Quantile(0.99).Seconds() * 1000,
	}
}

// Snapshot copies every instrument under the registration lock. New
// instruments cannot appear mid-snapshot; values recorded concurrently
// land in this snapshot or the next one.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := RegistrySnapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSummary, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = Summarize(h.Snapshot())
	}
	return s
}

// HistogramSnapshotOf returns the raw bucket snapshot of one named
// histogram (zero snapshot if it was never registered) — the merge
// input for cross-node stage aggregation.
func (r *Registry) HistogramSnapshotOf(name string) HistogramSnapshot {
	r.mu.Lock()
	h, ok := r.hists[name]
	r.mu.Unlock()
	if !ok {
		return HistogramSnapshot{}
	}
	return h.Snapshot()
}

// Dump renders the snapshot as sorted text for terminals and logs.
func (s RegistrySnapshot) Dump() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "counter %-28s %d\n", n, s.Counters[n])
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "gauge   %-28s %d\n", n, s.Gauges[n])
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		fmt.Fprintf(&b, "hist    %-28s n=%d mean=%.3fms p50≤%.3fms p99≤%.3fms\n",
			n, h.Count, h.MeanMS, h.P50MS, h.P99MS)
	}
	return b.String()
}

// Stage histogram names: the per-block commit-path breakdown every
// node records (see the README's Observability section for the stage
// definitions).
const (
	StageProposeCertify = "stage_propose_certify_ns"
	StageCertifyCommit  = "stage_certify_commit_ns"
	StageCommitExecute  = "stage_commit_execute_ns"
	StageSubmitAck      = "stage_submit_ack_ns"
)

// StageNames lists the per-stage histograms in pipeline order.
var StageNames = []string{
	StageProposeCertify, StageCertifyCommit, StageCommitExecute, StageSubmitAck,
}
