// Fault scheduler: a Schedule is a declarative script of fault events
// executed strictly in order against the running cluster's simulated
// network. Each event fires when all of its gates are satisfied — an
// absolute offset from schedule start (At), a relative offset from
// the previous event (AfterPrev), and/or a cluster-state trigger
// (When). The scheduler polls every few milliseconds; the applied
// sequence is recorded in the harness event log.
package chaos

import (
	"fmt"
	"strings"
	"time"

	"thunderbolt/internal/transport"
	"thunderbolt/internal/types"
)

// Fault is one injectable network fault.
type Fault interface {
	apply(net *transport.SimNetwork)
	String() string
}

// Event is one step of a Schedule.
type Event struct {
	// Name labels the event in logs (optional).
	Name string
	// At gates the event on an absolute offset from schedule start.
	At time.Duration
	// AfterPrev gates the event on an offset from the moment the
	// previous event fired.
	AfterPrev time.Duration
	// When gates the event on cluster state (polled). Nil means no
	// state gate. Combine with At/AfterPrev freely: the event fires
	// once every configured gate is satisfied.
	When Trigger
	// Do is the list of faults applied (in order) when the event fires.
	Do []Fault
}

// Trigger is a polled cluster-state predicate.
type Trigger func(h *Harness) bool

// AfterCommits triggers once the cluster-wide committed-transaction
// count reaches n.
func AfterCommits(n uint64) Trigger {
	return func(h *Harness) bool { return h.cluster.Commits() >= n }
}

// AfterReconfigs triggers once the observer has seen n
// reconfigurations.
func AfterReconfigs(n uint64) Trigger {
	return func(h *Harness) bool { return h.cluster.Reconfigurations() >= n }
}

// Run executes the schedule on a background goroutine. ScheduleDone
// is closed (and Run's handle returned by Wait) when the last event
// has fired or the harness stops.
func (h *Harness) Run(s []Event) {
	done := make(chan struct{})
	h.schedMu.Lock()
	h.schedDone = done
	h.schedMu.Unlock()
	go h.runSchedule(s, done)
}

// WaitSchedule blocks until every scheduled event has fired (or the
// harness was stopped early).
func (h *Harness) WaitSchedule() {
	h.schedMu.Lock()
	done := h.schedDone
	h.schedMu.Unlock()
	if done != nil {
		<-done
	}
}

func (h *Harness) runSchedule(s []Event, done chan struct{}) {
	defer close(done)
	h.mu.Lock()
	start := h.start
	h.mu.Unlock()
	if start.IsZero() {
		start = time.Now()
	}
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	prevFired := start
	for i, ev := range s {
		for {
			now := time.Now()
			ready := now.Sub(start) >= ev.At && now.Sub(prevFired) >= ev.AfterPrev
			if ready && ev.When != nil {
				ready = ev.When(h)
			}
			if ready {
				break
			}
			select {
			case <-tick.C:
			case <-h.stop:
				h.logEvent("schedule aborted before event %d (%s)", i, ev.Name)
				return
			}
		}
		for _, f := range ev.Do {
			f.apply(h.Net())
		}
		prevFired = time.Now()
		name := ev.Name
		if name == "" {
			name = fmt.Sprintf("event %d", i)
		}
		h.logEvent("%s: %s", name, describe(ev.Do))
	}
}

func describe(fs []Fault) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return strings.Join(parts, "; ")
}

// --- fault vocabulary ---

// PartitionFault splits the committee into isolated groups.
type PartitionFault struct{ Groups [][]types.ReplicaID }

func (f PartitionFault) apply(net *transport.SimNetwork) { net.Partition(f.Groups...) }
func (f PartitionFault) String() string {
	parts := make([]string, len(f.Groups))
	for i, g := range f.Groups {
		parts[i] = fmt.Sprintf("%v", g)
	}
	return "partition " + strings.Join(parts, "|")
}

// IsolateFault cuts one replica off from every peer.
type IsolateFault struct{ Victim types.ReplicaID }

func (f IsolateFault) apply(net *transport.SimNetwork) { net.Isolate(f.Victim) }
func (f IsolateFault) String() string                  { return fmt.Sprintf("isolate %d", f.Victim) }

// SeverFault cuts one link (both directions unless Directed).
type SeverFault struct {
	A, B     types.ReplicaID
	Directed bool
}

func (f SeverFault) apply(net *transport.SimNetwork) {
	if f.Directed {
		net.Sever(f.A, f.B)
	} else {
		net.SeverBoth(f.A, f.B)
	}
}
func (f SeverFault) String() string {
	arrow := "<->"
	if f.Directed {
		arrow = "->"
	}
	return fmt.Sprintf("sever %d%s%d", f.A, arrow, f.B)
}

// HealAllFault restores every severed link and crashed replica.
type HealAllFault struct{}

func (HealAllFault) apply(net *transport.SimNetwork) { net.HealAll() }
func (HealAllFault) String() string                  { return "heal all" }

// CrashFault makes a replica unreachable (network-level crash: the
// paper's failure model — the process survives, all its traffic
// drops).
type CrashFault struct{ Victim types.ReplicaID }

func (f CrashFault) apply(net *transport.SimNetwork) { net.Crash(f.Victim) }
func (f CrashFault) String() string                  { return fmt.Sprintf("crash %d", f.Victim) }

// RestartFault undoes CrashFault; the replica recovers its missed DAG
// history through round pulls (node.MsgRoundReq).
type RestartFault struct{ Victim types.ReplicaID }

func (f RestartFault) apply(net *transport.SimNetwork) { net.Restart(f.Victim) }
func (f RestartFault) String() string                  { return fmt.Sprintf("restart %d", f.Victim) }

// LossFault sets the global message-loss probability (a packet-loss
// burst when scheduled and later cleared).
type LossFault struct{ Rate float64 }

func (f LossFault) apply(net *transport.SimNetwork) { net.SetLossRate(f.Rate) }
func (f LossFault) String() string                  { return fmt.Sprintf("loss %.0f%%", f.Rate*100) }

// LinkLossFault sets one directed link's loss probability
// (asymmetric loss). Rate < 0 removes the override.
type LinkLossFault struct {
	A, B types.ReplicaID
	Rate float64
}

func (f LinkLossFault) apply(net *transport.SimNetwork) { net.SetLinkLoss(f.A, f.B, f.Rate) }
func (f LinkLossFault) String() string {
	return fmt.Sprintf("loss %d->%d %.0f%%", f.A, f.B, f.Rate*100)
}

// DuplicateFault sets the delivery-duplication probability.
type DuplicateFault struct{ Rate float64 }

func (f DuplicateFault) apply(net *transport.SimNetwork) { net.SetDuplicationRate(f.Rate) }
func (f DuplicateFault) String() string                  { return fmt.Sprintf("dup %.0f%%", f.Rate*100) }

// LatencySpikeFault adds a flat delay to every one-way link.
type LatencySpikeFault struct{ Extra time.Duration }

func (f LatencySpikeFault) apply(net *transport.SimNetwork) { net.SetExtraLatency(f.Extra) }
func (f LatencySpikeFault) String() string                  { return fmt.Sprintf("latency +%s", f.Extra) }

// ClearFaultsFault resets loss, duplication, latency, and message
// interception to the baseline (partitions and crashes are healed by
// HealAllFault).
type ClearFaultsFault struct{}

func (ClearFaultsFault) apply(net *transport.SimNetwork) { net.ClearFaults() }
func (ClearFaultsFault) String() string                  { return "clear loss/dup/latency/intercept" }

// InterceptFault installs a SimNetwork message interceptor — the
// Byzantine fault vocabulary entry: a "lying" replica is modelled by
// rewriting (or dropping) its outbound payloads on the wire. Cleared
// by ClearFaultsFault or a nil Fn.
type InterceptFault struct {
	Fn   transport.Interceptor
	Desc string
}

func (f InterceptFault) apply(net *transport.SimNetwork) { net.SetInterceptor(f.Fn) }
func (f InterceptFault) String() string {
	if f.Desc != "" {
		return "intercept: " + f.Desc
	}
	return "intercept"
}
