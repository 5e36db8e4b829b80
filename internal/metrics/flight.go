package metrics

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// The flight recorder is a per-node fixed-size ring of protocol trace
// events. It answers the question counters cannot: in what order did
// things happen on this node just before it wedged, diverged, or
// tripped an invariant. Recording is a struct copy into a
// pre-allocated ring (no allocations); the mutex is uncontended in
// practice because the node's event loop is the only writer and dumps
// happen on failure paths.

// EventKind tags one flight-recorder event.
type EventKind uint8

const (
	EvPropose EventKind = iota + 1
	EvVote
	EvCert
	EvCommit
	EvSkip
	EvShift
	EvGC
	EvSnapCapture
	EvSnapInstall
	EvEpochJump
	EvSendErr
	EvReconfig
	EvFastForward
	EvAnchorSkip
)

func (k EventKind) String() string {
	switch k {
	case EvPropose:
		return "propose"
	case EvVote:
		return "vote"
	case EvCert:
		return "cert"
	case EvCommit:
		return "commit"
	case EvSkip:
		return "skip"
	case EvShift:
		return "shift"
	case EvGC:
		return "gc"
	case EvSnapCapture:
		return "snap-capture"
	case EvSnapInstall:
		return "snap-install"
	case EvEpochJump:
		return "epoch-jump"
	case EvSendErr:
		return "send-err"
	case EvReconfig:
		return "reconfig"
	case EvFastForward:
		return "fast-forward"
	case EvAnchorSkip:
		return "anchor-skip"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one recorded trace event. A and B are kind-specific
// payloads (a proposer ID, a transaction count, a send class — each
// record site documents its own).
type Event struct {
	Seq   uint64        // monotonically increasing per recorder
	At    time.Duration // since the recorder started
	Kind  EventKind
	Epoch uint64
	Round uint64
	A, B  uint64
}

func (e Event) String() string {
	return fmt.Sprintf("#%-6d %12v %-12s e%-3d r%-6d a=%d b=%d",
		e.Seq, e.At.Round(time.Microsecond), e.Kind, e.Epoch, e.Round, e.A, e.B)
}

// FlightRecorder holds the last cap events.
type FlightRecorder struct {
	mu    sync.Mutex
	start time.Time
	ring  []Event
	next  uint64 // sequence of the next event; also total recorded
}

// DefaultFlightCap is the per-node ring size: enough to span several
// commit waves of per-round events around a failure without making
// every node carry megabytes of trace.
const DefaultFlightCap = 4096

// NewFlightRecorder returns a recorder holding the last cap events
// (cap <= 0 selects DefaultFlightCap).
func NewFlightRecorder(cap int) *FlightRecorder {
	if cap <= 0 {
		cap = DefaultFlightCap
	}
	return &FlightRecorder{start: time.Now(), ring: make([]Event, cap)}
}

// Note records one event. Allocation-free: the event is assembled in
// place inside the pre-sized ring.
func (f *FlightRecorder) Note(kind EventKind, epoch, round, a, b uint64) {
	now := time.Since(f.start)
	f.mu.Lock()
	e := &f.ring[f.next%uint64(len(f.ring))]
	e.Seq = f.next
	e.At = now
	e.Kind = kind
	e.Epoch = epoch
	e.Round = round
	e.A = a
	e.B = b
	f.next++
	f.mu.Unlock()
}

// Len returns the total number of events ever recorded (recorded,
// not retained).
func (f *FlightRecorder) Len() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.next
}

// Events returns the retained events oldest-first.
func (f *FlightRecorder) Events() []Event {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.next
	capU := uint64(len(f.ring))
	count := n
	if count > capU {
		count = capU
	}
	out := make([]Event, 0, count)
	for seq := n - count; seq < n; seq++ {
		out = append(out, f.ring[seq%capU])
	}
	return out
}

// Dump renders the last `last` retained events (last <= 0 means all)
// oldest-first, one line per event.
func (f *FlightRecorder) Dump(last int) string {
	evs := f.Events()
	if last > 0 && len(evs) > last {
		evs = evs[len(evs)-last:]
	}
	var b strings.Builder
	for _, e := range evs {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
