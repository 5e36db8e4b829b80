package transport

import (
	"os"
	"runtime"
	"sort"
	"syscall"
	"testing"
	"time"

	"thunderbolt/internal/types"
)

// pingPong bounces one message between two endpoints for hops
// deliveries over a fixed one-way delay, at GOMAXPROCS=1, and returns
// each hop's duration (delivery to delivery).
func pingPong(t *testing.T, delay time.Duration, hops int) []time.Duration {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	net := NewSimNetwork(SimConfig{N: 2, Latency: UniformLatency(delay, delay)})
	defer net.Close()
	at := make([]time.Time, 0, hops) // appended on the delivery goroutine only
	done := make(chan struct{})
	for i := 0; i < 2; i++ {
		ep := net.Endpoint(types.ReplicaID(i))
		ep.SetHandler(func(from types.ReplicaID, mt MsgType, p []byte) {
			if at = append(at, time.Now()); len(at) == hops {
				close(done)
				return
			}
			_ = ep.Send(from, mt, p)
		})
	}
	if err := net.Endpoint(0).Send(1, 1, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("ping-pong stalled after %d hops", len(at))
	}
	if net.Metrics().Counter("sim_parks").Value() == 0 {
		t.Fatal("an idle exchange never parked the dispatcher")
	}
	hopTimes := make([]time.Duration, len(at)-1)
	for i := range hopTimes {
		hopTimes[i] = at[i+1].Sub(at[i])
	}
	return hopTimes
}

func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Between two idle endpoints the dispatcher must park, not spin: a
// yield-spin holds the one processor for the whole wait.
func TestSimIdleDispatcherDoesNotSpin(t *testing.T) {
	cpu0, wall0 := cpuTime(t), time.Now()
	pingPong(t, 200*time.Microsecond, 300)
	cpu, wall := cpuTime(t)-cpu0, time.Since(wall0)
	t.Logf("300 hops: %v CPU over %v wall (%.0f %%)", cpu, wall, 100*cpu.Seconds()/wall.Seconds())
	if cpu > wall/2 {
		t.Fatalf("process CPU %v over %v wall: the idle dispatcher is spinning", cpu, wall)
	}
}

// A parked dispatcher must still wake on time. A plain timer park is
// ended by the runtime's epoll_wait, which rounds any sub-millisecond
// timeout up to 1 ms; the idle wake ends it at the release instant.
func TestSimIdleHopIsPrecise(t *testing.T) {
	hops := pingPong(t, 200*time.Microsecond, 300)
	sort.Slice(hops, func(i, j int) bool { return hops[i] < hops[j] })
	med := hops[len(hops)/2]
	t.Logf("200 µs hops: min %v median %v p90 %v", hops[0], med, hops[len(hops)*9/10])
	if med >= 600*time.Microsecond {
		t.Fatalf("median idle hop %v on a 200 µs link, want < 600 µs", med)
	}
}

// Each network holds one timerfd for its idle wake; Close releases it.
func TestSimCloseReleasesDescriptors(t *testing.T) {
	open := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd:", err)
		}
		return len(fds)
	}
	before := open()
	for i := 0; i < 1000; i++ {
		NewSimNetwork(SimConfig{N: 2}).Close()
	}
	if after := open(); after > before {
		t.Fatalf("%d descriptors open after 1000 networks were opened and closed, %d before", after, before)
	}
}
