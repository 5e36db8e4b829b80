package transport

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thunderbolt/internal/types"
)

type recorder struct {
	mu   sync.Mutex
	msgs []string
	ch   chan string
}

func newRecorder() *recorder { return &recorder{ch: make(chan string, 1024)} }

func (r *recorder) handler() Handler {
	return func(from types.ReplicaID, mt MsgType, payload []byte) {
		s := fmt.Sprintf("%d/%d/%s", from, mt, payload)
		r.mu.Lock()
		r.msgs = append(r.msgs, s)
		r.mu.Unlock()
		r.ch <- s
	}
}

func (r *recorder) wait(t *testing.T, want string) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case got := <-r.ch:
			if got == want {
				return
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %q", want)
		}
	}
}

func TestSimSendAndBroadcast(t *testing.T) {
	net := NewSimNetwork(SimConfig{N: 3})
	defer net.Close()
	recs := make([]*recorder, 3)
	for i := range recs {
		recs[i] = newRecorder()
		net.Endpoint(types.ReplicaID(i)).SetHandler(recs[i].handler())
	}
	if err := net.Endpoint(0).Send(1, 7, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	recs[1].wait(t, "0/7/hi")

	if err := net.Endpoint(2).Broadcast(9, []byte("all")); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		recs[i].wait(t, "2/9/all")
	}
}

func TestSimFIFOPerLink(t *testing.T) {
	net := NewSimNetwork(SimConfig{N: 2, Latency: UniformLatency(0, 2*time.Millisecond)})
	defer net.Close()
	rec := newRecorder()
	net.Endpoint(1).SetHandler(rec.handler())
	const count = 50
	for i := 0; i < count; i++ {
		if err := net.Endpoint(0).Send(1, 1, []byte(fmt.Sprintf("m%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	rec.wait(t, fmt.Sprintf("0/1/m%03d", count-1))
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for i, s := range rec.msgs {
		if s != fmt.Sprintf("0/1/m%03d", i) {
			t.Fatalf("order violated at %d: %s", i, s)
		}
	}
}

func TestSimLatencyApplied(t *testing.T) {
	const delay = 30 * time.Millisecond
	net := NewSimNetwork(SimConfig{N: 2, Latency: UniformLatency(delay, delay)})
	defer net.Close()
	rec := newRecorder()
	net.Endpoint(1).SetHandler(rec.handler())
	start := time.Now()
	net.Endpoint(0).Send(1, 1, []byte("x"))
	rec.wait(t, "0/1/x")
	if elapsed := time.Since(start); elapsed < delay {
		t.Fatalf("delivered in %v, want >= %v", elapsed, delay)
	}

	// Many LAN-sized hops, sent in bursts so that some arrive while the
	// dispatcher is parked and some while it is busy: none may be
	// delivered before its release, and each is accounted for.
	const hop, count = 200 * time.Microsecond, 200
	lan := NewSimNetwork(SimConfig{N: 2, Latency: UniformLatency(hop, hop)})
	defer lan.Close()
	sent := make([]time.Time, count)
	var early []string // appended on the delivery goroutine only
	all := make(chan struct{})
	got := 0
	lan.Endpoint(1).SetHandler(func(_ types.ReplicaID, _ MsgType, p []byte) {
		i := int(binary.BigEndian.Uint16(p))
		if d := time.Since(sent[i]); d < hop {
			early = append(early, fmt.Sprintf("#%d after %v", i, d))
		}
		if got++; got == count {
			close(all)
		}
	})
	for i := range sent {
		if i%10 == 0 {
			time.Sleep(300 * time.Microsecond)
		}
		sent[i] = time.Now()
		if err := lan.Endpoint(0).Send(1, 1, binary.BigEndian.AppendUint16(nil, uint16(i))); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-all:
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for the 200 µs messages")
	}
	if len(early) > 0 {
		t.Fatalf("%d of %d messages delivered before their %v delay: %v", len(early), count, hop, early)
	}
	m := lan.Metrics()
	if d, lag := m.Counter("sim_delivered").Value(), m.HistogramSnapshotOf("sim_delivery_lag_ns"); d != count || lag.Count != count {
		t.Fatalf("sim_delivered = %d, lag observations = %d, want %d each", d, lag.Count, count)
	}
}

// A handler runs on the dispatcher goroutine, so a handler that sends
// into a full link must not wait for that link to drain: only the
// dispatcher drains it. Every other sender still waits.
func TestSimHandlerSendIntoFullLink(t *testing.T) {
	const delay = 5 * time.Millisecond
	net := NewSimNetwork(SimConfig{N: 2, QueueLen: 1, Latency: UniformLatency(delay, delay)})
	defer net.Close()
	rec := newRecorder()
	net.Endpoint(0).SetHandler(rec.handler())
	replier := net.Endpoint(1)
	replier.SetHandler(func(from types.ReplicaID, mt MsgType, _ []byte) {
		_ = replier.Send(from, mt, []byte("r1"))
		_ = replier.Send(from, mt, []byte("r2")) // link 1→0 already holds r1
	})
	if err := net.Endpoint(0).Send(1, 1, []byte("q")); err != nil {
		t.Fatal(err)
	}
	rec.wait(t, "1/1/r1")
	rec.wait(t, "1/1/r2")

	start := time.Now()
	for _, p := range []string{"a", "b"} {
		if err := replier.Send(0, 2, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < delay {
		t.Fatalf("second send into a full link returned after %v, before the first was delivered (%v link)", elapsed, delay)
	}
	rec.wait(t, "1/2/a")
	rec.wait(t, "1/2/b")
}

func TestSimCrashAndSever(t *testing.T) {
	net := NewSimNetwork(SimConfig{N: 3})
	defer net.Close()
	var got atomic.Int32
	net.Endpoint(1).SetHandler(func(types.ReplicaID, MsgType, []byte) { got.Add(1) })

	net.Crash(1)
	net.Endpoint(0).Send(1, 1, []byte("dropped"))
	time.Sleep(20 * time.Millisecond)
	if got.Load() != 0 {
		t.Fatal("crashed replica received a message")
	}
	net.Restart(1)
	net.Sever(0, 1)
	net.Endpoint(0).Send(1, 1, []byte("dropped"))
	// Reverse direction unaffected: 2 -> 1 works.
	net.Endpoint(2).Send(1, 1, []byte("ok"))
	time.Sleep(20 * time.Millisecond)
	if got.Load() != 1 {
		t.Fatalf("got %d messages, want exactly 1", got.Load())
	}
	net.Heal(0, 1)
	net.Endpoint(0).Send(1, 1, []byte("ok2"))
	time.Sleep(20 * time.Millisecond)
	if got.Load() != 2 {
		t.Fatal("healed link did not deliver")
	}
}

func TestSimDropRate(t *testing.T) {
	net := NewSimNetwork(SimConfig{N: 2, DropRate: 1.0})
	defer net.Close()
	var got atomic.Int32
	net.Endpoint(1).SetHandler(func(types.ReplicaID, MsgType, []byte) { got.Add(1) })
	for i := 0; i < 20; i++ {
		net.Endpoint(0).Send(1, 1, []byte("x"))
	}
	time.Sleep(20 * time.Millisecond)
	if got.Load() != 0 {
		t.Fatal("DropRate=1 delivered messages")
	}
}

func TestSimPartitionAndHealAll(t *testing.T) {
	net := NewSimNetwork(SimConfig{N: 4})
	defer net.Close()
	var got [4]atomic.Int32
	for i := 0; i < 4; i++ {
		i := i
		net.Endpoint(types.ReplicaID(i)).SetHandler(func(types.ReplicaID, MsgType, []byte) { got[i].Add(1) })
	}
	net.Partition([]types.ReplicaID{0, 1}, []types.ReplicaID{2, 3})
	net.Endpoint(0).Send(1, 1, []byte("same-side")) // delivered
	net.Endpoint(0).Send(2, 1, []byte("cross"))     // dropped
	net.Endpoint(3).Send(2, 1, []byte("same-side")) // delivered
	net.Endpoint(3).Send(1, 1, []byte("cross"))     // dropped
	time.Sleep(20 * time.Millisecond)
	if got[1].Load() != 1 || got[2].Load() != 1 {
		t.Fatalf("same-side traffic lost: %d %d", got[1].Load(), got[2].Load())
	}
	net.HealAll()
	net.Endpoint(0).Send(2, 1, []byte("post-heal"))
	time.Sleep(20 * time.Millisecond)
	if got[2].Load() != 2 {
		t.Fatal("HealAll did not restore cross-partition links")
	}
}

func TestSimIsolate(t *testing.T) {
	net := NewSimNetwork(SimConfig{N: 3})
	defer net.Close()
	var got [3]atomic.Int32
	for i := 0; i < 3; i++ {
		i := i
		net.Endpoint(types.ReplicaID(i)).SetHandler(func(types.ReplicaID, MsgType, []byte) { got[i].Add(1) })
	}
	net.Isolate(1)
	net.Endpoint(0).Send(1, 1, []byte("in"))   // dropped
	net.Endpoint(1).Send(0, 1, []byte("out"))  // dropped
	net.Endpoint(1).Send(1, 1, []byte("self")) // self-link survives
	net.Endpoint(0).Send(2, 1, []byte("side")) // unaffected
	time.Sleep(20 * time.Millisecond)
	if got[0].Load() != 0 || got[1].Load() != 1 || got[2].Load() != 1 {
		t.Fatalf("isolation wrong: got %d %d %d", got[0].Load(), got[1].Load(), got[2].Load())
	}
}

func TestSimRuntimeLossAndClearFaults(t *testing.T) {
	net := NewSimNetwork(SimConfig{N: 2})
	defer net.Close()
	var got atomic.Int32
	net.Endpoint(1).SetHandler(func(types.ReplicaID, MsgType, []byte) { got.Add(1) })
	net.SetLossRate(1.0)
	for i := 0; i < 10; i++ {
		net.Endpoint(0).Send(1, 1, []byte("x"))
	}
	time.Sleep(20 * time.Millisecond)
	if got.Load() != 0 {
		t.Fatal("SetLossRate(1) delivered messages")
	}
	net.ClearFaults() // baseline DropRate is 0
	net.Endpoint(0).Send(1, 1, []byte("x"))
	time.Sleep(20 * time.Millisecond)
	if got.Load() != 1 {
		t.Fatal("ClearFaults did not restore delivery")
	}
}

func TestSimAsymmetricLinkLoss(t *testing.T) {
	net := NewSimNetwork(SimConfig{N: 2})
	defer net.Close()
	var fwd, rev atomic.Int32
	net.Endpoint(1).SetHandler(func(types.ReplicaID, MsgType, []byte) { fwd.Add(1) })
	net.Endpoint(0).SetHandler(func(types.ReplicaID, MsgType, []byte) { rev.Add(1) })
	net.SetLinkLoss(0, 1, 1.0) // forward dead, reverse healthy
	for i := 0; i < 10; i++ {
		net.Endpoint(0).Send(1, 1, []byte("f"))
		net.Endpoint(1).Send(0, 1, []byte("r"))
	}
	time.Sleep(20 * time.Millisecond)
	if fwd.Load() != 0 || rev.Load() != 10 {
		t.Fatalf("asymmetric loss wrong: fwd=%d rev=%d", fwd.Load(), rev.Load())
	}
	net.SetLinkLoss(0, 1, -1) // remove override
	net.Endpoint(0).Send(1, 1, []byte("f"))
	time.Sleep(20 * time.Millisecond)
	if fwd.Load() != 1 {
		t.Fatal("link-loss override not removed")
	}
}

func TestSimDuplication(t *testing.T) {
	net := NewSimNetwork(SimConfig{N: 2, Seed: 42})
	defer net.Close()
	var got atomic.Int32
	net.Endpoint(1).SetHandler(func(types.ReplicaID, MsgType, []byte) { got.Add(1) })
	net.SetDuplicationRate(1.0)
	const sent = 10
	for i := 0; i < sent; i++ {
		net.Endpoint(0).Send(1, 1, []byte("d"))
	}
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() != 2*sent && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got.Load() != 2*sent {
		t.Fatalf("duplication rate 1: got %d deliveries, want %d", got.Load(), 2*sent)
	}
}

func TestSimLatencySpike(t *testing.T) {
	net := NewSimNetwork(SimConfig{N: 2})
	defer net.Close()
	rec := newRecorder()
	net.Endpoint(1).SetHandler(rec.handler())
	// Large enough that scheduler jitter (especially under -race on a
	// loaded runner) cannot blur the with/without-spike distinction.
	const spike = 300 * time.Millisecond
	net.SetExtraLatency(spike)
	start := time.Now()
	net.Endpoint(0).Send(1, 1, []byte("slow"))
	rec.wait(t, "0/1/slow")
	if elapsed := time.Since(start); elapsed < spike {
		t.Fatalf("delivered in %v despite %v spike", elapsed, spike)
	}
	net.ClearFaults()
	start = time.Now()
	net.Endpoint(0).Send(1, 1, []byte("fast"))
	rec.wait(t, "0/1/fast")
	if elapsed := time.Since(start); elapsed >= spike {
		t.Fatalf("spike persisted after ClearFaults: %v", elapsed)
	}
}

func TestSimClosedEndpointErrors(t *testing.T) {
	net := NewSimNetwork(SimConfig{N: 2})
	ep := net.Endpoint(0)
	ep.Close()
	if err := ep.Send(1, 1, nil); err != ErrClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	net.Close()
}

func TestSimPayloadCopied(t *testing.T) {
	net := NewSimNetwork(SimConfig{N: 2, Latency: UniformLatency(5*time.Millisecond, 5*time.Millisecond)})
	defer net.Close()
	rec := newRecorder()
	net.Endpoint(1).SetHandler(rec.handler())
	buf := []byte("orig")
	net.Endpoint(0).Send(1, 1, buf)
	buf[0] = 'X' // mutate after send
	rec.wait(t, "0/1/orig")
}

func TestTCPRoundTrip(t *testing.T) {
	// Bring up a 3-replica TCP committee on loopback.
	cfgs := make([]TCPConfig, 3)
	trs := make([]*TCPTransport, 3)
	peers := map[types.ReplicaID]string{}
	for i := range trs {
		cfgs[i] = TCPConfig{Self: types.ReplicaID(i), Listen: "127.0.0.1:0"}
		tr, err := NewTCPTransport(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		trs[i] = tr
		peers[types.ReplicaID(i)] = tr.Addr()
	}
	for i := range trs {
		trs[i].cfg.Peers = peers
	}
	recs := make([]*recorder, 3)
	for i := range recs {
		recs[i] = newRecorder()
		trs[i].SetHandler(recs[i].handler())
	}

	if err := trs[0].Send(1, 5, []byte("tcp-hello")); err != nil {
		t.Fatal(err)
	}
	recs[1].wait(t, "0/5/tcp-hello")

	// Self-send loops back.
	if err := trs[2].Send(2, 6, []byte("me")); err != nil {
		t.Fatal(err)
	}
	recs[2].wait(t, "2/6/me")

	// Broadcast reaches everyone.
	if err := trs[1].Broadcast(7, []byte("fan")); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		recs[i].wait(t, "1/7/fan")
	}
}

func TestTCPLargeFrame(t *testing.T) {
	a, err := NewTCPTransport(TCPConfig{Self: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPTransport(TCPConfig{Self: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.cfg.Peers = map[types.ReplicaID]string{1: b.Addr()}

	got := make(chan int, 1)
	b.SetHandler(func(from types.ReplicaID, mt MsgType, payload []byte) {
		got <- len(payload)
	})
	payload := make([]byte, 1<<20)
	if err := a.Send(1, 1, payload); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-got:
		if n != 1<<20 {
			t.Fatalf("payload truncated: %d", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("large frame not delivered")
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	a, err := NewTCPTransport(TCPConfig{Self: 0, Listen: "127.0.0.1:0",
		Peers: map[types.ReplicaID]string{}, RetryInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(9, 1, nil); err == nil {
		t.Fatal("send to unknown peer succeeded")
	}
}

func TestTCPCloseIdempotent(t *testing.T) {
	a, err := NewTCPTransport(TCPConfig{Self: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(0, 1, nil); err != ErrClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}
