package transport

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"thunderbolt/internal/metrics"
	"thunderbolt/internal/types"
)

// LatencyModel returns the one-way delay for a message from one
// replica to another. Jitter, asymmetry, and locality are all up to
// the model.
type LatencyModel func(from, to types.ReplicaID) time.Duration

// LANModel approximates a same-datacenter network: ~0.2ms ± jitter.
func LANModel() LatencyModel {
	return UniformLatency(150*time.Microsecond, 300*time.Microsecond)
}

// WANModel approximates a geo-distributed network: ~40ms ± jitter.
func WANModel() LatencyModel {
	return UniformLatency(30*time.Millisecond, 50*time.Millisecond)
}

// ZeroLatency delivers instantly (protocol-logic tests).
func ZeroLatency() LatencyModel {
	return func(types.ReplicaID, types.ReplicaID) time.Duration { return 0 }
}

// UniformLatency draws each delay uniformly from [lo, hi].
func UniformLatency(lo, hi time.Duration) LatencyModel {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(1))
	return func(types.ReplicaID, types.ReplicaID) time.Duration {
		if hi <= lo {
			return lo
		}
		mu.Lock()
		d := lo + time.Duration(rng.Int63n(int64(hi-lo)))
		mu.Unlock()
		return d
	}
}

// SimConfig parameterizes an in-process network.
type SimConfig struct {
	// N is the number of endpoints.
	N int
	// Committee bounds Broadcast fan-out: endpoints [0, Committee) are
	// committee replicas, endpoints [Committee, N) are client
	// endpoints (gateway clients) that are addressable by Send but
	// excluded from protocol broadcasts. 0 means every endpoint is a
	// committee member.
	Committee int
	// Latency models one-way link delay; nil means ZeroLatency.
	Latency LatencyModel
	// DropRate is the probability a message is silently lost.
	DropRate float64
	// Seed feeds the loss process.
	Seed int64
	// QueueLen bounds each link's in-flight queue (default 4096);
	// overflow blocks the sender, modelling backpressure. A handler
	// (which runs on the delivery goroutine) is never blocked: its sends
	// are admitted over the bound, since waiting would wait for itself.
	QueueLen int
}

// SimNetwork is a set of in-process endpoints joined by per-link FIFO
// queues with simulated delay. Beyond the static SimConfig knobs it
// supports runtime fault injection — link severing, replica crashes,
// adjustable loss and duplication rates, and latency spikes — all
// driven by the single seeded RNG so fault decisions replay
// deterministically for a given seed and message sequence.
type SimNetwork struct {
	cfg       SimConfig
	endpoints []*simEndpoint

	mu      sync.Mutex
	rng     *rand.Rand
	blocked map[[2]types.ReplicaID]bool // severed links
	crashed map[types.ReplicaID]bool

	// runtime-adjustable fault state (chaos harness knobs)
	lossRate    float64                              // global loss probability
	linkLoss    map[[2]types.ReplicaID]float64       // per-link override
	dupRate     float64                              // duplicate-delivery probability
	extraDelay  time.Duration                        // global added one-way delay
	linkDelay   map[[2]types.ReplicaID]time.Duration // per-link added delay
	interceptor Interceptor                          // Byzantine message mutation

	// Delivery state, owned by the dispatcher goroutine's lock (dmu,
	// separate from the fault-plan mu so fault injection never stalls
	// behind delivery bookkeeping). Release instants are nanoseconds of
	// monotonic time since base.
	dmu      sync.Mutex
	dcond    *sync.Cond // wakes senders blocked on a full link
	heap     []simMsg   // min-heap of in-flight messages by (release, seq)
	seq      uint64     // tiebreak: global send order
	inflight []int      // per (from*N+to) link in-flight counts
	lastRel  []int64    // per-link FIFO release clamp
	// armed is the release instant the dispatcher will wake for by
	// itself: enqueue kicks it only for an earlier one. MaxInt64 means
	// it waits for any send; MinInt64 that it will rescan regardless.
	armed       int64
	dispatcherG uint64 // the dispatcher's goroutine ID (see enqueue)
	dclosed     bool
	base        time.Time     // immutable
	wake        chan struct{} // kicks the dispatcher (enqueue, Close)

	// Used by the dispatcher goroutine alone (Close also closes idle).
	timer *time.Timer // park timer; stopped between parks
	idle  idleWake

	reg       *metrics.Registry
	delivered *metrics.Counter   // messages taken for delivery (a closed endpoint's are dropped)
	parks     *metrics.Counter   // times the dispatcher blocked instead of yielding
	kicks     *metrics.Counter   // wake-ups sent by enqueue
	lag       *metrics.Histogram // dispatcher's clock at pickup − release instant
}

// Interceptor inspects every surviving message before it is enqueued
// and may rewrite the payload or drop it (return ok=false). It is the
// chaos harness's Byzantine hook: a "lying" peer is modelled by
// mutating its outbound payloads on the wire. The returned slice is
// cloned by the network, and the function runs on the sender's
// goroutine — keep it fast and reentrant.
type Interceptor func(from, to types.ReplicaID, mt MsgType, payload []byte) (out []byte, ok bool)

type simMsg struct {
	from    types.ReplicaID
	to      types.ReplicaID
	mt      MsgType
	payload []byte
	release int64
	seq     uint64
}

type simEndpoint struct {
	net  *SimNetwork
	id   types.ReplicaID
	mu   sync.Mutex
	h    Handler
	done chan struct{}
	once sync.Once
}

// NewSimNetwork builds the network and starts its delivery goroutine.
func NewSimNetwork(cfg SimConfig) *SimNetwork {
	if cfg.Latency == nil {
		cfg.Latency = ZeroLatency()
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 4096
	}
	if cfg.Committee <= 0 || cfg.Committee > cfg.N {
		cfg.Committee = cfg.N
	}
	reg := metrics.NewRegistry()
	n := &SimNetwork{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		blocked:   make(map[[2]types.ReplicaID]bool),
		crashed:   make(map[types.ReplicaID]bool),
		lossRate:  cfg.DropRate,
		linkLoss:  make(map[[2]types.ReplicaID]float64),
		linkDelay: make(map[[2]types.ReplicaID]time.Duration),
		inflight:  make([]int, cfg.N*cfg.N),
		lastRel:   make([]int64, cfg.N*cfg.N),
		armed:     math.MinInt64, // the dispatcher's first scan sees every send
		base:      time.Now(),
		wake:      make(chan struct{}, 1),
		reg:       reg,
		delivered: reg.Counter("sim_delivered"),
		parks:     reg.Counter("sim_parks"),
		kicks:     reg.Counter("sim_kicks"),
		lag:       reg.Histogram("sim_delivery_lag_ns"),
	}
	n.dcond = sync.NewCond(&n.dmu)
	n.timer = time.NewTimer(time.Hour)
	n.timer.Stop()
	n.idle.open()
	n.endpoints = make([]*simEndpoint, cfg.N)
	for i := 0; i < cfg.N; i++ {
		n.endpoints[i] = &simEndpoint{
			net:  n,
			id:   types.ReplicaID(i),
			done: make(chan struct{}),
		}
	}
	go n.dispatch()
	return n
}

// The dispatcher's wait between releases takes turns while replicas
// run and parks when they don't. Both constants were measured on a
// 2-core x86-64 Linux VM (Go 1.24):
//
//   - busyYield: a runtime.Gosched that returns sooner than this ran
//     nobody else. With nothing else runnable a yield, clock read
//     included, takes 0.18 µs at p50 and 0.44 µs at p99.9, so 5 µs
//     is an order of magnitude clear of an idle yield.
//   - idleYields: this many quick yields in a row (≈ 1.5 µs) mean the
//     processor is idle, so the dispatcher parks. The count is not
//     sensitive: 1 and 32 measured within run-to-run noise of 8 on
//     lan-single (four alternating pairs each). A few in a row keep
//     one scheduling blip from costing a park and a wake-up.
const (
	busyYield  = 5 * time.Microsecond
	idleYields = 8
)

// dispatch is the single delivery goroutine: it owns a min-heap of
// in-flight messages ordered by (release, seq) and delivers each one
// when its release time arrives. Per-link FIFO order is preserved by
// construction — enqueue clamps each link's release times to be
// monotonic (see enqueue) — so delivery order per link equals send
// order.
func (n *SimNetwork) dispatch() {
	n.dmu.Lock()
	n.dispatcherG = goid()
	n.dmu.Unlock()
	var batch []simMsg
	for {
		n.dmu.Lock()
		if n.dclosed {
			n.dmu.Unlock()
			return
		}
		now := n.now()
		batch = batch[:0]
		for len(n.heap) > 0 && n.heap[0].release <= now {
			m := n.popHeap()
			n.inflight[int(m.from)*n.cfg.N+int(m.to)]--
			batch = append(batch, m)
		}
		next := int64(math.MaxInt64) // nothing in flight
		if len(n.heap) > 0 {
			next = n.heap[0].release
		}
		if len(batch) > 0 {
			n.armed = math.MinInt64 // the rescan after delivery sees every send
			n.dcond.Broadcast()     // senders blocked on a full link
		} else {
			n.armed = next
		}
		n.dmu.Unlock()
		if len(batch) == 0 {
			n.await(now, next)
			continue
		}
		n.delivered.Add(uint64(len(batch)))
		for _, m := range batch {
			n.lag.Observe(time.Duration(now - m.release))
			dst := n.endpoints[m.to]
			select {
			case <-dst.done:
				continue
			default:
			}
			dst.mu.Lock()
			h := dst.h
			dst.mu.Unlock()
			if h != nil {
				h(m.from, m.mt, m.payload)
			}
		}
	}
}

// await returns at next (a release instant; MaxInt64 for none), on a
// kick, or on Close. While runtime.Gosched hands the processor to
// someone else it keeps yielding — the round-robin that lets
// co-scheduled replicas run at GOMAXPROCS=1 — and once yields come
// straight back it parks rather than spin on an idle processor.
func (n *SimNetwork) await(now, next int64) {
	if next == math.MaxInt64 { // nothing in flight: block until a send
		n.parks.Add(1)
		<-n.wake
		return
	}
	for quick := 0; now < next; {
		if quick == idleYields {
			n.park(time.Duration(next - now))
			return
		}
		runtime.Gosched()
		// Single-case receive with default compiles to a non-blocking
		// runtime recv, not selectgo.
		select {
		case <-n.wake: // an earlier release was enqueued, or Close
			return
		default:
		}
		t := n.now()
		if time.Duration(t-now) < busyYield {
			quick++
		} else {
			quick = 0
		}
		now = t
	}
}

// park blocks for d, or until a kick or Close, on the dispatcher's one
// reused timer (a fresh NewTimer per wait was a measurable allocation
// source under load) with the idle wake armed to the same instant.
// The timer is set first: the wake must not fire before the timer is
// due, or the runtime polls again for the sub-millisecond remainder —
// rounded up to 1 ms.
func (n *SimNetwork) park(d time.Duration) {
	n.parks.Add(1)
	n.timer.Reset(d)
	n.idle.arm(d)
	select {
	case <-n.timer.C:
	case <-n.wake:
		if !n.timer.Stop() {
			select { // drain so the next Reset starts clean
			case <-n.timer.C:
			default:
			}
		}
	}
}

// now is the monotonic time since base: the clock of release instants.
func (n *SimNetwork) now() int64 { return int64(time.Since(n.base)) }

// kick wakes the dispatcher if it is not already due to wake.
func (n *SimNetwork) kick() {
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

// enqueue places one message in flight. It blocks while the link's
// in-flight count is at QueueLen (backpressure), and clamps the
// release time so each link delivers in send order. It kicks the
// dispatcher only when the message is due before the instant the
// dispatcher already waits for.
func (n *SimNetwork) enqueue(from *simEndpoint, to types.ReplicaID, mt MsgType, payload []byte, delay time.Duration) error {
	link := int(from.id)*n.cfg.N + int(to)
	n.dmu.Lock()
	for n.inflight[link] >= n.cfg.QueueLen && !n.dclosed {
		if goid() == n.dispatcherG {
			// A handler's send: only the dispatcher drains the link, so
			// waiting here would wedge the network. Admit it over the bound.
			break
		}
		select {
		case <-from.done:
			n.dmu.Unlock()
			return ErrClosed
		default:
		}
		n.dcond.Wait()
	}
	if n.dclosed {
		n.dmu.Unlock()
		return ErrClosed
	}
	rel := n.now() + int64(delay)
	if rel < n.lastRel[link] {
		rel = n.lastRel[link] // FIFO: never release before a predecessor
	}
	n.lastRel[link] = rel
	n.seq++
	n.pushHeap(simMsg{from: from.id, to: to, mt: mt, payload: payload, release: rel, seq: n.seq})
	n.inflight[link]++
	kick := rel < n.armed
	if kick {
		n.armed = math.MinInt64 // one kick per wait: the dispatcher rescans
	}
	n.dmu.Unlock()
	if kick {
		n.kicks.Add(1)
		n.kick()
	}
	return nil
}

// goid returns the calling goroutine's ID, parsed from the header
// runtime.Stack writes ("goroutine 42 [running]:"). Only the
// backpressure path calls it, to tell the dispatcher — on which every
// handler runs — from other senders.
func goid() uint64 {
	var buf [64]byte
	s := buf[len("goroutine "):runtime.Stack(buf[:], false)]
	var id uint64
	for _, c := range s {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// msgLess orders the delivery heap by release time, then send order.
func msgLess(a, b simMsg) bool {
	return a.release < b.release || a.release == b.release && a.seq < b.seq
}

func (n *SimNetwork) pushHeap(m simMsg) {
	n.heap = append(n.heap, m)
	i := len(n.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !msgLess(n.heap[i], n.heap[p]) {
			break
		}
		n.heap[i], n.heap[p] = n.heap[p], n.heap[i]
		i = p
	}
}

func (n *SimNetwork) popHeap() simMsg {
	top := n.heap[0]
	last := len(n.heap) - 1
	n.heap[0] = n.heap[last]
	n.heap[last] = simMsg{} // release payload reference
	n.heap = n.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && msgLess(n.heap[l], n.heap[small]) {
			small = l
		}
		if r < last && msgLess(n.heap[r], n.heap[small]) {
			small = r
		}
		if small == i {
			break
		}
		n.heap[i], n.heap[small] = n.heap[small], n.heap[i]
		i = small
	}
	return top
}

// Endpoint returns replica id's transport.
func (n *SimNetwork) Endpoint(id types.ReplicaID) Transport { return n.endpoints[id] }

// Sever cuts the directed link from a to b (messages dropped) until
// Heal is called.
func (n *SimNetwork) Sever(a, b types.ReplicaID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[[2]types.ReplicaID{a, b}] = true
}

// Heal restores the directed link from a to b.
func (n *SimNetwork) Heal(a, b types.ReplicaID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocked, [2]types.ReplicaID{a, b})
}

// Crash makes a replica unreachable (all inbound and outbound traffic
// dropped); used for the paper's failure experiments (Figure 17).
func (n *SimNetwork) Crash(id types.ReplicaID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed[id] = true
}

// Restart undoes Crash.
func (n *SimNetwork) Restart(id types.ReplicaID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.crashed, id)
}

// SeverBoth cuts both directions of the link between a and b.
func (n *SimNetwork) SeverBoth(a, b types.ReplicaID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[[2]types.ReplicaID{a, b}] = true
	n.blocked[[2]types.ReplicaID{b, a}] = true
}

// HealBoth restores both directions of the link between a and b.
func (n *SimNetwork) HealBoth(a, b types.ReplicaID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocked, [2]types.ReplicaID{a, b})
	delete(n.blocked, [2]types.ReplicaID{b, a})
}

// Partition severs every link that crosses group boundaries: replicas
// within one group keep talking, replicas in different groups cannot.
// Replicas in no group form an implicit final group. Existing severed
// links are preserved.
func (n *SimNetwork) Partition(groups ...[]types.ReplicaID) {
	groupOf := make(map[types.ReplicaID]int, n.cfg.N)
	for gi, g := range groups {
		for _, id := range g {
			groupOf[id] = gi + 1
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for i := 0; i < n.cfg.N; i++ {
		for j := 0; j < n.cfg.N; j++ {
			a, b := types.ReplicaID(i), types.ReplicaID(j)
			if a != b && groupOf[a] != groupOf[b] {
				n.blocked[[2]types.ReplicaID{a, b}] = true
			}
		}
	}
}

// Isolate severs every link to and from id (a reachability crash that
// still lets the replica talk to itself).
func (n *SimNetwork) Isolate(id types.ReplicaID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i := 0; i < n.cfg.N; i++ {
		o := types.ReplicaID(i)
		if o == id {
			continue
		}
		n.blocked[[2]types.ReplicaID{id, o}] = true
		n.blocked[[2]types.ReplicaID{o, id}] = true
	}
}

// HealAll removes every severed link and restarts every crashed
// replica. Loss, duplication, and latency faults are untouched (see
// ClearFaults).
func (n *SimNetwork) HealAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked = make(map[[2]types.ReplicaID]bool)
	n.crashed = make(map[types.ReplicaID]bool)
}

// SetLossRate adjusts the global message-loss probability at runtime
// (packet-loss bursts). The loss process stays on the seeded RNG.
func (n *SimNetwork) SetLossRate(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.lossRate = p
}

// SetLinkLoss overrides the loss probability of the directed link
// from a to b (asymmetric loss). A negative p removes the override.
func (n *SimNetwork) SetLinkLoss(a, b types.ReplicaID, p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p < 0 {
		delete(n.linkLoss, [2]types.ReplicaID{a, b})
		return
	}
	n.linkLoss[[2]types.ReplicaID{a, b}] = p
}

// SetDuplicationRate makes each surviving message be delivered twice
// with probability p (independent delay draws, so the copies reorder).
func (n *SimNetwork) SetDuplicationRate(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dupRate = p
}

// SetExtraLatency adds d to every one-way delay (latency spike).
func (n *SimNetwork) SetExtraLatency(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.extraDelay = d
}

// SetLinkLatency adds d to the directed link from a to b on top of
// the model and any global extra. d <= 0 removes the override.
func (n *SimNetwork) SetLinkLatency(a, b types.ReplicaID, d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if d <= 0 {
		delete(n.linkDelay, [2]types.ReplicaID{a, b})
		return
	}
	n.linkDelay[[2]types.ReplicaID{a, b}] = d
}

// SetInterceptor installs (or, with nil, removes) the message
// interceptor.
func (n *SimNetwork) SetInterceptor(fn Interceptor) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.interceptor = fn
}

// ClearFaults resets loss, duplication, latency, and interception to
// the configured baseline. Severed links and crashes are untouched
// (see HealAll).
func (n *SimNetwork) ClearFaults() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.lossRate = n.cfg.DropRate
	n.linkLoss = make(map[[2]types.ReplicaID]float64)
	n.dupRate = 0
	n.extraDelay = 0
	n.linkDelay = make(map[[2]types.ReplicaID]time.Duration)
	n.interceptor = nil
}

// plan makes every per-send fault decision under one lock so the
// seeded RNG's draw sequence is well-defined: drop?, extra delay,
// duplicate?, and which interceptor (if any) applies to this send.
func (n *SimNetwork) plan(from, to types.ReplicaID) (drop bool, extra time.Duration, dup bool, ic Interceptor) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.crashed[from] || n.crashed[to] || n.blocked[[2]types.ReplicaID{from, to}] {
		return true, 0, false, nil
	}
	p := n.lossRate
	if lp, ok := n.linkLoss[[2]types.ReplicaID{from, to}]; ok {
		p = lp
	}
	if p > 0 && n.rng.Float64() < p {
		return true, 0, false, nil
	}
	extra = n.extraDelay + n.linkDelay[[2]types.ReplicaID{from, to}]
	dup = n.dupRate > 0 && n.rng.Float64() < n.dupRate
	return false, extra, dup, n.interceptor
}

// Close shuts down every endpoint and the delivery dispatcher.
func (n *SimNetwork) Close() {
	for _, ep := range n.endpoints {
		_ = ep.Close()
	}
	n.dmu.Lock()
	closing := !n.dclosed
	n.dclosed = true
	n.dcond.Broadcast()
	n.dmu.Unlock()
	if closing {
		n.kick()
		n.idle.close()
	}
}

// Metrics returns the network's own registry: counters sim_delivered,
// sim_parks (the dispatcher blocked instead of yielding) and sim_kicks
// (a send woke it early), and the sim_delivery_lag_ns histogram — the
// dispatcher's clock when it takes a message for delivery minus the
// message's release instant, so how late the wait ends.
func (n *SimNetwork) Metrics() *metrics.Registry { return n.reg }

// --- simEndpoint (implements Transport) ---

func (e *simEndpoint) Self() types.ReplicaID { return e.id }

func (e *simEndpoint) SetHandler(h Handler) {
	e.mu.Lock()
	e.h = h
	e.mu.Unlock()
}

func (e *simEndpoint) Send(to types.ReplicaID, mt MsgType, payload []byte) error {
	return e.send(to, mt, payload, false)
}

// send enqueues one message. owned=true means the payload is already a
// clone the network may keep (Broadcast's shared copy); owned=false
// means the caller retains the buffer, so clone before enqueueing.
func (e *simEndpoint) send(to types.ReplicaID, mt MsgType, payload []byte, owned bool) error {
	select {
	case <-e.done:
		return ErrClosed
	default:
	}
	if int(to) >= len(e.net.endpoints) {
		return fmt.Errorf("transport: unknown peer %d", to)
	}
	drop, extra, dup, ic := e.net.plan(e.id, to)
	if drop {
		return nil // silently lost, like the wire
	}
	if ic != nil {
		out, ok := ic(e.id, to, mt, payload)
		if !ok {
			return nil // intercepted and dropped
		}
		// The interceptor may have returned (or rewritten into) a buffer
		// that aliases a shared broadcast clone; re-clone for this link.
		payload = out
		owned = false
	}
	if !owned {
		payload = append([]byte(nil), payload...)
	}
	if err := e.net.enqueue(e, to, mt, payload, e.net.cfg.Latency(e.id, to)+extra); err != nil {
		return err
	}
	if dup {
		// The duplicate shares the clone (read-only on delivery) but
		// draws its own delay, like the old per-link pumps.
		if err := e.net.enqueue(e, to, mt, payload, e.net.cfg.Latency(e.id, to)+extra); err != nil {
			return err
		}
	}
	return nil
}

func (e *simEndpoint) Broadcast(mt MsgType, payload []byte) error {
	// One clone shared by every recipient: delivery is read-only by
	// contract (the fault-plan duplicate above already leans on that),
	// so per-recipient clones only multiplied allocator and GC load —
	// broadcast payloads were the single largest allocation site in the
	// whole-cluster profile.
	cloned := append([]byte(nil), payload...)
	for i := 0; i < e.net.cfg.Committee; i++ {
		if err := e.send(types.ReplicaID(i), mt, cloned, true); err != nil {
			return err
		}
	}
	return nil
}

func (e *simEndpoint) Close() error {
	e.once.Do(func() {
		close(e.done)
		// Wake any sender blocked on one of this endpoint's full links
		// so it can observe the closed state.
		e.net.dmu.Lock()
		e.net.dcond.Broadcast()
		e.net.dmu.Unlock()
	})
	return nil
}
