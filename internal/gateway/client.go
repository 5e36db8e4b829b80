package gateway

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"thunderbolt/internal/transport"
	"thunderbolt/internal/types"
)

// ClientIDBase is the conventional first wire ID for gateway clients
// over TCP transports: committee replicas occupy [0, n), and a client
// choosing an ID at or above this base can never collide with one. On
// a simulated network clients use the endpoint IDs the testbed
// reserved for them (any ID ≥ n works — replicas only care that it is
// not a committee member's).
const ClientIDBase = 1 << 16

// ClientConfig assembles a gateway client.
type ClientConfig struct {
	// Transport is the client's endpoint: a TCPTransport whose Self is
	// a unique non-committee ID (≥ ClientIDBase by convention) and
	// whose peer book lists the committee, or a reserved SimNetwork
	// endpoint. The client installs its own handler.
	Transport transport.Transport
	// N is the committee size (= shard count).
	N int
	// Session is the dedup session identity stamped on minted
	// transactions; it is required (nonzero), because replicas admit
	// only sessioned transactions. Sessions must be unique per client
	// lifetime and their nonces start at 1: a client that loses its
	// nonce counter opens a fresh session rather than guessing.
	Session uint64
	// AckTimeout bounds one submission attempt: if no ack, nack, or
	// commit arrives, the client fails over to the next replica
	// (default 500ms).
	AckTimeout time.Duration
	// RetryEvery re-sends an accepted-but-uncommitted submission
	// (losses, proposer restarts); default 250ms.
	RetryEvery time.Duration
	// Backoff is the wait after an out-of-window nack (default 20ms).
	Backoff time.Duration
}

// ErrWindowStalled reports that a session's dedup window has stopped
// moving: the committee keeps answering NackOutOfWindow, which means
// an earlier nonce was submitted and then abandoned, leaving a hole
// below the floor can never cross. The session is wedged by contract
// (at most a window of nonces may be outstanding); the caller should
// resubmit the abandoned transactions or open a fresh session.
var ErrWindowStalled = errors.New("gateway: session nonce window stalled — resubmit abandoned transactions or open a fresh session")

// windowStallNacks is how many consecutive out-of-window nacks
// SubmitWait tolerates (each separated by a backoff, giving earlier
// nonces time to resolve) before declaring the session stalled.
const windowStallNacks = 8

// Result reports how a submission resolved.
type Result struct {
	TxID types.Digest
	// Duplicate is true when the commit was observed via an
	// AckResolved duplicate answer — the transaction had already been
	// resolved by an earlier submission (the ack references that
	// original resolution).
	Duplicate bool
	// Reroutes counts misroute/epoch-ended nacks followed, Failovers
	// counts silent-proposer timeouts worked around.
	Reroutes  int
	Failovers int
}

// Client is the gateway client library: it mints sessioned
// transactions, routes each to the proposer serving its shard, and
// runs the full retry discipline — re-route on nack, back off on
// window pressure, fail over past silent proposers, retransmit until
// commit. Safe for concurrent use by multiple goroutines.
type Client struct {
	cfg ClientConfig

	nonce atomic.Uint64
	epoch atomic.Uint64 // best-known committee epoch

	mu      sync.Mutex
	waiters map[types.Digest]chan wireEvent

	// sendMu serializes wire writes: concurrent SubmitWait calls over
	// a TCP transport share one dialed connection per proposer, and
	// interleaved frame writes would corrupt the stream.
	sendMu sync.Mutex

	closeOnce sync.Once
	closed    chan struct{}
}

type wireEvent struct {
	kind transport.MsgType
	ack  Ack
	nack Nack
}

// NewClient builds a client over tr and installs its message handler.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Transport == nil {
		return nil, errors.New("gateway: transport required")
	}
	if cfg.N < 1 {
		return nil, errors.New("gateway: committee size required")
	}
	if cfg.Session == 0 {
		return nil, errors.New("gateway: session required")
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 500 * time.Millisecond
	}
	if cfg.RetryEvery <= 0 {
		cfg.RetryEvery = 250 * time.Millisecond
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 20 * time.Millisecond
	}
	c := &Client{
		cfg:     cfg,
		waiters: make(map[types.Digest]chan wireEvent),
		closed:  make(chan struct{}),
	}
	cfg.Transport.SetHandler(c.handle)
	return c, nil
}

// Close releases waiters; the transport is the caller's to close.
func (c *Client) Close() {
	c.closeOnce.Do(func() { close(c.closed) })
}

// Session returns the configured session identity.
func (c *Client) Session() uint64 { return c.cfg.Session }

// Mint stamps tx with this client's session identity and the next
// nonce. Transactions already carrying a session are left alone.
func (c *Client) Mint(tx *types.Transaction) *types.Transaction {
	if tx.Client == 0 {
		tx.Client = c.cfg.Session
	}
	if tx.Nonce == 0 {
		tx.Nonce = c.nonce.Add(1)
	}
	return tx
}

// handle demultiplexes gateway replies to the waiting submission.
func (c *Client) handle(_ types.ReplicaID, mt transport.MsgType, payload []byte) {
	var (
		id types.Digest
		ev wireEvent
	)
	switch mt {
	case MsgTxAck:
		if ev.ack.Unmarshal(payload) != nil {
			return
		}
		id = ev.ack.TxID
		c.noteEpoch(ev.ack.Epoch)
	case MsgTxNack:
		if ev.nack.Unmarshal(payload) != nil {
			return
		}
		id = ev.nack.TxID
		c.noteEpoch(ev.nack.Epoch)
	case MsgTxCommitted:
		var cm Committed
		if cm.Unmarshal(payload) != nil {
			return
		}
		id = cm.TxID
		c.noteEpoch(cm.Epoch)
	default:
		return
	}
	ev.kind = mt
	c.mu.Lock()
	ch := c.waiters[id]
	c.mu.Unlock()
	if ch != nil {
		select {
		case ch <- ev:
		default: // waiter backlogged; retransmission will re-answer
		}
	}
}

func (c *Client) noteEpoch(e types.Epoch) {
	for {
		cur := c.epoch.Load()
		if uint64(e) <= cur || c.epoch.CompareAndSwap(cur, uint64(e)) {
			return
		}
	}
}

// route returns the replica serving tx's (first) shard under the
// client's best-known epoch.
func (c *Client) route(tx *types.Transaction) types.ReplicaID {
	shard := types.ShardID(0)
	if len(tx.Shards) > 0 {
		shard = tx.Shards[0]
	}
	return ProposerOfShard(shard, types.Epoch(c.epoch.Load()), c.cfg.N)
}

func (c *Client) send(to types.ReplicaID, tx *types.Transaction) {
	b, err := tx.MarshalBinary()
	if err != nil {
		return
	}
	c.sendMu.Lock()
	_ = c.cfg.Transport.Send(to, MsgTxSubmit, b)
	c.sendMu.Unlock()
}

// Submit mints (if needed) and fire-and-forgets one transaction to
// the proposer serving its shard.
func (c *Client) Submit(tx *types.Transaction) {
	c.Mint(tx)
	if tx.SubmitUnixNano == 0 {
		tx.SubmitUnixNano = time.Now().UnixNano()
	}
	c.send(c.route(tx), tx)
}

// SubmitWait submits tx and blocks until it commits (directly, or as
// a duplicate of an earlier resolution), following nack re-route
// hints, backing off on window pressure, and failing over to the next
// replica when a proposer stays silent past AckTimeout — the retry
// discipline that lets a remote client ride out a proposer crash: the
// silent proposer times out, the next replica answers with a misroute
// nack naming the shard's owner (or a reconfiguration rotates the
// shard to a live one), and the resubmission lands.
//
// A transaction the caller gives up on (timeout, ErrWindowStalled)
// leaves a hole in the session's nonce window; once the session is a
// full window past the hole, further submissions stall with
// ErrWindowStalled until the hole is resubmitted or the caller opens
// a fresh session.
func (c *Client) SubmitWait(tx *types.Transaction, timeout time.Duration) (Result, error) {
	c.Mint(tx)
	if tx.SubmitUnixNano == 0 {
		tx.SubmitUnixNano = time.Now().UnixNano()
	}
	id := tx.ID()
	res := Result{TxID: id}

	ch := make(chan wireEvent, 8)
	c.mu.Lock()
	if _, dup := c.waiters[id]; dup {
		c.mu.Unlock()
		return res, fmt.Errorf("gateway: submission already in flight for %s", id)
	}
	c.waiters[id] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.waiters, id)
		c.mu.Unlock()
	}()

	deadline := time.Now().Add(timeout)
	target := c.route(tx)
	c.send(target, tx)
	accepted := false
	attemptAt := time.Now()
	outOfWindow := 0
	// One reused timer across wait quanta (stopped-and-drained before
	// each Reset); a fresh NewTimer per quantum was a steady
	// per-transaction allocation at load.
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		// One wait quantum: the failover timer while unacknowledged,
		// the retransmit timer once accepted.
		quantum := c.cfg.AckTimeout
		if accepted {
			quantum = c.cfg.RetryEvery
		}
		if rem := time.Until(deadline); rem <= 0 {
			return res, fmt.Errorf("gateway: tx %s not committed within %v", id, timeout)
		} else if quantum > rem {
			quantum = rem
		}
		if timer == nil {
			timer = time.NewTimer(quantum)
		} else {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(quantum)
		}
		select {
		case ev := <-ch:
			switch ev.kind {
			case MsgTxCommitted:
				return res, nil
			case MsgTxAck:
				switch ev.ack.Status {
				case AckResolved:
					res.Duplicate = true
					return res, nil
				case AckAccepted:
					accepted = true
					outOfWindow = 0
					target = ev.ack.Proposer
				}
			case MsgTxNack:
				accepted = false
				switch ev.nack.Reason {
				case NackMisroute, NackEpochEnded:
					res.Reroutes++
					outOfWindow = 0
					target = ev.nack.Proposer
					c.send(target, tx)
					attemptAt = time.Now()
				case NackOutOfWindow:
					if outOfWindow++; outOfWindow >= windowStallNacks {
						return res, ErrWindowStalled
					}
					time.Sleep(c.cfg.Backoff)
					c.send(target, tx)
					attemptAt = time.Now()
				}
			}
		case <-timer.C:
			if accepted {
				// Accepted but not yet committed: retransmit to the
				// current route (the dedup window absorbs duplicates;
				// a live proposer re-answers with a fresh ack). Demand
				// that fresh ack by dropping back to unaccepted — if
				// the proposer died after acking, silence now leads to
				// the failover branch instead of retransmitting at a
				// dead socket until the deadline.
				accepted = false
				c.send(c.route(tx), tx)
				attemptAt = time.Now()
				continue
			}
			// No answer at all: the proposer is down or unreachable.
			// Fail over to the next replica; a wrong guess costs one
			// misroute nack that carries the right route.
			if time.Since(attemptAt) >= c.cfg.AckTimeout {
				res.Failovers++
				target = types.ReplicaID((uint64(target) + 1) % uint64(c.cfg.N))
				c.send(target, tx)
				attemptAt = time.Now()
			}
		case <-c.closed:
			return res, errors.New("gateway: client closed")
		}
	}
}
