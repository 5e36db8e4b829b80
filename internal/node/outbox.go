package node

import (
	"thunderbolt/internal/metrics"
	"thunderbolt/internal/transport"
	"thunderbolt/internal/types"
)

// The outbox coalesces wire traffic: every protocol message a node
// produces during one event-loop pass is queued here and flushed once
// per pass — broadcast messages plus any per-peer replies fold into a
// single MsgBatch frame per peer, so a round costs O(1) sends per
// peer instead of O(messages). Payloads are marshaled exactly once at
// queue time, never per destination.
//
// Self-delivery is handled inline by the call sites (a replica counts
// its own votes in its own collectors as it seals their bundle), so the
// flush skips this node — the old loopback sends paid a full
// marshal/clone/decode cycle per round for state the node already
// held.

// outMsg is one queued wire message.
type outMsg struct {
	mt      transport.MsgType
	payload []byte
}

// Send-error classes for Stats: transport failures are counted per
// coarse message class so chaos scenarios can assert that steady-state
// sends to live peers never fail, and pinpoint the class when one does.
const (
	classBlock = iota // block dissemination (proposals, serve replies)
	classVote
	classCert
	classSync  // recovery requests: block and round pulls, tx relay
	classSnap  // snapshot rescue traffic
	classBatch // coalesced frames
	classOther // gateway client replies and anything unclassified
	numSendClasses
)

// sendClassName labels the Stats.SendErrors indices.
var sendClassName = [numSendClasses]string{
	"block", "vote", "cert", "sync", "snap", "batch", "other",
}

func sendClassOf(mt transport.MsgType) int {
	switch mt {
	case MsgBlock:
		return classBlock
	case MsgVote:
		return classVote
	case MsgCert:
		return classCert
	case MsgBlockReq, MsgRoundReq, MsgTx:
		return classSync
	case MsgSnapManifest, MsgSnapChunkReq, MsgSnapChunk:
		return classSnap
	case MsgBatch:
		return classBatch
	default:
		return classOther
	}
}

// noteSendErr accounts a transport send result. Errors are counted
// per message class, traced in the flight recorder, and reported
// through the node's rate-limited logger (a steady-state send to a
// live peer failing is an operational signal; the limiter keeps a
// sustained flap from repeating it at event-loop frequency).
func (n *Node) noteSendErr(mt transport.MsgType, err error) {
	if err == nil {
		return
	}
	class := sendClassOf(mt)
	n.nm.sendErrors[class].Add(1)
	// a = send class index (see sendClassName).
	n.trace(metrics.EvSendErr, n.nextRound-1, uint64(class), 0)
	n.nm.log.Warnf("transport send failed (class=%s): %v", sendClassName[class], err)
}

// queueBcast queues one message for every committee peer (self
// excluded; the caller has already applied it locally).
func (n *Node) queueBcast(mt transport.MsgType, payload []byte) {
	n.outBcast = append(n.outBcast, outMsg{mt: mt, payload: payload})
}

// queueTo queues one message for a single committee peer. Messages to
// this node itself are dropped — every call site handles its own
// state inline.
func (n *Node) queueTo(to types.ReplicaID, mt transport.MsgType, payload []byte) {
	if to == n.cfg.ID {
		return
	}
	if int(to) >= n.n {
		// Not a committee member (gateway client endpoint): clients do
		// not speak MsgBatch, send immediately.
		n.sendNow(to, mt, payload)
		return
	}
	n.outDirect[to] = append(n.outDirect[to], outMsg{mt: mt, payload: payload})
}

// sendNow bypasses coalescing (gateway client replies).
func (n *Node) sendNow(to types.ReplicaID, mt transport.MsgType, payload []byte) {
	n.noteSendErr(mt, n.cfg.Transport.Send(to, mt, payload))
}

// flushOutbox seals the ballot into one bundle, unless it is held for
// its round quorum (votes.go), and drains the queued traffic: per peer,
// a single message goes out as itself and anything more folds into one
// MsgBatch frame. The frame buffer is reused across flushes — both
// transports copy the payload before returning. A fresh own block
// leaves only once its own vote's journal entry is on disk, held ballot
// or not: a replica that crashed with the block out and the vote lost
// would resume below the block's round, and could propose it again.
func (n *Node) flushOutbox() {
	n.sealVotes(true, true)
	if n.ownUnsent {
		n.syncVotes()
		n.ownUnsent = false
	}
	direct := 0
	for i := range n.outDirect {
		direct += len(n.outDirect[i])
	}
	if len(n.outBcast) == 0 && direct == 0 {
		return
	}
	var flushBytes, flushFrames int64
	for p := 0; p < n.n; p++ {
		to := types.ReplicaID(p)
		if to == n.cfg.ID {
			continue
		}
		msgs := n.outDirect[p]
		total := len(n.outBcast) + len(msgs)
		switch {
		case total == 0:
			continue
		case total == 1:
			m := outMsg{}
			if len(n.outBcast) == 1 {
				m = n.outBcast[0]
			} else {
				m = msgs[0]
			}
			n.noteSendErr(m.mt, n.cfg.Transport.Send(to, m.mt, m.payload))
			flushBytes += int64(len(m.payload))
			flushFrames++
		default:
			frame := n.frameBuf[:0]
			for _, m := range n.outBcast {
				frame = appendBatched(frame, m.mt, m.payload)
			}
			for _, m := range msgs {
				frame = appendBatched(frame, m.mt, m.payload)
			}
			n.frameBuf = frame
			n.noteSendErr(MsgBatch, n.cfg.Transport.Send(to, MsgBatch, frame))
			flushBytes += int64(len(frame))
			flushFrames++
		}
	}
	// Coalescing-efficiency gauges: wire cost of this flush.
	n.nm.outboxFlushBytes.Set(flushBytes)
	n.nm.outboxFlushFrames.Set(flushFrames)
	n.outBcast = n.outBcast[:0]
	for i := range n.outDirect {
		n.outDirect[i] = n.outDirect[i][:0]
	}
}
