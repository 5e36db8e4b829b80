package node

import (
	"time"

	"thunderbolt/internal/types"
)

// Chunked snapshot transfer (the second half of snapshot.go's rescue
// protocol, at every ledger size). Once f+1 verified signers vouch
// for a manifest, every chunk digest in it is authenticated — so the
// chunk payloads themselves need no signatures and can be pulled from
// any server that has them, in any order, across housekeeping ticks.
// The fetch state machine here is built to survive exactly the
// conditions a rescue runs under:
//
//   - a window of requests in flight at once, spread round-robin over
//     the manifest's signers, so one slow server bounds one chunk,
//     not the transfer;
//   - per-request timeouts with rotation to the next server, so a
//     server that crashes (or silently withholds) mid-rescue costs a
//     timeout, not the rescue;
//   - digest verification per chunk, so a corrupt payload costs one
//     re-request;
//   - an incremental pass before the first request: chunks whose
//     digests this replica's current state already reproduces are
//     taken locally and never fetched (a briefly stranded replica
//     re-downloads its delta, not the ledger).
//
// The serving side is one map lookup per request, bounded per tick by
// chunkServeBudget so a rescue cannot starve the server's own round
// traffic.

const (
	// chunkFetchWindow is the number of chunk requests kept in flight.
	chunkFetchWindow = 8
	// chunkReqTimeoutTicks is how many housekeeping ticks an
	// unanswered chunk request waits before rotating to another server
	// (matches the round-pull re-ask period in pullRound).
	chunkReqTimeoutTicks = 4
)

// chunkFetch is an in-progress chunked snapshot download.
type chunkFetch struct {
	snap    *types.Snapshot   // the f+1-verified manifest
	dig     types.Digest      // snap.Digest(), cached as the request key
	servers []types.ReplicaID // verified signers of the manifest digest
	// Per-chunk progress: the encoded payload (for serving after
	// install), the decoded records (nil for locally-skipped chunks —
	// their state is already applied), and completion flags.
	payloads [][]byte
	recs     [][]types.RWRecord
	done     []bool
	pending  int // chunks not yet done
	inflight map[int]chunkReqState
	rot      int // rotating cursor into servers
}

type chunkReqState struct {
	peer types.ReplicaID
	at   time.Time
}

// startChunkFetch begins (or refreshes) the chunked download of an
// f+1-verified manifest; a manifest of no chunks (an empty ledger)
// installs at once. A repeat call for the digest already being
// fetched just adopts the wider server set — newly arrived signers
// join the rotation without restarting progress.
func (n *Node) startChunkFetch(snap *types.Snapshot, servers []types.ReplicaID) {
	if len(servers) == 0 {
		return
	}
	dig := snap.Digest()
	if f := n.fetch; f != nil && f.dig == dig {
		f.servers = servers
		n.pumpChunkFetch()
		return
	}
	nchunks := len(snap.ChunkDigests)
	f := &chunkFetch{
		snap:     snap,
		dig:      dig,
		servers:  servers,
		payloads: make([][]byte, nchunks),
		recs:     make([][]types.RWRecord, nchunks),
		done:     make([]bool, nchunks),
		pending:  nchunks,
		inflight: make(map[int]chunkReqState),
	}
	n.fetch = f
	// Incremental pass: take the store's own chunks, when they have
	// the manifest's geometry, and keep every chunk whose digest
	// already matches — its records are already in the store, so it
	// needs neither a fetch nor a write at install. The encoded payload
	// is kept anyway: the installed snapshot serves chunks to later
	// stragglers.
	if led := n.cfg.Store.Chunks(); led.Size == int(snap.ChunkSize) {
		skipped := uint64(0)
		for i := 0; i < nchunks && i < len(led.Digests); i++ {
			if led.Digests[i] == snap.ChunkDigests[i] {
				f.payloads[i] = led.Enc[i]
				f.done[i] = true
				f.pending--
				skipped++
			}
		}
		if skipped > 0 {
			n.nm.snapChunksSkipped.Add(skipped)
		}
	}
	if f.pending == 0 {
		n.finishChunkFetch(f)
		return
	}
	n.pumpChunkFetch()
}

// pumpChunkFetch drives the in-progress download: expire timed-out
// requests (rotating blame-free to the next server) and top the
// in-flight window back up. Called from housekeeping each tick and
// after every chunk arrival.
func (n *Node) pumpChunkFetch() {
	f := n.fetch
	if f == nil {
		return
	}
	timeout := chunkReqTimeoutTicks * n.cfg.TickInterval
	for i, st := range f.inflight {
		if f.done[i] {
			delete(f.inflight, i)
			continue
		}
		if time.Since(st.at) >= timeout {
			delete(f.inflight, i)
			n.nm.snapChunkRetries.Add(1)
		}
	}
	for i := range f.done {
		if len(f.inflight) >= chunkFetchWindow {
			return
		}
		if f.done[i] {
			continue
		}
		if _, busy := f.inflight[i]; busy {
			continue
		}
		peer := f.servers[f.rot%len(f.servers)]
		f.rot++
		f.inflight[i] = chunkReqState{peer: peer, at: time.Now()}
		req := (&snapChunkReq{Snap: f.dig, Index: uint32(i)}).marshal()
		n.sendNow(peer, MsgSnapChunkReq, req)
	}
}

// handleSnapChunk verifies one arriving chunk against the manifest
// and records it. The sender is irrelevant: the payload either
// matches the f+1-authenticated chunk digest or it is discarded and
// re-requested elsewhere.
func (n *Node) handleSnapChunk(_ types.ReplicaID, c *snapChunk) {
	f := n.fetch
	if f == nil || c.Snap != f.dig {
		return
	}
	i := int(c.Index)
	if i < 0 || i >= len(f.done) || f.done[i] {
		return
	}
	recs, err := f.snap.VerifyChunk(i, c.Payload)
	if err != nil {
		// Corrupt (or malicious) payload: one re-request, charged as a
		// retry. The rotation in pumpChunkFetch naturally asks a
		// different server next.
		delete(f.inflight, i)
		n.nm.snapChunkRetries.Add(1)
		n.pumpChunkFetch()
		return
	}
	// Payload aliases the transport buffer, which is freshly allocated
	// per delivery and handed over — safe to retain for serving.
	f.payloads[i] = c.Payload
	f.recs[i] = recs
	f.done[i] = true
	f.pending--
	delete(f.inflight, i)
	n.nm.snapChunksFetched.Add(1)
	if f.pending == 0 {
		n.finishChunkFetch(f)
		return
	}
	n.pumpChunkFetch()
}

// finishChunkFetch assembles the completed download and installs it.
// Only fetched chunks contribute writes — locally-skipped chunks are
// already in the store — so the install's apply batch is the delta,
// which is the whole point of the incremental pass.
func (n *Node) finishChunkFetch(f *chunkFetch) {
	var writes []types.RWRecord
	for _, r := range f.recs {
		writes = append(writes, r...)
	}
	n.installSnapshot(f.snap, writes, f.payloads)
}

// handleSnapChunkReq serves one chunk of this node's latest capture,
// within the per-tick budget. Requests for any other snapshot digest
// (a stale capture this node has since replaced) go unanswered; the
// requester's timeout rotation finds a server that still has it, or
// its candidate set converges on a newer manifest.
func (n *Node) handleSnapChunkReq(from types.ReplicaID, r *snapChunkReq) {
	snap := n.lastSnap
	if snap == nil || from == n.cfg.ID || snap.Digest() != r.Snap {
		return
	}
	i := int(r.Index)
	if i < 0 || i >= len(n.snapChunks) {
		return
	}
	if n.chunkBudget <= 0 {
		return // over budget this tick; the requester retries
	}
	n.chunkBudget--
	msg := (&snapChunk{Snap: r.Snap, Index: r.Index, Payload: n.snapChunks[i]}).marshal()
	n.sendNow(from, MsgSnapChunk, msg)
	n.nm.snapChunksServed.Add(1)
}
