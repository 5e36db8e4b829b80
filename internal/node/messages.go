package node

import (
	"encoding/binary"
	"fmt"

	"thunderbolt/internal/transport"
	"thunderbolt/internal/types"
)

// Protocol message types carried over the transport.
const (
	// MsgBlock broadcasts a proposed block (also used as the response
	// to MsgBlockReq).
	MsgBlock transport.MsgType = iota + 1
	// MsgVote carries one replica's vote bundle to the whole committee:
	// every slot it voted for in one event-loop pass, under one
	// signature over the Merkle root of the block digests (votes.go).
	// Every replica certifies blocks from the votes it counts. A repeat
	// vote, answering a proposer's stall rebroadcast, is a bundle of
	// one and goes to that proposer alone.
	MsgVote
	// MsgCert carries an assembled 2f+1 certificate. Recovery only —
	// the reply to MsgRoundReq — never steady-state traffic.
	MsgCert
	// MsgBlockReq asks a peer for the block with a given digest (sent
	// when a certificate — assembled from votes or received — precedes
	// its block).
	MsgBlockReq
	// MsgTx submits a client transaction to a shard proposer.
	MsgTx
	// MsgRoundReq is the one catch-up request: it asks a peer for
	// every certified vertex it holds at one round of the requester's
	// epoch. Everything a replica can miss is named by a round — a
	// vertex's parents are the previous round's certificates — so an
	// orphan pulls its parents' round, a stalled replica the round it
	// cannot leave (lost votes leave no orphan to re-request), and a
	// replica behind the committee the range up to it. The answer
	// depends on where the requester stands: within the server's GC
	// horizon, block + certificate per vertex; from a stale epoch or
	// below the floor, the signed snapshot manifest (MsgSnapManifest),
	// since round-by-round history no longer exists there.
	MsgRoundReq
	// MsgSnapManifest carries one replica's latest snapshot
	// (types.Snapshot: header, chunk digest list, dedup state — never
	// the ledger records), wrapped in a snapshotMsg that signs its
	// content digest. Sent in response to a MsgRoundReq from a stale
	// epoch or below the round archive: a stranded replica's round pulls
	// advertise its position, and the answer that can actually help it
	// is a snapshot. The digest covers the chunk digests, so the
	// f+1-signer install quorum authenticates every chunk, and each
	// chunk then fetched (MsgSnapChunkReq) verifies on its own. It is
	// the only form a snapshot is served in, whatever the ledger's
	// size: an empty ledger is a manifest of no chunks.
	MsgSnapManifest
	// MsgSnapChunkReq asks a peer for one chunk of the snapshot with
	// the given digest. Requesters spread chunk pulls across every
	// verified signer of the manifest and rotate on timeout, so a
	// crashed or withholding server costs one re-request, not the
	// rescue.
	MsgSnapChunkReq
	// MsgSnapChunk answers MsgSnapChunkReq with the encoded chunk
	// payload. Unsigned by design: the payload is verified against the
	// f+1-authenticated manifest's chunk digest, so a corrupt chunk is
	// detected and re-requested from another server regardless of who
	// sent it.
	MsgSnapChunk
	// MsgBatch is a coalesced multi-message frame: every protocol
	// message one node queued for one peer during a single event-loop
	// pass, concatenated into one envelope over the existing framing.
	// A round's worth of traffic (block + votes + recovery replies)
	// costs O(1) sends per peer instead of O(messages); the receiver
	// unpacks and dispatches each sub-message in order.
	MsgBatch
)

// appendBatched appends one [mt][uvarint len][payload] entry to a
// MsgBatch frame under construction.
func appendBatched(frame []byte, mt transport.MsgType, payload []byte) []byte {
	frame = append(frame, byte(mt))
	var tmp [10]byte
	n := binary.PutUvarint(tmp[:], uint64(len(payload)))
	frame = append(frame, tmp[:n]...)
	return append(frame, payload...)
}

// forEachBatched iterates a MsgBatch frame, calling fn for each
// sub-message. Sub-payloads alias the frame (the receiver owns it).
// Returns an error on a malformed frame; messages before the
// malformation have already been delivered to fn.
func forEachBatched(frame []byte, fn func(mt transport.MsgType, payload []byte)) error {
	for len(frame) > 0 {
		mt := transport.MsgType(frame[0])
		frame = frame[1:]
		l, n := binary.Uvarint(frame)
		if n <= 0 || uint64(len(frame)-n) < l {
			return fmt.Errorf("node: malformed batch frame")
		}
		fn(mt, frame[n:n+int(l)])
		frame = frame[n+int(l):]
	}
	return nil
}

// voteEntry is one vote of a bundle: the slot and the digest voted for.
type voteEntry struct {
	Round    types.Round
	Proposer types.ReplicaID
	Digest   types.Digest
}

// voteEntryWire is an entry's encoded size.
const voteEntryWire = 8 + 4 + 32

// voteBundle is the payload of MsgVote: the votes one replica cast in
// one pass, and its signature over the root of the Merkle tree whose
// leaves are the entries' digests, in order (the digest itself for a
// bundle of one). The digests cover their blocks' epoch, round and
// proposer, so the slot fields only say where to count each vote.
type voteBundle struct {
	Epoch   types.Epoch
	Entries []voteEntry
	Sig     []byte
}

func (v *voteBundle) marshal() []byte {
	e := types.GetEncoder()
	defer types.PutEncoder(e)
	e.U64(uint64(v.Epoch))
	e.U32(uint32(len(v.Entries)))
	for i := range v.Entries {
		e.U64(uint64(v.Entries[i].Round))
		e.U32(uint32(v.Entries[i].Proposer))
		e.Digest(v.Entries[i].Digest)
	}
	e.Bytes(v.Sig)
	return e.Detach()
}

// unmarshal decodes a bundle into v, reusing v.Entries' backing array
// (the event loop decodes every bundle into one scratch value). The
// signature aliases b: transport payloads are freshly allocated per
// delivery and handed over, so the shared decode saves the per-vote
// copy on the hottest small-message path.
func (v *voteBundle) unmarshal(b []byte) error {
	d := types.NewSharedDecoder(b)
	v.Epoch = types.Epoch(d.U64())
	count := int(d.U32())
	v.Entries = v.Entries[:0]
	if count > len(b)/voteEntryWire {
		return fmt.Errorf("node: vote bundle claims %d entries in %d bytes", count, len(b))
	}
	for i := 0; i < count; i++ {
		v.Entries = append(v.Entries, voteEntry{
			Round:    types.Round(d.U64()),
			Proposer: types.ReplicaID(d.U32()),
			Digest:   d.Digest(),
		})
	}
	v.Sig = d.Bytes()
	return d.Finish()
}

// blockReq is the payload of MsgBlockReq: the slot and the digest of
// the block asked for.
type blockReq struct {
	Round       types.Round
	Proposer    types.ReplicaID
	BlockDigest types.Digest
}

func (r *blockReq) marshal() []byte {
	e := types.NewEncoder()
	e.U64(uint64(r.Round))
	e.U32(uint32(r.Proposer))
	e.Digest(r.BlockDigest)
	return e.Sum()
}

func (r *blockReq) unmarshal(b []byte) error {
	d := types.NewDecoder(b)
	r.Round, r.Proposer, r.BlockDigest = types.Round(d.U64()), types.ReplicaID(d.U32()), d.Digest()
	return d.Finish()
}

// roundReq is the payload of MsgRoundReq.
type roundReq struct {
	Epoch types.Epoch
	Round types.Round
}

func (r *roundReq) marshal() []byte {
	e := types.NewEncoder()
	e.U64(uint64(r.Epoch))
	e.U64(uint64(r.Round))
	return e.Sum()
}

func (r *roundReq) unmarshal(b []byte) error {
	d := types.NewDecoder(b)
	r.Epoch = types.Epoch(d.U64())
	r.Round = types.Round(d.U64())
	return d.Finish()
}

// snapChunkReq is the payload of MsgSnapChunkReq: which chunk of
// which snapshot (by content digest).
type snapChunkReq struct {
	Snap  types.Digest
	Index uint32
}

func (r *snapChunkReq) marshal() []byte {
	e := types.NewEncoder()
	e.Digest(r.Snap)
	e.U32(r.Index)
	return e.Sum()
}

func (r *snapChunkReq) unmarshal(b []byte) error {
	d := types.NewDecoder(b)
	r.Snap = d.Digest()
	r.Index = d.U32()
	return d.Finish()
}

// snapChunk is the payload of MsgSnapChunk: one encoded chunk of the
// identified snapshot.
type snapChunk struct {
	Snap    types.Digest
	Index   uint32
	Payload []byte
}

func (c *snapChunk) marshal() []byte {
	e := types.GetEncoder()
	defer types.PutEncoder(e)
	e.Digest(c.Snap)
	e.U32(c.Index)
	e.Bytes(c.Payload)
	return e.Detach()
}

// unmarshal decodes a chunk message. Payload aliases b (owned
// transport payload), so the fetch path keeps the verified bytes
// without re-copying them.
func (c *snapChunk) unmarshal(b []byte) error {
	d := types.NewSharedDecoder(b)
	c.Snap = d.Digest()
	c.Index = d.U32()
	c.Payload = d.Bytes()
	return d.Finish()
}

// snapshotMsg is the payload of MsgSnapManifest: the serving replica's
// identity, its signature over the snapshot's content digest, and the
// encoded manifest. Transport sender IDs are not authenticated (a TCP
// frame carries whatever ID the sender claims), so the install quorum
// counts signers it has cryptographically verified — like votes and
// certificates, snapshot authenticity comes from the signature
// scheme, never from the transport.
type snapshotMsg struct {
	Signer types.ReplicaID
	Sig    []byte
	Snap   []byte
}

func (m *snapshotMsg) marshal() []byte {
	e := types.GetEncoder()
	defer types.PutEncoder(e)
	e.U32(uint32(m.Signer))
	e.Bytes(m.Sig)
	e.Bytes(m.Snap)
	return e.Detach()
}

// unmarshal decodes a snapshot message. Sig and Snap alias b (owned
// transport payload), which avoids re-copying the manifest's chunk
// digest list on the receive path.
func (m *snapshotMsg) unmarshal(b []byte) error {
	d := types.NewSharedDecoder(b)
	m.Signer = types.ReplicaID(d.U32())
	m.Sig = d.Bytes()
	m.Snap = d.Bytes()
	return d.Finish()
}

// inboundMsg is one transport delivery queued for the event loop.
type inboundMsg struct {
	from    types.ReplicaID
	mt      transport.MsgType
	payload []byte
}

func (m inboundMsg) String() string {
	return fmt.Sprintf("msg{from=%d type=%d len=%d}", m.from, m.mt, len(m.payload))
}
