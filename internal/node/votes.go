package node

import (
	"fmt"
	"time"

	"thunderbolt/internal/crypto"
	"thunderbolt/internal/dag"
	"thunderbolt/internal/metrics"
	"thunderbolt/internal/types"
)

// Two-hop certification, one signature per voter per round quorum.
//
// A voter broadcasts its votes to the whole committee, the proposer
// votes for its own block like everyone else, and every replica counts
// votes per (round, proposer) slot and places the vertex the moment one
// digest holds 2f+1 of them: block → votes, two message delays, and no
// certificate on the wire in steady state. Replicas assemble different
// quorums for one block; Certificate.Digest excludes the signatures, so
// they still agree on parent references.
//
// Votes travel in bundles. castVote journals the vote and records it in
// its slot (slottable.go) at once, but only queues it on the ballot;
// flushOutbox — the one place a pass's output leaves — seals the ballot
// into one Merkle tree over the block digests (types/merkle.go), signs
// the root once and broadcasts one MsgVote with the entries and that
// signature. A single vote is a bundle of one, whose root is the block
// digest itself; there is no other wire form.
//
// The batch is the round quorum, not the pass. A flush holds the ballot
// while every vote on it is for this replica's current round R
// (nextRound-1) and it has voted for fewer than 2f+1 of R's proposers
// (holdBallot). So the seal that reaches 2f+1 carries the replica's own
// vote and its first 2f peer votes under one signature; a vote for any
// other round, and a straggler at R cast after that seal, leave in the
// pass that cast them (with whatever is held); housekeeping's stall
// signal seals whatever is still held. There is no hold timer. Liveness,
// by induction on R: a held ballot waits only for honest blocks of round
// R; those need only certificates of round R−1, which need only round
// R−1 votes; and the pass that proposes R seals every R−1 vote, the own
// vote at R being off the old round. Round 1 blocks need no votes. So
// every honest replica votes for 2f+1 honest blocks of each round it
// reaches, and every held ballot is released. A receiver applies the
// per-vote rules to every entry and verifies nothing when no entry can
// still matter; otherwise it rebuilds the root from the entries it was
// sent, verifies once, and hands each open slot the signature with the
// entry's path. Signature plus path is a vote for that one block anyone
// can check alone, so a certificate assembled from bundled votes is as
// transferable as one over plain signatures.
//
// Safety: an honest replica signs at most one digest per slot (the
// slot's journaled vote, written before the seal; a slot is voted once,
// so no bundle holds two digests for it), so at most one digest per slot
// can gather 2f+1 votes, whoever counts. Every signature a replica
// counts it verified itself — over a root it recomputed, against the
// sender the transport delivered it from — or produced itself, so a
// certificate built from them is not verified again; it is still a
// transferable 2f+1-signature certificate, served by round pulls
// (MsgRoundReq) and checked whole by the receiver in handleCert.
//
// Votes may arrive before their block, or for a block this replica never
// voted for (its proposer equivocated and the committee settled on the
// other one). Either way they are counted in the slot's collector — one
// entry per voter, so never more than n votes — and a quorum for an
// unknown block parks the certificate in the slot and asks the proposer
// for the block.

// voteWindow is how many rounds past this replica's frontier votes are
// still collected. Replicas within a few rounds of each other certify
// from votes alone; one further behind than this cannot have collected
// the votes it missed and catches up from certificates instead
// (housekeeping's frontier pull), so collecting further ahead would
// only hand a Byzantine voter room to park votes in.
const voteWindow = 10

// maxBundle caps the entries of one vote bundle, sent or accepted: what
// a voter can have to say about a vote window's worth of rounds. It
// bounds what a Byzantine voter can make a peer hash for one signature.
// The same number bounds the messages parked per sender for the next
// epoch (parkFuture).
func (n *Node) maxBundle() int { return n.n * voteWindow }

// slotVote is one voter's vote in a slot: the digest it voted for, and
// the signature — aliasing the delivered message — with the path from
// the digest to the root it signs. A nil sig means no vote.
type slotVote struct {
	digest types.Digest
	sig    []byte
	path   types.MerklePath
}

// slotVotes is the quorum collector of one (round, proposer) slot.
type slotVotes struct {
	votes []slotVote // indexed by voter
	// lead is the digest of the first vote recorded and leadN its vote
	// count: with an honest proposer every vote is for lead, and the
	// quorum test is one comparison.
	lead  types.Digest
	leadN int
	n     int // votes recorded
	// done: a certificate was assembled; the collector lives on only
	// until the vertex lands (its block, or its parents, are missing).
	done bool
}

// add records voter's vote and returns how many votes d now holds.
func (s *slotVotes) add(voter types.ReplicaID, d types.Digest, sig []byte, path types.MerklePath) int {
	s.votes[voter] = slotVote{digest: d, sig: sig, path: path}
	if s.n == 0 {
		s.lead = d
	}
	s.n++
	if d == s.lead {
		s.leadN++
		return s.leadN
	}
	c := 0
	for i := range s.votes {
		if s.votes[i].sig != nil && s.votes[i].digest == d {
			c++
		}
	}
	return c
}

// certificate assembles the certificate for d from the recorded votes,
// in signer order. The signatures and paths are shared with the
// collector's entries, not copied.
func (s *slotVotes) certificate(d types.Digest, epoch types.Epoch, k voteKey, quorum int) *types.Certificate {
	cert := &types.Certificate{
		BlockDigest: d, Epoch: epoch, Round: k.round, Proposer: k.proposer,
		Sigs: make([]types.Signature, 0, quorum),
	}
	for id := range s.votes {
		if v := &s.votes[id]; v.sig != nil && v.digest == d {
			cert.Sigs = append(cert.Sigs, types.Signature{Signer: types.ReplicaID(id), Sig: v.sig, Path: v.path})
		}
	}
	return cert
}

// openSlot returns slot k's record while votes for it still count,
// giving it a collector on the slot's first vote. It returns nil once
// the slot is decided: below the GC floor, its vertex in the DAG, or its
// certificate assembled and waiting for the block or the parents.
func (n *Node) openSlot(k voteKey) *slot {
	if k.round < n.dagStore.Floor() {
		return nil
	}
	s := n.table.slot(k)
	if s.votes == nil {
		if _, ok := n.dagStore.Get(k.round, k.proposer); ok {
			return nil
		}
		n.table.openCollector(s)
	}
	if s.done {
		return nil
	}
	return s
}

// voteCeiling is the highest round votes are collected for.
func (n *Node) voteCeiling() types.Round {
	return max(n.dagStore.HighestRound(), n.nextRound) + voteWindow
}

// castVote votes for b in its slot s: journaled and recorded first, so
// neither a restart nor a second block can walk this replica into
// another digest, then queued on the ballot a flush seals.
// The caller has checked s.vote: this is the slot's first vote.
func (n *Node) castVote(b *types.Block, s *slot, d types.Digest) {
	n.noteOnly(voteNote(b.Epoch, b.Round, b.Proposer, d))
	n.voteUnsynced = n.durable != nil
	s.vote = d
	// a = proposer the vote is for.
	n.trace(metrics.EvVote, b.Round, uint64(b.Proposer), 0)
	n.ballot = append(n.ballot, voteEntry{Round: b.Round, Proposer: b.Proposer, Digest: d})
}

// sealVotes signs and queues the votes cast since the last seal — one
// bundle, one signature — and, when count is set, counts them in this
// replica's own collectors. With hold set it first leaves the ballot
// for a later flush while holdBallot says the round quorum is still
// forming. Nothing is signed before the journal entries of the votes
// cast since the last seal are on disk: castVote only buffers its note
// in the backend's pending group, and a crash between the wire and the
// group's flush would let the restarted replica sign a second digest
// for the slot. A seal with no vote cast since the last one pays
// nothing; one that has pays a single group flush (a replica whose
// journal fails must not sign at all, and the backend's next append
// would panic on the same error). Counting can certify a vertex, which
// can propose the next round and cast its vote: that one is sealed here
// too, or held on the same rule. The votes all belong to the current
// epoch: resetEpochState seals before it moves on — without counting,
// the collectors being about to go.
func (n *Node) sealVotes(count, hold bool) {
	for len(n.ballot) > 0 {
		if hold && n.holdBallot() {
			n.nm.voteSealHolds.Add(1)
			return
		}
		n.syncVotes()
		cast := n.ballot
		n.ballot = n.ballotSpare[:0] // votes cast while counting go to the other buffer
		for rest := cast; len(rest) > 0; {
			entries := rest[:min(len(rest), n.maxBundle())]
			rest = rest[len(entries):]
			sig := n.signVotes(n.bundleRoot(entries), len(entries))
			n.queueBcast(MsgVote, (&voteBundle{Epoch: n.epoch, Entries: entries, Sig: sig}).marshal())
			// Nothing counting sets off reads a bundle or seals one, so
			// the tree stands until the last path is taken.
			for i := 0; count && i < len(entries); i++ {
				e := &entries[i]
				n.countOwnVote(voteKey{round: e.Round, proposer: e.Proposer}, e.Digest, sig, n.voteTree.Path(i))
			}
		}
		n.ballotSpare = cast[:0]
	}
}

// syncVotes makes the votes journaled since the last sync durable. A
// replica whose journal fails must not sign or propose at all, and the
// backend's next append would panic on the same error.
func (n *Node) syncVotes() {
	if n.voteUnsynced {
		if err := n.cfg.Store.Sync(); err != nil {
			panic(fmt.Sprintf("node: vote journal not durable: %v", err))
		}
		n.voteUnsynced = false
	}
}

// holdBallot reports whether the ballot waits for more of its round:
// every vote on it is for this replica's current round, and it has
// voted for fewer than 2f+1 of that round's proposers. The quorum is
// read from the round's journaled votes, so a vote journaled before a
// restart counts.
func (n *Node) holdBallot() bool {
	r := n.nextRound - 1
	for i := range n.ballot {
		if n.ballot[i].Round != r {
			return false
		}
	}
	cast := 0
	if rs := n.table.rounds[r]; rs != nil {
		for i := range rs.slot {
			cast += b2i(!rs.slot[i].vote.IsZero())
		}
	}
	return cast < crypto.QuorumSize(n.n)
}

// bundleRoot builds the bundle's tree (left in voteTree for the paths)
// and returns what its signature signs. One entry costs no hashing: the
// root is its digest.
func (n *Node) bundleRoot(entries []voteEntry) types.Digest {
	n.leafBuf = n.leafBuf[:0]
	for i := range entries {
		n.leafBuf = append(n.leafBuf, entries[i].Digest)
	}
	return n.voteTree.Build(n.leafBuf)
}

// signVotes signs the root of a bundle of the given size whose every
// entry is a digest journaled for its slot (sealVotes, repeatVote —
// nothing else signs votes).
func (n *Node) signVotes(root types.Digest, entries int) []byte {
	sig := n.cfg.Signer.Sign(root)
	n.nm.voteSigsSigned.Add(1)
	n.nm.voteBundleEntries.Add(uint64(entries))
	return sig
}

// repeatVote returns the vote this replica already cast for slot k as
// a bundle of one, to be sent again (a stall rebroadcast, on either
// side). Only the journaled digest is ever repeated: ok is false when
// the slot's vote is for another digest — a restarted proposer
// re-proposes its slot with a new timestamp, and must not sign that
// second block — or was never cast, or is still on the ballot (sealed
// at the latest on this replica's own stall). The signature is the
// collector's when it holds a plain one over the digest; otherwise
// (restart, vertex landed, or the vote left in a larger bundle) the
// digest is signed again, and counted if the collector lacks it.
func (n *Node) repeatVote(k voteKey, d types.Digest) (payload []byte, ok bool) {
	s := n.table.find(k)
	if s == nil || s.vote != d {
		return nil, false
	}
	e := voteEntry{Round: k.round, Proposer: k.proposer, Digest: d}
	for i := range n.ballot {
		if n.ballot[i] == e {
			return nil, false
		}
	}
	var sig []byte
	if s.votes != nil {
		if own := &s.votes[n.cfg.ID]; own.sig != nil && own.digest == d && len(own.path.Sibs) == 0 {
			sig = own.sig
		}
	}
	if sig == nil {
		sig = n.signVotes(d, 1)
		n.countOwnVote(k, d, sig, types.MerklePath{})
	}
	return (&voteBundle{Epoch: n.epoch, Entries: []voteEntry{e}, Sig: sig}).marshal(), true
}

// countOwnVote counts this replica's vote in its own collector, unless
// the slot is decided or already holds it.
func (n *Node) countOwnVote(k voteKey, d types.Digest, sig []byte, path types.MerklePath) {
	if s := n.openSlot(k); s != nil && s.votes[n.cfg.ID].sig == nil {
		n.countVote(&s.slotVotes, n.cfg.ID, k, d, sig, path)
	}
}

// handleVote processes one voter's bundle. raw is the received payload;
// a bundle parked for the next epoch keeps those bytes.
func (n *Node) handleVote(from types.ReplicaID, vb *voteBundle, raw []byte) {
	if vb.Epoch > n.epoch {
		n.parkFuture(from, vb.Epoch, MsgVote, raw)
		return
	}
	if vb.Epoch < n.epoch || int(from) >= n.n || from == n.cfg.ID {
		return
	}
	if len(vb.Entries) == 0 || len(vb.Entries) > n.maxBundle() {
		return
	}
	// The rules a vote always had to pass, per entry: inside the window,
	// its slot still open, the voter's first for it. The first entry to
	// pass has the bundle verified, once, over the root of the entries as
	// sent — every one of them, countable or not: the voter signed them
	// together. A bundle none of whose entries pass is dropped unverified
	// — the quorums it would have joined formed without it. Each slot is
	// looked up as its entry comes: an earlier entry's vote can land
	// vertices and retire collectors, and a second entry for one slot
	// finds the first one there.
	ceiling := n.voteCeiling()
	verified := false
	for i := range vb.Entries {
		e := &vb.Entries[i]
		if int(e.Proposer) >= n.n || e.Round > ceiling {
			continue
		}
		k := voteKey{round: e.Round, proposer: e.Proposer}
		s := n.openSlot(k)
		if s == nil {
			n.nm.votesDroppedLate.Add(1)
			continue
		}
		if s.votes[from].sig != nil {
			continue
		}
		if !verified {
			n.nm.voteSigsVerified.Add(1)
			root := n.bundleRoot(vb.Entries)
			start := time.Now()
			ok := n.cfg.Verifier.Verify(from, root, vb.Sig)
			n.nm.voteVerifyNs.Observe(time.Since(start))
			if !ok {
				return
			}
			verified = true
		}
		if s.block(e.Digest) == nil {
			n.nm.votesEarly.Add(1)
		}
		n.countVote(&s.slotVotes, from, k, e.Digest, vb.Sig, n.voteTree.Path(i))
	}
}

// countVote counts one vote of the current epoch — verified by
// handleVote, or signed by this replica — toward its slot's quorum, and
// certifies the slot when the vote completes one.
func (n *Node) countVote(s *slotVotes, voter types.ReplicaID, k voteKey, d types.Digest, sig []byte, path types.MerklePath) {
	quorum := crypto.QuorumSize(n.n)
	if s.add(voter, d, sig, path) < quorum {
		return
	}
	s.done = true
	n.placeCert(s.certificate(d, n.epoch, k, quorum), k.proposer)
}

// placeCert pairs a certificate whose signatures this replica accepts —
// counted vote by vote here, or verified whole by handleCert — with its
// block and inserts the vertex. With the block unknown the certificate
// waits for it in the slot, and from is asked for the block.
func (n *Node) placeCert(c *types.Certificate, from types.ReplicaID) {
	s := n.table.slot(voteKey{round: c.Round, proposer: c.Proposer})
	if b := s.block(c.BlockDigest); b != nil {
		n.addVertex(&dag.Vertex{Block: b, Cert: c})
		return
	}
	s.cert = c
	n.queueTo(from, MsgBlockReq, (&blockReq{Round: c.Round, Proposer: c.Proposer, BlockDigest: c.BlockDigest}).marshal())
}
