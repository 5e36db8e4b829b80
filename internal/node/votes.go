package node

import (
	"thunderbolt/internal/crypto"
	"thunderbolt/internal/dag"
	"thunderbolt/internal/metrics"
	"thunderbolt/internal/types"
)

// Two-hop certification.
//
// A voter broadcasts its MsgVote to the whole committee, the proposer's
// own vote rides in the flush that carries its block, and every replica
// counts votes per (round, proposer) slot and places the vertex the
// moment one digest holds 2f+1 of them: block → votes, two message
// delays, and no certificate on the wire in steady state. Replicas
// assemble different quorums for one block; Certificate.Digest excludes
// the signatures, so they still agree on parent references.
//
// Safety rests on what it always rested on: an honest replica signs at
// most one digest per slot (the journaled voted map), so at most one
// digest per slot can gather 2f+1 votes, whoever does the counting.
// Every signature a replica counts it either verified itself, against
// the sender the transport delivered it from, or produced itself; a
// certificate built from such votes is therefore not verified again.
// It is still a transferable 2f+1-signature certificate: recovery
// (MsgCertReq, MsgRoundReq) serves it, and the receiver checks it whole
// in handleCert.
//
// Votes may arrive before their block, or for a block this replica
// never voted for (its proposer equivocated and the committee settled
// on the other one). Either way they are counted in the slot's
// collector — one entry per voter per slot, so a slot never holds more
// than n votes — and a quorum for an unknown block parks the
// certificate and asks the proposer for the block, as a received
// certificate always did.

// voteWindow is how many rounds past this replica's frontier votes are
// still collected. Replicas within a few rounds of each other certify
// from votes alone; one further behind than this cannot have collected
// the votes it missed and catches up from certificates instead
// (housekeeping's frontier pull), so collecting further ahead would
// only hand a Byzantine voter room to park votes in.
const voteWindow = 10

// slotVote is one voter's vote in a slot: the digest it signed and the
// signature, aliasing the delivered message. A nil sig means no vote.
type slotVote struct {
	digest types.Digest
	sig    []byte
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
func (s *slotVotes) add(voter types.ReplicaID, d types.Digest, sig []byte) int {
	s.votes[voter] = slotVote{digest: d, sig: sig}
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
// in signer order. The signatures are shared with the collector's
// entries, not copied.
func (s *slotVotes) certificate(d types.Digest, epoch types.Epoch, k voteKey, quorum int) *types.Certificate {
	cert := &types.Certificate{
		BlockDigest: d, Epoch: epoch, Round: k.round, Proposer: k.proposer,
		Sigs: make([]types.Signature, 0, quorum),
	}
	for id := range s.votes {
		if v := &s.votes[id]; v.sig != nil && v.digest == d {
			cert.Sigs = append(cert.Sigs, types.Signature{Signer: types.ReplicaID(id), Sig: v.sig})
		}
	}
	return cert
}

// openSlot returns the slot's collector while votes for it still count,
// taking one off the free list (or allocating) on the slot's first
// vote. It returns nil once the slot is decided: below the GC floor,
// its vertex in the DAG, or its certificate assembled and waiting for
// the block or the parents.
func (n *Node) openSlot(k voteKey) *slotVotes {
	s, ok := n.slots[k]
	if ok {
		if s.done {
			return nil
		}
		return s
	}
	if k.round < n.dagStore.Floor() {
		return nil
	}
	if _, ok := n.dagStore.Get(k.round, k.proposer); ok {
		return nil
	}
	if last := len(n.slotFree) - 1; last >= 0 {
		s, n.slotFree[last] = n.slotFree[last], nil
		n.slotFree = n.slotFree[:last]
	} else {
		s = &slotVotes{votes: make([]slotVote, n.n)}
	}
	n.slots[k] = s
	return s
}

// releaseSlot retires the slot's collector — its vertex landed, or its
// round fell below the GC floor — and returns it to the free list.
func (n *Node) releaseSlot(k voteKey) {
	s, ok := n.slots[k]
	if !ok {
		return
	}
	delete(n.slots, k)
	clear(s.votes) // drop the delivery buffers the signatures alias
	*s = slotVotes{votes: s.votes}
	n.slotFree = append(n.slotFree, s)
}

// voteCeiling is the highest round votes are collected for.
func (n *Node) voteCeiling() types.Round {
	return max(n.dagStore.HighestRound(), n.nextRound) + voteWindow
}

// castVote signs b's digest for its slot — journaled first, so a
// restarted replica cannot be walked into a second digest — then
// broadcasts the vote and counts it here. The caller has checked the
// voted map: this is the slot's first vote.
func (n *Node) castVote(b *types.Block, k voteKey, d types.Digest) {
	n.noteOnly(voteNote(b.Epoch, k, d))
	n.voted[k] = d
	// a = proposer the vote is for.
	n.trace(metrics.EvVote, b.Round, uint64(b.Proposer), 0)
	v := n.signVote(b, d)
	n.queueBcast(MsgVote, v.marshal())
	n.countOwnVote(k, &v)
}

// repeatVote returns the vote this replica already cast for b's slot,
// to be sent again (a stall rebroadcast, on either side). Only the
// journaled digest is ever repeated: ok is false when the slot's vote
// is for another digest — a restarted proposer re-proposes its slot
// with a new timestamp, and must not sign that second block — or was
// never cast. The signature comes from the slot's collector; it is
// produced again only when the collector no longer holds it (restart,
// vertex landed), and then counted there.
func (n *Node) repeatVote(b *types.Block, k voteKey, d types.Digest) (v vote, ok bool) {
	if prev, voted := n.voted[k]; !voted || prev != d {
		return vote{}, false
	}
	if s, held := n.slots[k]; held {
		if own := &s.votes[n.cfg.ID]; own.sig != nil && own.digest == d {
			return vote{
				Epoch: b.Epoch, Round: b.Round, Proposer: b.Proposer,
				BlockDigest: d, Sig: own.sig,
			}, true
		}
	}
	v = n.signVote(b, d)
	n.countOwnVote(k, &v)
	return v, true
}

// countOwnVote counts this replica's vote in its own collector, unless
// the slot is decided or already holds it.
func (n *Node) countOwnVote(k voteKey, v *vote) {
	if s := n.openSlot(k); s != nil && s.votes[n.cfg.ID].sig == nil {
		n.countVote(s, n.cfg.ID, k, v.BlockDigest, v.Sig)
	}
}

// signVote signs d, the digest journaled for b's slot (castVote,
// repeatVote — nothing else signs votes). The signature enters the
// certificate verifier's memo: a certificate carrying it is never
// charged a verification for it.
func (n *Node) signVote(b *types.Block, d types.Digest) vote {
	sig := n.cfg.Signer.Sign(d)
	n.memoVerifier.Remember(n.cfg.ID, d, sig)
	return vote{
		Epoch: b.Epoch, Round: b.Round, Proposer: b.Proposer,
		BlockDigest: d, Sig: sig,
	}
}

func (n *Node) handleVote(from types.ReplicaID, v *vote, raw []byte) {
	if v.Epoch > n.epoch {
		// A peer already transitioned to the next DAG; keep its vote
		// (the received bytes, no re-encode) for replay after our own
		// transition.
		n.noteFutureEpoch(from, v.Epoch)
		n.futureMsgs = append(n.futureMsgs, inboundMsg{from: from, mt: MsgVote, payload: raw})
		return
	}
	if v.Epoch < n.epoch || int(v.Proposer) >= n.n || int(from) >= n.n || from == n.cfg.ID {
		return
	}
	if v.Round > n.voteCeiling() {
		return
	}
	k := voteKey{round: v.Round, proposer: v.Proposer}
	s := n.openSlot(k)
	if s == nil {
		n.nm.votesDroppedLate.Add(1) // the quorum formed without it
		return
	}
	if s.votes[from].sig != nil {
		return // one vote per voter per slot
	}
	if !n.cfg.Verifier.Verify(from, v.BlockDigest, v.Sig) {
		return
	}
	if _, ok := n.pendingBlocks[v.BlockDigest]; !ok {
		n.nm.votesEarly.Add(1)
	}
	n.countVote(s, from, k, v.BlockDigest, v.Sig)
}

// countVote counts one vote of the current epoch — verified by
// handleVote, or signed by this replica — toward its slot's quorum, and
// certifies the slot when the vote completes one.
func (n *Node) countVote(s *slotVotes, voter types.ReplicaID, k voteKey, d types.Digest, sig []byte) {
	quorum := crypto.QuorumSize(n.n)
	if s.add(voter, d, sig) < quorum {
		return
	}
	s.done = true
	n.placeCert(s.certificate(d, n.epoch, k, quorum), k.proposer)
}

// placeCert pairs a certificate whose signatures this replica accepts —
// counted vote by vote here, or verified whole by handleCert — with its
// block and inserts the vertex. With the block unknown the certificate
// waits for it, and from is asked for the block.
func (n *Node) placeCert(c *types.Certificate, from types.ReplicaID) {
	b, ok := n.pendingBlocks[c.BlockDigest]
	if !ok {
		n.certWait[c.BlockDigest] = c
		n.queueTo(from, MsgBlockReq, (&blockReq{BlockDigest: c.BlockDigest}).marshal())
		return
	}
	n.addVertex(&dag.Vertex{Block: b, Cert: c})
}

// earlyVotes counts the votes held for blocks this replica has not
// received (DebugView).
func (n *Node) earlyVotes() int {
	c := 0
	for _, s := range n.slots {
		for i := range s.votes {
			if v := &s.votes[i]; v.sig != nil {
				if _, ok := n.pendingBlocks[v.digest]; !ok {
					c++
				}
			}
		}
	}
	return c
}
