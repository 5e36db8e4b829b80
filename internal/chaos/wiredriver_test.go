// wireDriver is the headless committee member the Byzantine scenarios
// script: it speaks the replica wire protocol — the two-hop
// certification flow of node/votes.go — from a raw SimNetwork endpoint,
// and leaves to each scenario what it proposes and whom it votes for.
//
// Like a replica it learns that a slot is certified by counting the
// votes the committee broadcasts — vote bundles, each checked once
// against the root of its entries — in one collector per block digest,
// and a round with 2f+1 certified slots lets it propose the next. Its
// own votes are bundles of one. It broadcasts a vote for every block it
// proposes itself, so
// honest replicas find the proposer's vote where they expect it;
// voting for peers is the scenario's choice. It serves MsgBlockReq for
// its own blocks and answers no other recovery request — a replica
// that needs a certificate the driver holds gets it from an honest
// peer.
package chaos

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thunderbolt/internal/crypto"
	"thunderbolt/internal/node"
	"thunderbolt/internal/transport"
	"thunderbolt/internal/types"
)

// proposal is one block a driver emits for its slot, and the peers it
// goes to (nil: every peer).
type proposal struct {
	block *types.Block
	to    []types.ReplicaID
}

type wireDriver struct {
	tr       transport.Transport
	self     types.ReplicaID
	n        int
	signer   crypto.Signer
	verifier crypto.Verifier

	// build returns the block(s) for the driver's slot in round r. Set
	// before start; runs under mu.
	build func(r types.Round, parents []types.Digest) []proposal
	// onPeerBlock and onPeerBundle, when set, see every proposal
	// received from its proposer and every vote bundle a peer sent (the
	// wire payload): where a scenario votes, honestly (vote) or
	// otherwise. withholdOwn keeps even the votes for the driver's own
	// blocks off the wire.
	onPeerBlock  func(b *types.Block)
	onPeerBundle func(from types.ReplicaID, payload []byte)
	withholdOwn  bool

	mu       sync.Mutex
	blocks   map[types.Digest]*types.Block            // own proposals
	tally    map[types.Digest]*crypto.QuorumCollector // every slot's votes, by block digest
	certs    map[types.Round]map[types.Digest]bool    // certificate digests per round
	proposed map[types.Round]bool

	peerBlocks   atomic.Uint64 // peer proposals received
	peerVotes    atomic.Uint64 // honest votes cast for peers
	ownVotes     atomic.Uint64 // peers' votes counted for own blocks
	ownCerts     atomic.Uint64 // own blocks that gathered a quorum
	slotsOpened  atomic.Uint64 // own slots proposed
	blocksServed atomic.Uint64 // MsgBlockReq answered
}

func newWireDriver(t *testing.T, h *Harness, id types.ReplicaID) *wireDriver {
	t.Helper()
	// The cluster derives committee keys from its seed; rebuilding the
	// same committee hands the driver replica id's real signing key —
	// an insider, not an outsider.
	signers, verifier, err := crypto.InsecureScheme{}.Committee(h.Cluster().N(), h.Seed())
	if err != nil {
		t.Fatal(err)
	}
	return &wireDriver{
		tr:   h.Net().Endpoint(id),
		self: id, n: h.Cluster().N(),
		signer: signers[id], verifier: verifier,
		blocks:   make(map[types.Digest]*types.Block),
		tally:    make(map[types.Digest]*crypto.QuorumCollector),
		certs:    make(map[types.Round]map[types.Digest]bool),
		proposed: make(map[types.Round]bool),
	}
}

// emptyBlock is a valid, empty proposal for the driver's slot in round r.
func (w *wireDriver) emptyBlock(r types.Round, parents []types.Digest) *types.Block {
	return &types.Block{
		Epoch: 0, Round: r, Proposer: w.self,
		Shard: node.MyShard(w.self, 0, w.n),
		Kind:  types.NormalBlock, Parents: parents,
		ProposedUnixNano: time.Now().UnixNano(),
	}
}

// start installs the handler and proposes round 1 (no parents).
func (w *wireDriver) start() {
	w.tr.SetHandler(w.handle)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.propose(1, nil)
}

// bundleEntry is one vote of a bundle: a slot and the digest voted for.
type bundleEntry struct {
	round    types.Round
	proposer types.ReplicaID
	digest   types.Digest
}

// bundleMsg encodes a MsgVote (see node/messages.go): epoch u64, entry
// count u32, per entry round u64, proposer u32 and block digest, then
// the signature bytes.
func bundleMsg(epoch types.Epoch, entries []bundleEntry, sig []byte) []byte {
	e := types.NewEncoder()
	e.U64(uint64(epoch))
	e.U32(uint32(len(entries)))
	for _, en := range entries {
		e.U64(uint64(en.round))
		e.U32(uint32(en.proposer))
		e.Digest(en.digest)
	}
	e.Bytes(sig)
	return e.Sum()
}

// bundleRoot is what a bundle's signature signs: the Merkle root of the
// entries' digests, in order — for one entry, its digest.
func bundleRoot(entries []bundleEntry) types.Digest {
	leaves := make([]types.Digest, len(entries))
	for i, en := range entries {
		leaves[i] = en.digest
	}
	var tree types.MerkleTree
	return tree.Build(leaves)
}

// voteMsg encodes a vote for one slot: a bundle of one, sig over d.
func voteMsg(epoch types.Epoch, r types.Round, proposer types.ReplicaID, d types.Digest, sig []byte) []byte {
	return bundleMsg(epoch, []bundleEntry{{r, proposer, d}}, sig)
}

// checkedAtReceipt is the verifier behind the driver's collectors: a
// bundle's signature is checked once, over its root, when the bundle
// arrives, and its entries are then tallied as they are.
type checkedAtReceipt struct{}

func (checkedAtReceipt) Verify(types.ReplicaID, types.Digest, []byte) bool { return true }

// handle runs on SimNetwork delivery goroutines.
func (w *wireDriver) handle(from types.ReplicaID, mt transport.MsgType, payload []byte) {
	switch mt {
	case node.MsgBatch:
		// Honest replicas coalesce a pass's traffic per peer; the frame
		// is [type u8][uvarint len][payload] repeated.
		for len(payload) > 0 {
			sub := transport.MsgType(payload[0])
			l, k := binary.Uvarint(payload[1:])
			if k <= 0 || uint64(len(payload)-1-k) < l {
				return
			}
			body := payload[1+k : 1+k+int(l)]
			payload = payload[1+k+int(l):]
			if sub != node.MsgBatch {
				w.handle(from, sub, body)
			}
		}
	case node.MsgBlock:
		var b types.Block
		if b.UnmarshalBinary(payload) != nil || from != b.Proposer || b.Proposer == w.self {
			return
		}
		w.peerBlocks.Add(1)
		if w.onPeerBlock != nil {
			w.onPeerBlock(&b)
		}
	case node.MsgVote:
		d := types.NewDecoder(payload)
		epoch := types.Epoch(d.U64())
		count := d.U32()
		if int(count) > len(payload)/44 {
			return
		}
		entries := make([]bundleEntry, count)
		for i := range entries {
			entries[i] = bundleEntry{types.Round(d.U64()), types.ReplicaID(d.U32()), d.Digest()}
		}
		sig := d.Bytes()
		if d.Finish() != nil || count == 0 || !w.verifier.Verify(from, bundleRoot(entries), sig) {
			return
		}
		for _, en := range entries {
			w.count(from, epoch, en.round, en.proposer, en.digest, sig)
		}
		if w.onPeerBundle != nil && from != w.self {
			w.onPeerBundle(from, payload)
		}
	case node.MsgBlockReq:
		// MsgBlockReq wire format: the block digest.
		d := types.NewDecoder(payload)
		dig := d.Digest()
		if d.Finish() != nil {
			return
		}
		w.mu.Lock()
		b := w.blocks[dig]
		w.mu.Unlock()
		if b != nil {
			bs, _ := b.MarshalBinary()
			_ = w.tr.Send(from, node.MsgBlock, bs)
			w.blocksServed.Add(1)
		}
	}
}

// vote casts the honest vote for a peer's block: signed over its
// digest, to the whole committee, counted here too.
func (w *wireDriver) vote(b *types.Block) {
	d := b.Digest()
	sig := w.signer.Sign(d)
	_ = w.tr.Broadcast(node.MsgVote, voteMsg(b.Epoch, b.Round, b.Proposer, d, sig))
	w.peerVotes.Add(1)
	w.count(w.self, b.Epoch, b.Round, b.Proposer, d, sig)
}

// count tallies one vote whose signature the caller checked or made;
// the vote that completes a slot's quorum records its certificate and
// may open the next round.
func (w *wireDriver) count(voter types.ReplicaID, epoch types.Epoch, r types.Round, proposer types.ReplicaID, dig types.Digest, sig []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	col := w.tally[dig]
	if col == nil {
		col = crypto.NewQuorumCollector(w.n, checkedAtReceipt{}, dig, epoch, r, proposer)
		w.tally[dig] = col
	}
	before := col.Count()
	cert, err := col.Add(voter, sig)
	if err != nil {
		return
	}
	if proposer == w.self && voter != w.self && col.Count() > before {
		w.ownVotes.Add(1)
	}
	if cert == nil {
		return
	}
	if proposer == w.self {
		w.ownCerts.Add(1)
	}
	rm := w.certs[cert.Round]
	if rm == nil {
		rm = make(map[types.Digest]bool)
		w.certs[cert.Round] = rm
	}
	rm[cert.Digest()] = true
	if len(rm) >= crypto.QuorumSize(w.n) && !w.proposed[cert.Round+1] {
		parents := make([]types.Digest, 0, len(rm))
		for d := range rm {
			parents = append(parents, d)
		}
		types.SortDigests(parents)
		w.propose(cert.Round+1, parents)
	}
}

// propose emits the scenario's block(s) for the slot, each followed —
// unless the driver withholds — by the driver's vote for it, to the
// whole committee. Callers hold w.mu.
func (w *wireDriver) propose(r types.Round, parents []types.Digest) {
	w.proposed[r] = true
	w.slotsOpened.Add(1)
	for _, p := range w.build(r, parents) {
		b := p.block
		d := b.Digest()
		w.blocks[d] = b
		sig := w.signer.Sign(d)
		col := crypto.NewQuorumCollector(w.n, checkedAtReceipt{}, d, b.Epoch, r, w.self)
		_, _ = col.Add(w.self, sig)
		w.tally[d] = col
		bs, _ := b.MarshalBinary()
		to := p.to
		if to == nil {
			for q := 0; q < w.n; q++ {
				if id := types.ReplicaID(q); id != w.self {
					to = append(to, id)
				}
			}
		}
		for _, id := range to {
			_ = w.tr.Send(id, node.MsgBlock, bs)
		}
		if !w.withholdOwn {
			_ = w.tr.Broadcast(node.MsgVote, voteMsg(b.Epoch, r, w.self, d, sig))
		}
	}
}
