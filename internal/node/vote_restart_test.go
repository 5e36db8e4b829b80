package node

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"thunderbolt/internal/contract"
	"thunderbolt/internal/crypto"
	"thunderbolt/internal/dag/dagtest"
	"thunderbolt/internal/storage"
	"thunderbolt/internal/transport"
	"thunderbolt/internal/types"
	"thunderbolt/internal/workload"
)

// voteRestartFixture is replica 0 of a committee of four on a durable
// store that can be crashed and reopened, with every vote signature
// that reaches a peer recorded — votes are broadcast — by receiver and
// by the digest signed, and every block by slot and digest. The
// recorders are installed before any vote is cast, so late deliveries
// cannot slip past them.
type voteRestartFixture struct {
	t        *testing.T
	net      *transport.SimNetwork
	dir      string
	ckpt     int
	group    time.Duration // the WAL's group-commit interval; 0 = default
	signers  []crypto.Signer
	verifier crypto.Verifier

	mu       sync.Mutex
	votesFor map[types.ReplicaID]map[types.Digest]int
	blocks   map[voteKey]map[types.Digest]bool
}

func newVoteRestartFixture(t *testing.T, checkpointEvery int) *voteRestartFixture {
	signers, verifier, err := crypto.InsecureScheme{}.Committee(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	f := &voteRestartFixture{
		t: t, net: transport.NewSimNetwork(transport.SimConfig{N: 4}),
		dir: t.TempDir(), ckpt: checkpointEvery,
		signers: signers, verifier: verifier,
		votesFor: make(map[types.ReplicaID]map[types.Digest]int),
		blocks:   make(map[voteKey]map[types.Digest]bool),
	}
	t.Cleanup(f.net.Close)
	for _, peer := range []types.ReplicaID{1, 2, 3} {
		f.votesFor[peer] = make(map[types.Digest]int)
		record := func(mt transport.MsgType, payload []byte) {
			var b types.Block
			if mt == MsgBlock && b.UnmarshalBinary(payload) == nil {
				f.mu.Lock()
				k := voteKey{round: b.Round, proposer: b.Proposer}
				if f.blocks[k] == nil {
					f.blocks[k] = make(map[types.Digest]bool)
				}
				f.blocks[k][b.Digest()] = true
				f.mu.Unlock()
				return
			}
			var v voteBundle
			if mt != MsgVote || v.unmarshal(payload) != nil {
				return
			}
			f.mu.Lock()
			for _, e := range v.Entries {
				f.votesFor[peer][e.Digest]++
			}
			f.mu.Unlock()
		}
		f.net.Endpoint(peer).SetHandler(func(_ types.ReplicaID, mt transport.MsgType, payload []byte) {
			if mt == MsgBatch {
				_ = forEachBatched(payload, record)
				return
			}
			record(mt, payload)
		})
	}
	return f
}

func (f *voteRestartFixture) open() *storage.Durable {
	d, err := storage.OpenDurable(storage.DurableOptions{Dir: f.dir, CheckpointEvery: f.ckpt, GroupInterval: f.group})
	if err != nil {
		f.t.Fatal(err)
	}
	return d
}

func (f *voteRestartFixture) build(st storage.Backend) *Node {
	reg := contract.NewRegistry()
	workload.RegisterSmallBank(reg)
	if st.Seq() == 0 {
		workload.InitAccounts(st, 8, 100, 100)
	}
	nd, err := New(Config{
		ID: 0, N: 4,
		Transport: f.net.Endpoint(0),
		Signer:    f.signers[0], Verifier: f.verifier,
		Registry: reg, Store: st,
	})
	if err != nil {
		f.t.Fatal(err)
	}
	return nd
}

// votes is how many votes for d reached peer.
func (f *voteRestartFixture) votes(peer types.ReplicaID, d types.Digest) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.votesFor[peer][d]
}

// digests is how many distinct digests peer received votes for.
func (f *voteRestartFixture) digests(peer types.ReplicaID) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.votesFor[peer])
}

// TestVoteJournalDurableBeforeWire: a vote's journal entry reaches the
// disk before the vote reaches the wire. The group-commit timer is out
// of reach and nothing calls Sync, so the only flush is the one sealing
// the ballot takes; a crash right after a peer holds the vote must
// still find it in the reopened journal.
func TestVoteJournalDurableBeforeWire(t *testing.T) {
	f := newVoteRestartFixture(t, -1)
	f.group = time.Hour
	d := f.open()
	n1 := f.build(d)
	blk := &types.Block{Epoch: 0, Round: 1, Proposer: 1, Kind: types.NormalBlock}
	n1.handleBlock(1, blk, nil)
	n1.flushOutbox()
	for deadline := time.Now().Add(5 * time.Second); f.votes(2, blk.Digest()) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the vote never reached replica 2")
		}
	}
	d.CloseAbrupt()

	d2 := f.open()
	defer d2.CloseAbrupt()
	n2 := f.build(d2)
	if got, ok := n2.table.vote(voteKey{round: 1, proposer: 1}); !ok || got != blk.Digest() {
		t.Fatalf("a vote a peer holds is missing from the reopened journal (present=%v)", ok)
	}
}

// TestFirstVoteJournaledAcrossRestart closes the crash-window
// equivocation hazard: a replica that votes on a slot, crashes, and
// restarts must refuse to sign a conflicting digest for that slot.
// The vote is journaled in the durable WAL sidecar before the
// signature leaves the replica — both through the note replay path
// and through checkpoint meta (a checkpoint truncates earlier notes,
// so the journaled votes must ride the meta too).
func TestFirstVoteJournaledAcrossRestart(t *testing.T) {
	for _, tc := range []struct {
		name            string
		checkpointEvery int
	}{
		{"note-replay", -1},    // checkpoints disabled: votes recover from notes
		{"checkpoint-meta", 1}, // checkpoint after every record: votes recover from meta
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newVoteRestartFixture(t, tc.checkpointEvery)
			open, build, votes := f.open, f.build, f.votes

			d := open()
			n1 := build(d)
			blk := &types.Block{Epoch: 0, Round: 1, Proposer: 1, Kind: types.NormalBlock}
			n1.handleBlock(1, blk, nil)
			n1.flushOutbox()
			k := voteKey{round: 1, proposer: 1}
			if got, _ := n1.table.vote(k); got != blk.Digest() {
				t.Fatal("vote not recorded before crash")
			}
			time.Sleep(50 * time.Millisecond)
			for _, peer := range []types.ReplicaID{1, 2, 3} {
				if votes(peer, blk.Digest()) != 1 {
					t.Fatalf("first vote reached replica %d %d times, want 1: votes go to the whole committee", peer, votes(peer, blk.Digest()))
				}
			}
			// An extra committed record pushes the vote behind a
			// checkpoint cut in the meta case.
			n1.applyCommit([]types.RWRecord{{
				Key:   workload.CheckingKey(workload.AccountName(0)),
				Value: contract.EncodeInt64(42),
			}}, nil)
			if err := d.Sync(); err != nil {
				t.Fatal(err)
			}
			d.CloseAbrupt()

			d2 := open()
			defer d2.CloseAbrupt()
			n2 := build(d2)
			if got, ok := n2.table.vote(k); !ok || got != blk.Digest() {
				t.Fatalf("journaled vote lost across restart (present=%v)", ok)
			}

			// A conflicting block for the voted slot: no overwrite, and
			// no signature over the conflicting digest ever leaves the
			// replica — not before the crash, not after.
			evil := &types.Block{Epoch: 0, Round: 1, Proposer: 1, Kind: types.NormalBlock,
				ProposedUnixNano: 999}
			if evil.Digest() == blk.Digest() {
				t.Fatal("fixture broken: conflicting block has same digest")
			}
			n2.handleBlock(1, evil, nil)
			// Re-sending the originally voted digest is idempotent and
			// fine (peers revote the same digest after lost messages).
			n2.handleBlock(1, blk, nil)
			n2.flushOutbox()
			time.Sleep(50 * time.Millisecond)
			if got, _ := n2.table.vote(k); got != blk.Digest() {
				t.Fatal("restarted replica overwrote its journaled vote")
			}
			for _, peer := range []types.ReplicaID{1, 2, 3} {
				if got := votes(peer, evil.Digest()); got != 0 {
					t.Fatalf("restarted replica sent replica %d %d votes for a conflicting digest on an already-voted slot", peer, got)
				}
			}
			// The repeat vote goes to the proposer, who asked, and is
			// counted in the restarted replica's own (empty) collector.
			if got := votes(1, blk.Digest()); got != 2 {
				t.Fatalf("proposer holds %d votes for the original digest, want the first and the repeat", got)
			}
			if s := n2.table.collector(k); s == nil || s.votes[0].digest != blk.Digest() {
				t.Fatal("restarted replica did not count its own repeat vote")
			}
			// Fresh slots still vote normally after recovery.
			blk2 := &types.Block{Epoch: 0, Round: 1, Proposer: 2, Kind: types.NormalBlock}
			n2.handleBlock(2, blk2, nil)
			if got, _ := n2.table.vote(voteKey{round: 1, proposer: 2}); got != blk2.Digest() {
				t.Fatal("recovered replica stopped voting on fresh slots")
			}
		})
	}
}

// TestRestartedProposerNeverSignsSecondDigest is the own-slot case of
// the same hazard. A replica that proposed — and so voted for — round r,
// crashed and restarted must not sign a second digest for its slot: a
// second proposal of r would carry one (its timestamp is hashed), and
// with f Byzantine voters two digests of one slot could both reach
// 2f+1. The restarted replica resumes above r
// (TestRestartNeverReproposesOwnSlot); walked back to r, propose
// refuses the slot, so no second block exists to sign. A replica that
// did not restart repeats the one vote it cast, without signing again.
// With no peer block arriving, the own vote waits on the ballot for its
// round's quorum until the first stalled tick seals it: that seal is
// the one signature the slot ever gets.
func TestRestartedProposerNeverSignsSecondDigest(t *testing.T) {
	f := newVoteRestartFixture(t, -1)
	stall := func(n *Node) {
		n.lastProgress = time.Now().Add(-time.Hour)
		n.housekeeping()
		n.flushOutbox()
		time.Sleep(50 * time.Millisecond)
	}
	k := voteKey{round: 1, proposer: 0}

	d := f.open()
	n1 := f.build(d)
	n1.propose()
	n1.flushOutbox()
	first := n1.lastBlock.Digest()
	if got, _ := n1.table.vote(k); got != first {
		t.Fatal("proposer did not journal the vote for its own block")
	}
	if got := n1.nm.voteSigsSigned.Value(); got != 0 {
		t.Fatalf("%d vote signatures before the round's quorum, want the own vote held", got)
	}
	// The first stalled tick re-sends the block (no vote was counted
	// since the proposal) and seals the held vote, which reaches every
	// peer once and is counted in the own collector.
	stall(n1)
	if got := n1.nm.voteSealsOnStall.Value(); got != 1 {
		t.Fatalf("vote_seals_on_stall = %d, want 1", got)
	}
	for _, peer := range []types.ReplicaID{1, 2, 3} {
		if got := f.votes(peer, first); got != 1 {
			t.Fatalf("replica %d holds %d votes for the proposal after the stall seal, want 1", peer, got)
		}
	}
	// No restart: the stall rebroadcast repeats the vote held in the
	// collector. (The second stalled tick only notes that the vote count
	// rose — by the proposer's own vote, counted at the seal.)
	held := n1.table.collector(k).votes[0].sig
	stall(n1)
	stall(n1)
	if got := n1.nm.stallRebroadcasts.Value(); got != 2 {
		t.Fatalf("stall_rebroadcasts = %d, want 2", got)
	}
	for _, peer := range []types.ReplicaID{1, 2, 3} {
		if got := f.votes(peer, first); got != 2 {
			t.Fatalf("replica %d holds %d votes for the proposal, want the first and the repeat", peer, got)
		}
	}
	if again := n1.table.collector(k).votes[0].sig; &again[0] != &held[0] {
		t.Fatal("the repeat vote replaced the signature the collector held")
	}
	if got := n1.nm.voteSigsSigned.Value(); got != 1 {
		t.Fatalf("%d vote signatures for one slot, want 1: the repeat signs nothing", got)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	d.CloseAbrupt()

	d2 := f.open()
	defer d2.CloseAbrupt()
	n2 := f.build(d2)
	if got, _ := n2.table.vote(k); got != first {
		t.Fatal("journaled own-slot vote lost across restart")
	}
	n2.nextRound = 1
	n2.propose()
	n2.flushOutbox()
	if n2.lastBlock != nil || n2.nextRound != 1 || n2.table.received(1, 0) != nil {
		t.Fatal("restarted proposer proposed its journaled slot again")
	}
	stall(n2)
	stall(n2)
	stall(n2)
	if got, _ := n2.table.vote(k); got != first {
		t.Fatal("restarted proposer overwrote its journaled vote")
	}
	if got := n2.nm.voteSigsSigned.Value(); got != 0 {
		t.Fatalf("restarted proposer signed %d votes with no block to vote for", got)
	}
	for _, peer := range []types.ReplicaID{1, 2, 3} {
		if got := f.digests(peer); got != 1 {
			t.Fatalf("replica %d received votes for %d digests of slot (1,0), want 1", peer, got)
		}
	}
}

// blockDigests is how many distinct blocks of slot k reached a peer.
func (f *voteRestartFixture) blockDigests(k voteKey) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.blocks[k])
}

// TestRestartNeverReproposesOwnSlot: a replica restarted from its WAL
// resumes above every own slot whose vote it journaled, and its event
// loop's first pass proposes nothing there. Proposing round 1 again —
// what starting at round 1 did — would put a second block, with a new
// digest, in a slot whose first block peers hold: the honest
// equivocation the fast commit rule must never see.
func TestRestartNeverReproposesOwnSlot(t *testing.T) {
	f := newVoteRestartFixture(t, -1)
	k := voteKey{round: 1, proposer: 0}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	d := f.open()
	n1 := f.build(d)
	n1.Start()
	waitFor("the round-1 proposal to reach the peers", func() bool { return f.blockDigests(k) == 1 })
	n1.Stop()
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	d.CloseAbrupt()

	d2 := f.open()
	defer d2.CloseAbrupt()
	n2 := f.build(d2)
	if n2.nextRound != 2 {
		t.Fatalf("restarted replica resumes at round %d, want 2: above its journaled slot (1,0)", n2.nextRound)
	}
	n2.Start()
	// Let the loop run its first pass and a few housekeeping ticks.
	time.Sleep(10 * n2.cfg.TickInterval)
	n2.Stop()
	if got := f.blockDigests(k); got != 1 {
		t.Fatalf("peers received %d blocks for slot (1,0), want the one proposed before the restart", got)
	}
	if s := n2.table.find(k); s != nil && len(s.blocks) > 0 {
		t.Fatal("restarted replica made a second block for its journaled slot (1,0)")
	}
	for _, peer := range []types.ReplicaID{1, 2, 3} {
		if got := f.digests(peer); got > 1 {
			t.Fatalf("replica %d received votes for %d digests of slot (1,0), want at most 1", peer, got)
		}
	}
}

// TestOwnBlockJournaledBeforeWire: a proposal reaches the wire only after
// its own vote's journal entry reaches the disk, though the vote itself
// waits on the ballot for the round's quorum. The group-commit timer is
// out of reach and nothing calls Sync: a crash right after a peer holds
// the block must still find the vote, so the restarted replica resumes
// above the block's round and never proposes it again.
func TestOwnBlockJournaledBeforeWire(t *testing.T) {
	f := newVoteRestartFixture(t, -1)
	f.group = time.Hour
	k := voteKey{round: 1, proposer: 0}
	d := f.open()
	n1 := f.build(d)
	n1.propose()
	n1.flushOutbox()
	time.Sleep(50 * time.Millisecond)
	if f.blockDigests(k) != 1 {
		t.Fatal("fixture broken: the proposal did not reach the peers")
	}
	if got := n1.nm.voteSigsSigned.Value(); got != 0 {
		t.Fatalf("fixture broken: %d vote signatures, want the own vote held on the ballot", got)
	}
	d.CloseAbrupt()

	d2 := f.open()
	defer d2.CloseAbrupt()
	n2 := f.build(d2)
	if got, ok := n2.table.vote(k); !ok || got != n1.lastBlock.Digest() {
		t.Fatalf("own vote for the proposal that reached the peers lost in the crash (present=%v)", ok)
	}
	if n2.nextRound != 2 {
		t.Fatalf("restarted replica resumes at round %d, want 2", n2.nextRound)
	}
}

// TestWalMetaDeterministic: the checkpoint meta writes the journaled
// votes in (round, proposer) order, so two metas of one state are
// byte-equal.
func TestWalMetaDeterministic(t *testing.T) {
	n, _ := voteTestNode(t, dagtest.NewCommittee(4), 0)
	for r := types.Round(1); r <= 8; r++ {
		for p := types.ReplicaID(1); p < 4; p++ {
			n.handleBlock(p, testBlock(r, p), nil)
		}
	}
	first := n.walMeta()
	for i := 0; i < 20; i++ {
		if !bytes.Equal(n.walMeta(), first) {
			t.Fatal("two checkpoint metas of one state differ")
		}
	}
}
