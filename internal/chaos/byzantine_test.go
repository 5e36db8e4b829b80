// Byzantine chaos scenarios: faults that lie rather than fail.
//
// The equivocating-proposer scenario drives one committee slot at the
// wire level (a headless replica whose SimNetwork endpoint is scripted
// by the test): every round it emits two distinct blocks for the same
// (round, proposer) slot to different halves of the committee. The
// per-slot vote guard plus 2f+1 certification must ensure at most one
// of the pair ever certifies, and the honest majority must keep
// committing with prefix-consistent logs and conserved balances.
//
// The lying-snapshot-server scenario corrupts the cross-epoch recovery
// path instead: a stranded replica fetching a later epoch's snapshot gets
// a properly signed but forged manifest from one peer, which would
// serve the matching forged chunks. The f+1 matching-digest rule must
// reject the lie and install the honest state.
package chaos

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thunderbolt/internal/crypto"
	"thunderbolt/internal/node"
	"thunderbolt/internal/transport"
	"thunderbolt/internal/types"
)

// newEquivocator scripts replica id as a proposer that emits two
// conflicting blocks per round, each to its own part of the committee,
// and votes for both — to everyone. It never votes for anyone else: a
// worst-case proposer that is live enough to keep getting certified.
// Whichever of the pair the larger part voted for gathers 2f+1 votes on
// every honest replica, including the ones that were sent — and voted
// for — the other: those certify a block they never saw and fetch it
// from the driver, which serves both variants. The pair names
// different parents: the larger part's variant omits one slot of the
// round below whenever more than a quorum of it is certified (the
// driver holds a round open for its stragglers, as honest proposers
// do), so the replica sent the other variant holds, from the proposer
// itself, a reference that the certified block does not make — the
// case the fast commit's 3f+1 threshold is set against. refSplits
// counts those rounds.
func newEquivocator(t *testing.T, h *Harness, id types.ReplicaID) *wireDriver {
	w := newWireDriver(t, h, id)
	w.holdFor = 10 * time.Millisecond
	w.build = func(r types.Round, parents []types.Digest) []proposal {
		pair := make([]proposal, 2)
		for i := range pair {
			pair[i].block = w.emptyBlock(r, parents)
			// Distinct timestamps make the pair distinct blocks with
			// distinct digests — a real double proposal.
			pair[i].block.ProposedUnixNano += int64(i)
		}
		// Variant 0 goes to the larger part (below), so it is the one
		// certified.
		if len(parents) > crypto.QuorumSize(w.n) {
			omit := int(r) % len(parents)
			pair[0].block.Parents = slices.Delete(slices.Clone(parents), omit, omit+1)
			w.refSplits.Add(1)
		}
		// Alternate the split so every honest replica sees both variants
		// over time.
		for p := 0; p < w.n; p++ {
			id := types.ReplicaID(p)
			if id == w.self {
				continue
			}
			i := 0
			if (int(r)+p)%3 == 0 {
				i = 1
			}
			pair[i].to = append(pair[i].to, id)
		}
		return pair
	}
	return w
}

// TestScenarioByzantineEquivocatingProposer runs a 4-committee where
// replica 3 is the scripted equivocator. Liveness: the honest majority
// keeps committing client load (cross-shard transactions touching the
// byzantine shard still commit through honest proposers; single-shard
// transactions owned by the byzantine proposer starve by its choice
// and are excluded from the load's wait set via a short client
// timeout). Safety: for every round, the honest replicas certify at
// most one of each equivocating pair and always the same one; commit
// logs stay prefix-consistent and balances conserve.
func TestScenarioByzantineEquivocatingProposer(t *testing.T) {
	h := newHarness(t, Options{N: 4, Seed: 110, Headless: []int{3}})
	byz := newEquivocator(t, h, 3)
	byz.start()

	honest := []int{0, 1, 2}
	rep := h.RunLoadAsync(LoadOptions{
		Duration: load(2 * time.Second), Clients: 8,
		Workload: workloadCfg(0.3, 0.3),
		Timeout:  5 * time.Second, // byzantine-shard singles may starve
	}).Wait()
	if rep.Committed == 0 {
		t.Fatal("honest majority committed nothing under equivocation")
	}
	check(t, h.WaitQuiesced(budget, honest...))
	check(t, h.WaitConverged(budget, honest...))
	check(t, h.CheckSafety(honest...))
	check(t, h.CheckConservation(honest...))

	if byz.slotsOpened.Load() == 0 || byz.ownCerts.Load() == 0 {
		t.Fatalf("equivocator inactive: %d pairs, %d certified — scenario exercised nothing",
			byz.slotsOpened.Load(), byz.ownCerts.Load())
	}
	// At most one block per equivocated slot, and the same one
	// everywhere: collect the byzantine proposer's certified digest
	// per round from every honest DAG and require agreement.
	slot := make(map[types.Round]types.Digest)
	byzVertices := 0
	for _, i := range honest {
		err := h.Cluster().Node(i).Inspect(func(v *node.DebugView) {
			for r := types.Round(1); r <= v.HighestRound; r++ {
				for _, vi := range v.Vertices(r) {
					if vi.Proposer != 3 {
						continue
					}
					byzVertices++
					if prev, ok := slot[r]; ok && prev != vi.CertDigest {
						t.Errorf("round %d: replica %d certified %s, another replica %s — equivocation certified twice",
							r, i, vi.CertDigest, prev)
					}
					slot[r] = vi.CertDigest
				}
			}
		})
		check(t, err)
	}
	if byzVertices == 0 {
		t.Error("no equivocated block ever certified — the anti-equivocation guard was not stressed")
	}
	// Every round one honest replica is sent (and votes for) the variant
	// that loses; it certifies the winner from the others' votes and must
	// then fetch the block it never saw.
	if byz.blocksServed.Load() == 0 {
		t.Error("no replica ever fetched the variant it was not sent — certificate-before-block was not exercised")
	}
	// The pair named different parents, and honest replicas committed
	// slots fast next to it: the fast rule ran where a proposer's block
	// can name what its certified twin does not.
	var fast uint64
	for _, i := range honest {
		fast += h.Cluster().Node(i).Metrics().Snapshot().Counters["slots_committed_fast"]
	}
	t.Logf("%d of %d equivocated rounds named different parents; honest replicas committed %d slots fast",
		byz.refSplits.Load(), byz.slotsOpened.Load(), fast)
	if byz.refSplits.Load() == 0 || fast == 0 {
		t.Errorf("%d equivocated rounds named different parents, %d slots committed fast: the fast commit's threshold was not exercised",
			byz.refSplits.Load(), fast)
	}
}

// snapLiar turns replica liar into an insider lying to replica victim
// about snapshots, on the wire. It holds the liar's real signing key,
// so its lie arrives properly signed: every manifest the liar serves
// the victim is replaced by one over the liar's live ledger with every
// balance inflated — a self-serving lie that would blow conservation if
// installed — and a chunk request for that manifest is answered with
// the forged chunk, which verifies against it. Only the f+1
// matching-digest rule stands between the lie and the victim's state.
type snapLiar struct {
	h             *Harness
	liar, victim  types.ReplicaID
	signer        crypto.Signer
	lies, fetches atomic.Uint64

	mu     sync.Mutex
	forged types.Digest
	chunks [][]byte
}

func (l *snapLiar) intercept(from, to types.ReplicaID, mt transport.MsgType, payload []byte) ([]byte, bool) {
	switch {
	case to == l.victim && mt == node.MsgSnapManifest && from == l.liar:
		return l.forge(payload), true
	case to == l.victim && mt == node.MsgSnapManifest:
		// Honest manifests wait until the lie is on the wire (the servers
		// re-serve on the victim's next request), so the victim is
		// always offered the lie before it can assemble a quorum.
		return payload, l.lies.Load() > 0
	case from == l.victim && to == l.liar && mt == node.MsgSnapChunkReq:
		l.answer(payload)
	}
	return payload, true
}

// forge rewrites one signed manifest (wire format, see node/messages.go:
// signer u32, signature bytes, snapshot bytes) into the lie.
func (l *snapLiar) forge(payload []byte) []byte {
	d := types.NewDecoder(payload)
	signer := d.U32()
	_ = d.Bytes() // the honest signature, replaced below
	body := d.Bytes()
	var s types.Snapshot
	if d.Finish() != nil || s.UnmarshalBinary(body) != nil {
		return payload
	}
	cb := types.NewChunkBuilder(int(s.ChunkSize), -1)
	l.h.Cluster().Node(int(l.liar)).Store().Ascend(func(r types.RWRecord) bool {
		v := append(types.Value(nil), r.Value...)
		if len(v) > 0 {
			v[0] ^= 0x40
		}
		cb.Add(r.Key, v)
		return true
	})
	chunks, digests, _, count := cb.Finish()
	s.RecordCount, s.ChunkDigests = uint64(count), digests
	forged, err := s.MarshalBinary()
	if err != nil {
		return payload
	}
	l.mu.Lock()
	l.forged, l.chunks = s.Digest(), chunks
	l.mu.Unlock()
	e := types.NewEncoder()
	e.U32(signer)
	e.Bytes(l.signer.Sign(s.Digest()))
	e.Bytes(forged)
	l.lies.Add(1)
	return e.Sum()
}

// answer serves a chunk of the lie (wire format: snapshot digest, u32
// index) from the liar's endpoint, off the sender's goroutine.
func (l *snapLiar) answer(req []byte) {
	d := types.NewDecoder(req)
	dig, i := d.Digest(), d.U32()
	l.mu.Lock()
	defer l.mu.Unlock()
	if d.Finish() != nil || dig != l.forged || int(i) >= len(l.chunks) {
		return
	}
	l.fetches.Add(1)
	e := types.NewEncoder()
	e.Digest(dig)
	e.U32(i)
	e.Bytes(l.chunks[i])
	go l.h.Net().Endpoint(l.liar).Send(l.victim, node.MsgSnapChunk, e.Sum())
}

// TestScenarioLyingSnapshotServer strands replica 3 across forced
// reconfigurations, then lets it recover via snapshot transfer while
// replica 2 lies to it (snapLiar). The f+1 matching-digest rule must
// pin the install to the honest pair's manifest: the victim never asks
// for a chunk of the lie, rejoins, converges to honest state, and
// conservation holds everywhere.
func TestScenarioLyingSnapshotServer(t *testing.T) {
	h := newHarness(t, Options{N: 4, Seed: 111, KPrime: 20,
		MinRoundInterval: 5 * time.Millisecond})
	signers, _, err := crypto.InsecureScheme{}.Committee(h.Cluster().N(), h.Seed())
	if err != nil {
		t.Fatal(err)
	}
	liar := &snapLiar{h: h, liar: 2, victim: 3, signer: signers[2]}
	h.Run([]Event{
		{Name: "liar 2->3", At: 0,
			Do: []Fault{InterceptFault{Fn: liar.intercept, Desc: "replica 2 forges snapshots served to 3"}}},
		{Name: "isolate 3", At: 300 * time.Millisecond,
			Do: []Fault{IsolateFault{Victim: 3}}},
		{Name: "heal after reconfig", When: AfterReconfigs(1), AfterPrev: 400 * time.Millisecond,
			Do: []Fault{HealAllFault{}}},
	})
	done := h.RunLoadAsync(LoadOptions{
		Duration: load(2 * time.Second), Clients: 8,
		Workload: workloadCfg(0.3, 0.1),
	})
	check(t, h.WaitReconfigs(1, budget))
	check(t, h.WaitNoPendingClients(budget))
	done.Wait()
	h.WaitSchedule()
	check(t, h.WaitReplicaEpoch(3, 1, budget))
	quiesceAndCheckAll(t, h)
	if h.Cluster().Node(3).Stats().EpochJumps == 0 {
		t.Error("victim rejoined without a snapshot epoch-jump")
	}
	if liar.lies.Load() == 0 {
		t.Error("the lying server never served a forged manifest — scenario exercised nothing")
	}
	if n := liar.fetches.Load(); n != 0 {
		t.Errorf("victim asked the liar for %d chunks of the lie — a manifest without an f+1 quorum was fetched", n)
	}
}
