package node

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"thunderbolt/internal/ce"
	"thunderbolt/internal/contract"
	"thunderbolt/internal/dag"
	"thunderbolt/internal/dag/dagtest"
	"thunderbolt/internal/depgraph"
	"thunderbolt/internal/storage"
	"thunderbolt/internal/transport"
	"thunderbolt/internal/tusk"
	"thunderbolt/internal/types"
	"thunderbolt/internal/workload"
)

// queueWaves hands waves to the commit path as one commit-rule release
// would: a drainExec pass then finds all of them ready.
func queueWaves(n *Node, waves ...tusk.CommitWave) {
	now := time.Now()
	for _, w := range waves {
		n.execQ = append(n.execQ, execItem{wave: w, committedAt: now})
	}
}

// batchesOf returns how many install batches a node has made and how
// many waves they held (installWave records one commit→execute sample
// per wave).
func batchesOf(n *Node) (batches, waves uint64) {
	return n.nm.execBatches.Value(), n.nm.stageCommitExecute.Snapshot().Count
}

// allocRegistry holds contracts that allocate nothing: "put" reads the
// key named by args[0][0] and writes the value named by args[1][0];
// "put2" writes two keys. What a wave allocates beyond them is the
// commit path's own.
func allocRegistry(keys []types.Key, vals []types.Value) *contract.Registry {
	reg := contract.NewRegistry()
	reg.MustRegister(contract.Func{ContractName: "put", Fn: func(st contract.State, args [][]byte) error {
		k := keys[args[0][0]]
		if _, err := st.Read(k); err != nil {
			return err
		}
		return st.Write(k, vals[args[1][0]])
	}})
	reg.MustRegister(contract.Func{ContractName: "put2", Fn: func(st contract.State, args [][]byte) error {
		if err := st.Write(keys[args[0][0]], vals[args[2][0]]); err != nil {
			return err
		}
		return st.Write(keys[args[1][0]], vals[args[2][0]])
	}})
	return reg
}

// TestWavePathAllocs pins what the commit path allocates per wave in
// steady state, contracts aside: lan-cross50-shaped waves — one block
// each, four single-shard transactions preplayed and two cross-shard
// ones — decided and installed four to a drainExec pass. Recycled wave
// results, the caller-owned cross executor, the one install per pass and
// validate.ValidateBlock folding its delta straight into the wave's
// writes leave nothing to allocate per wave.
func TestWavePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are the detector's")
	}
	const (
		perPass = 4
		passes  = 60
	)
	var keys []types.Key
	for _, k := range []string{"s0", "s1", "s2", "s3", "c0", "c1", "c2", "c3"} {
		keys = append(keys, types.Key(k))
	}
	vals := []types.Value{types.Value("a"), types.Value("b"), types.Value("c")}
	reg := allocRegistry(keys, vals)
	st := storage.New()
	for _, k := range keys {
		st.Set(k, vals[0])
	}
	committee := dagtest.NewCommittee(4)
	n, err := New(Config{
		ID: 0, N: committee.N,
		Transport: &nullTransport{id: 0},
		Signer:    committee.Signers[0], Verifier: committee.Ver,
		Registry: reg, Store: st, Mode: ModeCE, Validators: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.preplayer = &countingPreplayer{}

	// Waves for every pass plus AllocsPerRun's warm-up, their single-shard
	// batches preplayed on the state the waves before them leave.
	state := map[types.Key]types.Value{}
	for _, k := range keys {
		state[k] = vals[0]
	}
	read := func(k types.Key) types.Value { return state[k] }
	engine := ce.New(ce.Config{Executors: 1, Registry: reg})
	nonce := map[uint64]uint64{}
	tx := func(client uint64, kind types.TxKind, contractName string, args [][]byte, shards ...types.ShardID) *types.Transaction {
		nonce[client]++
		return &types.Transaction{Client: client, Nonce: nonce[client], Kind: kind, Shards: shards, Contract: contractName, Args: args}
	}
	var waves []tusk.CommitWave
	for w := 0; w < (passes+1)*perPass; w++ {
		p := types.ReplicaID(w % 4)
		s, next := types.ShardID(p), types.ShardID((p+1)%4)
		var singles []*types.Transaction
		for i := 0; i < 4; i++ {
			singles = append(singles, tx(uint64(10+p), types.SingleShard, "put", [][]byte{{byte(p)}, {byte((w + i) % 3)}}, s))
		}
		cross := []*types.Transaction{
			tx(uint64(20+p), types.CrossShard, "put2", [][]byte{{byte(4 + p)}, {byte(4 + next)}, {byte(w % 3)}}, s, next),
			tx(uint64(30+p), types.CrossShard, "put2", [][]byte{{byte(4 + next)}, {byte(4 + p)}, {byte((w + 1) % 3)}}, next, s),
		}
		res := engine.ExecuteBatch(depgraph.BaseReader(read), singles)
		if len(res.Failed) > 0 {
			t.Fatalf("preplay failed %d transactions", len(res.Failed))
		}
		for _, r := range res.Results {
			for _, wr := range r.WriteSet {
				state[wr.Key] = wr.Value
			}
		}
		b := &types.Block{
			Round: types.Round(w/4 + 1), Proposer: p, Shard: s, Kind: types.NormalBlock,
			SingleTxs: res.Schedule, Results: res.Results, CrossTxs: cross, ProposedUnixNano: 1,
		}
		v := committee.Vertex(b)
		waves = append(waves, tusk.CommitWave{Leader: v, Vertices: []*dag.Vertex{v}})
	}

	next := 0
	perWave := testing.AllocsPerRun(passes, func() {
		queueWaves(n, waves[next:next+perPass]...)
		next += perPass
		n.drainExec()
	}) / perPass
	if st := n.Stats(); st.ValidationFailures != 0 || st.CommittedTxs != uint64(next*6) {
		t.Fatalf("committed %d of %d transactions, %d validation failures", st.CommittedTxs, next*6, st.ValidationFailures)
	}
	if batches, inBatches := batchesOf(n); batches != uint64(next/perPass) || inBatches != uint64(next) {
		t.Fatalf("%d waves installed in %d batches, want %d in %d", inBatches, batches, next, next/perPass)
	}
	t.Logf("%.2f allocations per wave", perWave)
	if perWave > 0 {
		t.Fatalf("the wave path allocates %.2f times per wave, want none", perWave)
	}
}

// copyDir copies a backend directory's files: the disk as a crash at
// this instant would leave it (the backend was synced first).
func copyDir(t *testing.T, from string) string {
	t.Helper()
	to := t.TempDir()
	ents, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

// committedSessions reads the committed identities of a WAL note
// stream, in apply order.
func committedSessions(t *testing.T, notes [][]byte) []session {
	t.Helper()
	var out []session
	for _, note := range notes {
		d := types.NewDecoder(note)
		if d.U8() != walNoteMarks {
			continue
		}
		for pass := 0; pass < 2; pass++ {
			cnt := d.U32()
			for i := uint32(0); i < cnt && d.Err() == nil; i++ {
				s := session{d.U64(), d.U64()}
				if pass == 0 {
					out = append(out, s)
				}
			}
		}
		if err := d.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// batchPoint is what a replica holds at a batch boundary.
type batchPoint struct {
	dump    []types.RWRecord
	dedup   []byte
	commits uint64
	clog    []session
}

// TestCrashBetweenBatchesRecoversToBatchBoundary: a durable replica
// installs a pass's waves as one apply carrying one note, so a crash
// between two batched installs — or one that tears the second batch's
// record anywhere — recovers to a batch boundary: the store, dedup
// bytes and commit count of the first batch or of the second, never a
// wave in between, with the committed identities its WAL replays equal
// to the live commit log up to there.
func TestCrashBetweenBatchesRecoversToBatchBoundary(t *testing.T) {
	committee := dagtest.NewCommittee(4)
	wb := newWaveBuilder(t, committee)
	first := []tusk.CommitWave{
		wb.wave(wb.block(1, 1, true, []*types.Transaction{depositTx(1, 1, 1, 1, 5)}, nil)),
		wb.wave(wb.block(1, 2, true, []*types.Transaction{depositTx(2, 1, 2, 2, 7)}, []*types.Transaction{payTx(3, 1, 3, 4, 10)})),
		wb.wave(wb.block(1, 3, true, []*types.Transaction{depositTx(4, 1, 3, 5, 1)}, nil)),
	}
	second := []tusk.CommitWave{
		wb.wave(wb.block(2, 1, true, []*types.Transaction{depositTx(1, 2, 1, 6, 2)}, nil)),
		wb.wave(wb.block(2, 2, true, nil, []*types.Transaction{payTx(3, 2, 1, 2, 4), failTx(5, 1, types.CrossShard, 1, 2)})),
		wb.wave(wb.block(2, 3, true, []*types.Transaction{depositTx(4, 2, 3, 7, 3)}, nil)),
	}

	wn := newWaveNode(t, committee, ModeCE)
	n := wn.n
	ids := map[types.Digest]session{}
	for _, w := range append(append([]tusk.CommitWave(nil), first...), second...) {
		for _, v := range w.Vertices {
			for _, tx := range append(append([]*types.Transaction(nil), v.Block.SingleTxs...), v.Block.CrossTxs...) {
				ids[tx.ID()] = session{tx.Client, tx.Nonce}
			}
		}
	}
	point := func() batchPoint {
		var p batchPoint
		p.dump = dumpOf(wn.st)
		e := types.NewEncoder()
		n.dedup.EncodeState(e)
		p.dedup = e.Sum()
		p.commits = n.Stats().CommittedTxs
		_, clog := n.CommitLog()
		for _, c := range clog {
			p.clog = append(p.clog, ids[c.ID])
		}
		return p
	}
	segment := func(dir string) string {
		segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if len(segs) != 1 {
			t.Fatalf("want one WAL segment, found %v", segs)
		}
		return segs[len(segs)-1]
	}
	// recovered reopens dir as a restarted replica would and reads back
	// what it resumes from.
	recovered := func(dir string) (batchPoint, []session) {
		st := openWaveStore(t, dir)
		defer st.Close()
		clog := committedSessions(t, st.RecoveredNotes())
		re, err := New(Config{
			ID: 0, N: committee.N,
			Transport: &nullTransport{id: 0},
			Signer:    committee.Signers[0], Verifier: committee.Ver,
			Registry: waveRegistry(), Store: st, NonceWindow: waveNonceWindow,
		})
		if err != nil {
			t.Fatal(err)
		}
		var p batchPoint
		p.dump = dumpOf(st)
		e := types.NewEncoder()
		re.dedup.EncodeState(e)
		p.dedup = e.Sum()
		p.commits = re.Stats().CommittedTxs
		return p, clog
	}
	same := func(what string, got batchPoint, replayed []session, want batchPoint) {
		t.Helper()
		if !reflect.DeepEqual(got.dump, want.dump) || !bytes.Equal(got.dedup, want.dedup) || got.commits != want.commits {
			t.Fatalf("%s: recovered store, dedup or commit count (%d) is not the batch boundary's (%d)", what, got.commits, want.commits)
		}
		if !reflect.DeepEqual(replayed, want.clog) {
			t.Fatalf("%s: WAL replays commits %v, the live commit log holds %v", what, replayed, want.clog)
		}
	}

	queueWaves(n, first...)
	n.drainExec()
	if batches, waves := batchesOf(n); batches != 1 || waves != 3 {
		t.Fatalf("first pass: %d waves in %d batches, want 3 in 1", waves, batches)
	}
	atFirst := point()
	if err := wn.st.Sync(); err != nil {
		t.Fatal(err)
	}
	crashed := copyDir(t, wn.dir)
	firstLen := fileLen(t, segment(crashed))

	queueWaves(n, second...)
	n.drainExec()
	if batches, waves := batchesOf(n); batches != 2 || waves != 6 {
		t.Fatalf("second pass: %d waves in %d batches, want 6 in 2", waves, batches)
	}
	atSecond := point()
	if err := wn.st.Sync(); err != nil {
		t.Fatal(err)
	}
	whole := copyDir(t, wn.dir)
	secondLen := fileLen(t, segment(whole))
	if err := wn.st.Close(); err != nil {
		t.Fatal(err)
	}
	if atSecond.commits <= atFirst.commits || secondLen <= firstLen {
		t.Fatal("the second batch committed nothing")
	}

	got, replayed := recovered(crashed)
	same("killed between the batches", got, replayed, atFirst)
	got, replayed = recovered(copyDir(t, whole))
	same("killed after the second batch", got, replayed, atSecond)
	for _, cut := range []int64{firstLen + 1, (firstLen + secondLen) / 2, secondLen - 1} {
		torn := copyDir(t, whole)
		if err := os.Truncate(segment(torn), cut); err != nil {
			t.Fatal(err)
		}
		got, replayed = recovered(torn)
		same("second batch torn", got, replayed, atFirst)
	}
}

func fileLen(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestSnapshotInstallDuringExecRunsNewEpochWaves: the inbox drain that
// follows an install batch can install a snapshot of the next epoch.
// The install replaces the execution queue with the entered epoch's,
// and the parked messages it replays queue that epoch's first waves at
// once. The drainExec pass must start over on the new queue: every
// wave the entered epoch's commit rule released executes, in order,
// and none is skipped or left behind.
func TestSnapshotInstallDuringExecRunsNewEpochWaves(t *testing.T) {
	committee := dagtest.NewCommittee(4)
	net := transport.NewSimNetwork(transport.SimConfig{N: 4})
	t.Cleanup(net.Close)
	nodes := make([]*Node, 4)
	for i := range nodes {
		reg := contract.NewRegistry()
		workload.RegisterSmallBank(reg)
		st := storage.New()
		workload.InitAccounts(st, 8, 100, 100)
		nd, err := New(Config{
			ID: types.ReplicaID(i), N: 4,
			Transport: net.Endpoint(types.ReplicaID(i)),
			Signer:    committee.Signers[i], Verifier: committee.Ver,
			Registry: reg, Store: st, CommitLogCap: 1024,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
	}
	donors, jumper := nodes[:2], nodes[3]
	for _, d := range donors {
		applyTestCommits(d, 555, snapTx(1))
		reconfigureTo(d, 1)
	}
	var ran []types.Round
	jumper.cfg.OnCommitWave = func(e types.Epoch, r types.Round, _ time.Time) {
		if e == 1 {
			ran = append(ran, r)
		}
	}

	// Epoch 1's first rounds, built by the other three proposers, reach
	// the jumper while it is still in epoch 0: it parks them.
	next := dagtest.NewBuilder(committee, 1)
	for range 4 {
		for p, v := range next.NextRound([]types.ReplicaID{0, 1, 2}, nil) {
			jumper.handle(inboundMsg{from: p, mt: MsgBlock, payload: mustMarshal(v.Block)})
			jumper.handle(inboundMsg{from: p, mt: MsgCert, payload: mustMarshal(v.Cert)})
		}
	}
	// f+1 manifests of the epoch-1 capture start a chunk fetch, whose
	// replies wait in the jumper's inbox.
	for _, d := range donors {
		jumper.handleSnapshot(d.cfg.ID, signedSnap(d))
	}
	if jumper.fetch == nil {
		t.Fatal("the manifests started no fetch")
	}
	deadline := time.Now().Add(5 * time.Second)
	for countInbox(jumper, MsgSnapChunk) < len(donors[0].snapChunks) {
		if time.Now().After(deadline) {
			t.Fatal("the chunk replies never arrived")
		}
		time.Sleep(time.Millisecond)
		for _, d := range donors {
			d.drainInbox()
		}
	}

	// Two epoch-0 waves: the pass installs them, then drains the inbox.
	old := dagtest.NewBuilder(committee, 0).NextRound(nil, nil)
	queueWaves(jumper,
		tusk.CommitWave{Leader: old[0], Vertices: []*dag.Vertex{old[0]}},
		tusk.CommitWave{Leader: old[1], Vertices: []*dag.Vertex{old[1]}})
	jumper.drainExec()

	if jumper.epoch != 1 || jumper.Stats().EpochJumps != 1 {
		t.Fatalf("jumper in epoch %d after %d jumps, want 1 and 1", jumper.epoch, jumper.Stats().EpochJumps)
	}
	released := jumper.nm.slotsDirect.Value() + jumper.nm.slotsIndirect.Value()
	if released == 0 {
		t.Fatal("the replayed rounds released no epoch-1 wave: the case is not exercised")
	}
	if uint64(len(ran)) != released || len(jumper.execQ) != 0 {
		t.Fatalf("executed epoch-1 waves at rounds %v of %d released, %d left queued", ran, released, len(jumper.execQ))
	}
	if ran[0] != 1 {
		t.Fatalf("the first epoch-1 wave executed is round %d's, want round 1's", ran[0])
	}
}
