package node

import (
	"bytes"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"thunderbolt/internal/ce"
	"thunderbolt/internal/contract"
	"thunderbolt/internal/dag"
	"thunderbolt/internal/dag/dagtest"
	"thunderbolt/internal/depgraph"
	"thunderbolt/internal/storage"
	"thunderbolt/internal/tusk"
	"thunderbolt/internal/types"
	"thunderbolt/internal/workload"
)

const (
	waveAccounts    = 8
	waveNonceWindow = 64
	contractFail    = "fail"
)

func waveRegistry() *contract.Registry {
	reg := contract.NewRegistry()
	workload.RegisterSmallBank(reg)
	reg.MustRegister(contract.Func{ContractName: contractFail, Fn: func(contract.State, [][]byte) error {
		return errors.New("deterministic failure")
	}})
	return reg
}

// countingPreplayer stands in for the proposer's engine so a row can
// assert that install invalidated its carried state.
type countingPreplayer struct{ invalidated int }

func (p *countingPreplayer) preplay(func(types.Key) types.Value, []*types.Transaction) *ce.BatchResult {
	return &ce.BatchResult{}
}
func (p *countingPreplayer) invalidate()              { p.invalidated++ }
func (p *countingPreplayer) keyStates() (int, uint64) { return 0, 0 }

// waveNode is an unstarted replica 0 of 4 over a durable backend: the
// test drives its commit path by hand, one wave at a time.
type waveNode struct {
	n   *Node
	st  *storage.Durable
	dir string
	pre *countingPreplayer
}

func openWaveStore(t *testing.T, dir string) *storage.Durable {
	t.Helper()
	st, err := storage.OpenDurable(storage.DurableOptions{Dir: dir, NoSync: true, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func newWaveNode(t *testing.T, committee *dagtest.Committee, mode ExecutionMode, verify bool) *waveNode {
	t.Helper()
	dir := t.TempDir()
	st := openWaveStore(t, dir)
	workload.InitAccounts(st, waveAccounts, 100, 100)
	n, err := New(Config{
		ID: 0, N: committee.N,
		Transport: &nullTransport{id: 0},
		Signer:    committee.Signers[0], Verifier: committee.Ver,
		Registry: waveRegistry(), Store: st,
		Mode: mode, Validators: 2, NonceWindow: waveNonceWindow,
		CommitLogCap: 1024, SpecVerify: verify,
	})
	if err != nil {
		t.Fatal(err)
	}
	wn := &waveNode{n: n, st: st, dir: dir, pre: &countingPreplayer{}}
	n.preplayer = wn.pre
	return wn
}

// waveState is everything a wave may leave behind that another replica
// — or this one after a restart — must agree on.
type waveState struct {
	dump  []types.RWRecord
	dedup []byte
	clog  []CommitEntry
	notes [][]byte // WAL note stream, read back from a reopened backend
}

// dumpOf returns a backend's state in ascending key order, values
// cloned.
func dumpOf(st storage.Backend) []types.RWRecord {
	var out []types.RWRecord
	st.Ascend(func(r types.RWRecord) bool {
		out = append(out, types.RWRecord{Key: r.Key, Value: r.Value.Clone()})
		return true
	})
	return out
}

func (wn *waveNode) finish(t *testing.T) waveState {
	t.Helper()
	var s waveState
	s.dump = dumpOf(wn.st)
	e := types.NewEncoder()
	wn.n.dedup.EncodeState(e)
	s.dedup = e.Sum()
	_, s.clog = wn.n.CommitLog()
	if err := wn.st.Close(); err != nil {
		t.Fatal(err)
	}
	re := openWaveStore(t, wn.dir)
	defer re.Close()
	s.notes = re.RecoveredNotes()
	if !reflect.DeepEqual(dumpOf(re), s.dump) {
		t.Fatal("reopened backend does not replay to the live state")
	}
	return s
}

// waveBuilder assembles hand-built waves: certified vertices over
// blocks whose preplay results come from a real CE run against the
// genesis ledger.
type waveBuilder struct {
	t         *testing.T
	committee *dagtest.Committee
	genesis   *storage.Store
	reg       *contract.Registry
}

func newWaveBuilder(t *testing.T, committee *dagtest.Committee) *waveBuilder {
	g := storage.New()
	workload.InitAccounts(g, waveAccounts, 100, 100)
	return &waveBuilder{t: t, committee: committee, genesis: g, reg: waveRegistry()}
}

func acct(i int) []byte { return []byte(workload.AccountName(i)) }

func depositTx(client, nonce uint64, shard types.ShardID, account int, amount int64) *types.Transaction {
	return &types.Transaction{
		Client: client, Nonce: nonce, Kind: types.SingleShard, Shards: []types.ShardID{shard},
		Contract: workload.ContractDepositChecking,
		Args:     [][]byte{acct(account), contract.EncodeInt64(amount)},
	}
}

func payTx(client, nonce uint64, src, dst int, amount int64) *types.Transaction {
	return &types.Transaction{
		Client: client, Nonce: nonce, Kind: types.CrossShard,
		Shards:   []types.ShardID{types.ShardID(src % 4), types.ShardID(dst % 4)},
		Contract: workload.ContractSendPayment,
		Args:     [][]byte{acct(src), acct(dst), contract.EncodeInt64(amount)},
	}
}

func failTx(client, nonce uint64, kind types.TxKind, shards ...types.ShardID) *types.Transaction {
	return &types.Transaction{Client: client, Nonce: nonce, Kind: kind, Shards: shards, Contract: contractFail}
}

// block builds proposer p's round-r normal block for shard p. With
// preplay set, singles carry CE results computed on the genesis ledger
// (the CE/OCC block shape); without, they ride unexecuted (ModeSerial).
func (wb *waveBuilder) block(r types.Round, p types.ReplicaID, preplay bool, singles, cross []*types.Transaction) *types.Block {
	b := &types.Block{
		Round: r, Proposer: p, Shard: types.ShardID(p), Kind: types.NormalBlock,
		SingleTxs: singles, CrossTxs: cross, ProposedUnixNano: int64(r)*1000 + int64(p),
	}
	if preplay && len(singles) > 0 {
		read := func(k types.Key) types.Value { v, _ := wb.genesis.Get(k); return v }
		res := ce.New(ce.Config{Executors: 2, Registry: wb.reg}).ExecuteBatch(depgraph.BaseReader(read), singles)
		if len(res.Failed) > 0 {
			wb.t.Fatalf("preplay failed %d transactions", len(res.Failed))
		}
		b.SingleTxs, b.Results = res.Schedule, res.Results
	}
	return b
}

func (wb *waveBuilder) wave(blocks ...*types.Block) tusk.CommitWave {
	vs := make([]*dag.Vertex, len(blocks))
	for i, b := range blocks {
		vs[i] = wb.committee.Vertex(b)
	}
	return tusk.CommitWave{Leader: vs[len(vs)-1], Vertices: vs}
}

func checking(t *testing.T, wn *waveNode, account int) int64 {
	t.Helper()
	v, _ := wn.st.Get(workload.CheckingKey(workload.AccountName(account)))
	x, err := contract.DecodeInt64(v)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func commitEntries(wn *waveNode, id types.Digest) []CommitEntry {
	var out []CommitEntry
	_, clog := wn.n.CommitLog()
	for _, e := range clog {
		if e.ID == id {
			out = append(out, e)
		}
	}
	return out
}

// TestWaveRunOnceInstallOnce drives hand-built waves through the one
// run function and the one install function three ways — at commit
// time against committed state, ahead of commit on stacked predicted
// state, and the latter with SpecVerify re-running every hit — and
// requires the three to be indistinguishable: same outcomes, store,
// dedup bytes, commit log, and WAL note stream after a reopen.
//
// The first three rows are the regression for the fork this replaced:
// the commit-time copy saw within-wave dedup through gateway.Dedup
// (session identity, nonce floors) while the speculative copy saw it
// through a digest set, so two distinct transactions carrying one
// (client, nonce) — or a nonce swallowed by a forced floor eviction —
// were discarded by a replica that missed and committed by one that
// hit.
func TestWaveRunOnceInstallOnce(t *testing.T) {
	committee := dagtest.NewCommittee(4)
	type row struct {
		name  string
		mode  ExecutionMode
		build func(wb *waveBuilder) []tusk.CommitWave
		// prime runs on each leg's node before any wave.
		prime func(wn *waveNode, waves []tusk.CommitWave)
		check func(t *testing.T, wn *waveNode, waves []tusk.CommitWave, results []*waveResult)
	}
	rows := []row{
		{
			name: "same client nonce in two blocks of one wave",
			build: func(wb *waveBuilder) []tusk.CommitWave {
				return []tusk.CommitWave{
					// An unrelated earlier wave, so the speculative leg runs
					// the interesting one on a stacked view.
					wb.wave(wb.block(1, 3, true, []*types.Transaction{depositTx(6, 1, 3, 3, 1)}, nil)),
					wb.wave(
						wb.block(3, 1, true, []*types.Transaction{depositTx(9, 1, 1, 1, 5)}, nil),
						wb.block(3, 2, true, []*types.Transaction{depositTx(9, 1, 2, 2, 7), depositTx(7, 1, 2, 6, 1)}, nil),
					),
				}
			},
			check: func(t *testing.T, wn *waveNode, waves []tusk.CommitWave, results []*waveResult) {
				out := results[1].outcomes
				if len(out) != 2 || !out[0].ok || out[1].ok {
					t.Fatalf("want block A validated and block B stale, got %+v", out)
				}
				if got := checking(t, wn, 1); got != 105 {
					t.Fatalf("block A's deposit: account 1 = %d", got)
				}
				if a, b := checking(t, wn, 2), checking(t, wn, 6); a != 100 || b != 100 {
					t.Fatalf("stale block B left writes: accounts 2, 6 = %d, %d", a, b)
				}
				if other := waves[1].Vertices[1].Block.SingleTxs[1]; wn.n.dedup.Resolved(other) {
					t.Fatal("stale block B's other transaction was resolved")
				}
			},
		},
		{
			name: "same client nonce in consecutive waves",
			build: func(wb *waveBuilder) []tusk.CommitWave {
				return []tusk.CommitWave{
					wb.wave(wb.block(1, 1, true, []*types.Transaction{depositTx(9, 1, 1, 1, 5)}, nil)),
					wb.wave(wb.block(3, 2, true, []*types.Transaction{depositTx(9, 1, 2, 2, 7)}, nil)),
				}
			},
			check: func(t *testing.T, wn *waveNode, _ []tusk.CommitWave, results []*waveResult) {
				if out := results[1].outcomes; len(out) != 1 || out[0].ok {
					t.Fatalf("want the second wave's block stale, got %+v", out)
				}
				if got := checking(t, wn, 2); got != 100 {
					t.Fatalf("stale block left writes: account 2 = %d", got)
				}
			},
		},
		{
			name: "far-ahead nonce evicts a later block's nonce",
			build: func(wb *waveBuilder) []tusk.CommitWave {
				return []tusk.CommitWave{
					wb.wave(wb.block(1, 3, true, []*types.Transaction{depositTx(6, 1, 3, 3, 1)}, nil)),
					wb.wave(
						// Nonce 1000 forces the floor to 1000−window, which
						// swallows nonce 5.
						wb.block(3, 1, true, []*types.Transaction{depositTx(9, 1000, 1, 1, 5)}, nil),
						wb.block(3, 2, true, []*types.Transaction{depositTx(9, 5, 2, 2, 7), depositTx(7, 1, 2, 6, 1)}, nil),
					),
				}
			},
			check: func(t *testing.T, wn *waveNode, waves []tusk.CommitWave, results []*waveResult) {
				out := results[1].outcomes
				if len(out) != 2 || !out[0].ok || out[1].ok {
					t.Fatalf("want block A validated and block B stale, got %+v", out)
				}
				if other := waves[1].Vertices[1].Block.SingleTxs[1]; wn.n.dedup.Resolved(other) {
					t.Fatal("stale block B's other transaction was resolved")
				}
			},
		},
		{
			// A Byzantine proposer's batch carrying a transaction without a
			// (client, nonce) session reads as stale on every replica.
			name: "nonce-less single-shard transaction discards its block",
			build: func(wb *waveBuilder) []tusk.CommitWave {
				return []tusk.CommitWave{wb.wave(wb.block(1, 1, true, []*types.Transaction{
					depositTx(9, 1, 1, 1, 5), depositTx(0, 0, 1, 3, 7),
				}, nil))}
			},
			check: func(t *testing.T, wn *waveNode, waves []tusk.CommitWave, results []*waveResult) {
				if out := results[0].outcomes; len(out) != 1 || out[0].ok {
					t.Fatalf("want the block discarded, got %+v", out)
				}
				if a, b := checking(t, wn, 1), checking(t, wn, 3); a != 100 || b != 100 {
					t.Fatalf("discarded block left writes: accounts 1, 3 = %d, %d", a, b)
				}
				if st := wn.n.Stats(); st.ValidationFailures != 1 || st.CommittedTxs != 0 {
					t.Fatalf("validation failures = %d, committed = %d", st.ValidationFailures, st.CommittedTxs)
				}
				if sessioned := waves[0].Vertices[0].Block.SingleTxs[0]; wn.n.dedup.Resolved(sessioned) {
					t.Fatal("the discarded block's sessioned transaction was resolved")
				}
			},
		},
		{
			name: "nonce-less cross transaction is dropped without running",
			build: func(wb *waveBuilder) []tusk.CommitWave {
				return []tusk.CommitWave{wb.wave(wb.block(1, 1, true, nil, []*types.Transaction{
					payTx(8, 0, 1, 2, 10), payTx(4, 1, 3, 4, 10),
				}))}
			},
			check: func(t *testing.T, wn *waveNode, waves []tusk.CommitWave, results []*waveResult) {
				if out := results[0].outcomes; len(out) != 1 || !out[0].ok || out[0].tx.Nonce != 1 {
					t.Fatalf("want only the sessioned payment run, got %+v", out)
				}
				if results[0].txs != 1 {
					t.Fatalf("executed %d transactions, want 1", results[0].txs)
				}
				if a, b := checking(t, wn, 1), checking(t, wn, 2); a != 100 || b != 100 {
					t.Fatalf("nonce-less payment ran: accounts 1, 2 = %d, %d", a, b)
				}
				if a, b := checking(t, wn, 3), checking(t, wn, 4); a != 90 || b != 110 {
					t.Fatalf("accounts 3, 4 = %d, %d", a, b)
				}
				if st := wn.n.Stats(); st.CommittedTxs != 1 {
					t.Fatalf("committed %d transactions, want 1", st.CommittedTxs)
				}
			},
		},
		{
			name: "shift and skip only",
			build: func(wb *waveBuilder) []tusk.CommitWave {
				shift := wb.block(1, 1, true, nil, nil)
				shift.Kind = types.ShiftBlock
				skip := wb.block(1, 2, true, nil, nil)
				skip.Kind = types.SkipBlock
				return []tusk.CommitWave{wb.wave(shift, skip, wb.block(2, 3, true, nil, nil))}
			},
			check: func(t *testing.T, wn *waveNode, _ []tusk.CommitWave, results []*waveResult) {
				if len(results[0].outcomes) != 0 || len(results[0].writes.recs) != 0 {
					t.Fatalf("nothing to run, got %+v", results[0])
				}
				if !wn.n.committedShift[1] || len(wn.n.committedShift) != 1 {
					t.Fatalf("committed shifts = %v, want replica 1 only", wn.n.committedShift)
				}
				if st := wn.n.Stats(); st.CommittedTxs != 0 {
					t.Fatalf("committed %d transactions", st.CommittedTxs)
				}
			},
		},
		{
			name: "own block fails validation",
			build: func(wb *waveBuilder) []tusk.CommitWave {
				// Both blocks preplayed account 1 at its genesis balance;
				// the foreign block lands first, so ours reads stale state.
				return []tusk.CommitWave{wb.wave(
					wb.block(1, 1, true, []*types.Transaction{depositTx(1, 1, 1, 1, 5)}, nil),
					wb.block(1, 0, true, []*types.Transaction{depositTx(2, 1, 0, 1, 9)}, nil),
				)}
			},
			prime: func(wn *waveNode, waves []tusk.CommitWave) {
				own := waves[0].Vertices[1].Block
				ws := own.Results[0].WriteSet
				wn.n.ownBlocks = []ownBlock{{round: own.Round, writes: ws}}
				for _, w := range ws {
					wn.n.ownWrites[w.Key] = w.Value
				}
			},
			check: func(t *testing.T, wn *waveNode, waves []tusk.CommitWave, results []*waveResult) {
				if out := results[0].outcomes; len(out) != 2 || !out[0].ok || out[1].ok {
					t.Fatalf("want the foreign block validated and ours discarded, got %+v", out)
				}
				if len(wn.n.ownBlocks) != 0 || len(wn.n.ownWrites) != 0 {
					t.Fatalf("own-writes overlay survived: %d blocks, %d keys", len(wn.n.ownBlocks), len(wn.n.ownWrites))
				}
				if wn.pre.invalidated == 0 {
					t.Fatal("preplayer not invalidated")
				}
				own := waves[0].Vertices[1].Block.SingleTxs[0]
				if len(wn.n.txQueue) != 1 || wn.n.txQueue[0] != own {
					t.Fatalf("want our transaction requeued exactly once, queue = %v", wn.n.txQueue)
				}
				if st := wn.n.Stats(); st.ValidationFailures != 1 || st.CommittedTxs != 1 {
					t.Fatalf("validation failures = %d, committed = %d", st.ValidationFailures, st.CommittedTxs)
				}
				if got := checking(t, wn, 1); got != 105 {
					t.Fatalf("account 1 = %d, want only the foreign deposit", got)
				}
			},
		},
		{
			name: "cross transaction fails deterministically",
			build: func(wb *waveBuilder) []tusk.CommitWave {
				return []tusk.CommitWave{wb.wave(wb.block(1, 1, true, nil, []*types.Transaction{
					failTx(3, 1, types.CrossShard, 1, 2), payTx(4, 1, 1, 2, 10),
				}))}
			},
			check: func(t *testing.T, wn *waveNode, waves []tusk.CommitWave, results []*waveResult) {
				failed, paid := waves[0].Vertices[0].Block.CrossTxs[0], waves[0].Vertices[0].Block.CrossTxs[1]
				if out := results[0].outcomes; len(out) != 2 || out[0].ok || !out[1].ok {
					t.Fatalf("want fail then commit, got %+v", out)
				}
				if !wn.n.dedup.Resolved(failed) {
					t.Fatal("failed transaction not marked")
				}
				if len(commitEntries(wn, failed.ID())) != 0 {
					t.Fatal("failed transaction in the commit log")
				}
				if e := commitEntries(wn, paid.ID()); len(e) != 1 || !e[0].Cross {
					t.Fatalf("payment commit entries = %v", e)
				}
				if a, b := checking(t, wn, 1), checking(t, wn, 2); a != 90 || b != 110 {
					t.Fatalf("accounts 1, 2 = %d, %d", a, b)
				}
				if len(results[0].writes.recs) != 2 {
					t.Fatalf("want only the payment's two writes, got %d", len(results[0].writes.recs))
				}
			},
		},
		{
			name: "promoted copy in an early vertex, original in a later single-shard block",
			build: func(wb *waveBuilder) []tusk.CommitWave {
				orig := depositTx(5, 1, 2, 2, 3)
				promoted := orig.Clone()
				promoted.Promote()
				return []tusk.CommitWave{wb.wave(
					wb.block(1, 1, true, nil, []*types.Transaction{promoted}),
					wb.block(1, 2, true, []*types.Transaction{orig}, nil),
				)}
			},
			check: func(t *testing.T, wn *waveNode, waves []tusk.CommitWave, _ []*waveResult) {
				id := waves[0].Vertices[1].Block.SingleTxs[0].ID()
				if e := commitEntries(wn, id); len(e) != 1 || e[0].Cross || e[0].Proposer != 2 {
					t.Fatalf("want one single-shard commit through replica 2's block, got %v", e)
				}
				if got := checking(t, wn, 2); got != 103 {
					t.Fatalf("account 2 = %d, want the deposit applied once", got)
				}
			},
		},
		{
			name: "serial mode",
			mode: ModeSerial,
			build: func(wb *waveBuilder) []tusk.CommitWave {
				dep := depositTx(1, 1, 1, 1, 5)
				return []tusk.CommitWave{wb.wave(
					wb.block(1, 1, false,
						[]*types.Transaction{dep, failTx(3, 1, types.SingleShard, 1)},
						[]*types.Transaction{payTx(4, 1, 1, 2, 10)}),
					// A second inclusion of the same deposit runs nothing.
					wb.block(1, 2, false, []*types.Transaction{dep}, nil),
				)}
			},
			check: func(t *testing.T, wn *waveNode, waves []tusk.CommitWave, results []*waveResult) {
				out := results[0].outcomes
				if len(out) != 3 || !out[0].ok || out[1].ok || !out[2].ok || !out[2].cross {
					t.Fatalf("want commit, fail, cross commit in block order, got %+v", out)
				}
				if a, b := checking(t, wn, 1), checking(t, wn, 2); a != 95 || b != 110 {
					t.Fatalf("accounts 1, 2 = %d, %d", a, b)
				}
				if st := wn.n.Stats(); st.CommittedTxs != 2 {
					t.Fatalf("committed %d transactions, want 2", st.CommittedTxs)
				}
			},
		},
	}

	legs := []struct {
		name         string
		ahead, check bool
	}{
		{"at commit time", false, false},
		{"ahead of commit", true, false},
		{"ahead of commit, verified", true, true},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			waves := r.build(newWaveBuilder(t, committee))
			var want waveState
			for li, leg := range legs {
				wn := newWaveNode(t, committee, r.mode, leg.check)
				if r.prime != nil {
					r.prime(wn, waves)
				}
				n := wn.n
				if leg.ahead {
					for i, w := range waves {
						for _, v := range w.Vertices {
							n.specVerts[v.Cert.Digest()] = true
						}
						n.specQ = append(n.specQ, specWave{wave: w})
						n.runPrediction(i)
					}
				}
				var results []*waveResult
				for _, w := range waves {
					res, hit := n.waveResultFor(w)
					if hit != leg.ahead {
						t.Fatalf("%s: hit = %v", leg.name, hit)
					}
					n.installWave(w, res, time.Now())
					if hit {
						n.popSpec()
					}
					results = append(results, res)
				}
				if len(n.specQ) != 0 || len(n.specVerts) != 0 {
					t.Fatalf("%s: %d predictions, %d vertex claims left over", leg.name, len(n.specQ), len(n.specVerts))
				}
				r.check(t, wn, waves, results)
				got := wn.finish(t)
				if n.Stats().CommittedTxs > 0 && len(got.notes) == 0 {
					t.Fatalf("%s: commits left no WAL notes", leg.name)
				}
				if li == 0 {
					want = got
					continue
				}
				if !reflect.DeepEqual(got.dump, want.dump) {
					t.Errorf("%s: store differs from the commit-time leg", leg.name)
				}
				if !bytes.Equal(got.dedup, want.dedup) {
					t.Errorf("%s: dedup state differs from the commit-time leg", leg.name)
				}
				if !reflect.DeepEqual(got.clog, want.clog) {
					t.Errorf("%s: commit log differs from the commit-time leg:\n%v\n%v", leg.name, got.clog, want.clog)
				}
				if !reflect.DeepEqual(got.notes, want.notes) {
					t.Errorf("%s: WAL note stream differs from the commit-time leg", leg.name)
				}
			}
		})
	}
}

// TestWaveReplaysEachBlockOnce: replaying a block's transactions is a
// function of the block, so however often its wave runs — predicted and
// then missed, or predicted and then re-run by SpecVerify — every
// contract executes once; the commit-time run only re-checks the
// declared reads against committed state.
func TestWaveReplaysEachBlockOnce(t *testing.T) {
	committee := dagtest.NewCommittee(4)
	for _, leg := range []struct {
		name   string
		verify bool // SpecVerify: a hit is re-run and compared
		miss   bool // the commit rule releases the blocks in another wave
	}{
		{"missed prediction", false, true},
		{"verified hit", true, false},
	} {
		t.Run(leg.name, func(t *testing.T) {
			wb := newWaveBuilder(t, committee)
			a := wb.block(1, 1, true, []*types.Transaction{depositTx(1, 1, 1, 1, 5), depositTx(2, 1, 1, 5, 6)}, nil)
			b := wb.block(1, 2, true, []*types.Transaction{depositTx(3, 1, 2, 2, 7)}, nil)
			predicted := wb.wave(a, b)
			committed := predicted
			if leg.miss {
				committed = wb.wave(b, a)
			}

			wn := newWaveNode(t, committee, ModeCE, leg.verify)
			defer wn.st.Close()
			n := wn.n
			var execs atomic.Int64
			counted := contract.NewRegistry()
			for _, name := range n.cfg.Registry.Names() {
				c, _ := n.cfg.Registry.Lookup(name)
				counted.MustRegister(contract.Func{ContractName: name, Fn: func(st contract.State, args [][]byte) error {
					execs.Add(1)
					return c.Execute(st, args)
				}})
			}
			n.cfg.Registry = counted

			for _, v := range predicted.Vertices {
				n.specVerts[v.Cert.Digest()] = true
			}
			n.specQ = append(n.specQ, specWave{wave: predicted})
			n.runPrediction(0)
			if got := execs.Load(); got != 3 {
				t.Fatalf("prediction executed %d contracts for 3 transactions", got)
			}
			res, hit := n.waveResultFor(committed)
			if hit == leg.miss {
				t.Fatalf("hit = %v", hit)
			}
			n.installWave(committed, res, time.Now())
			if got := execs.Load(); got != 3 {
				t.Fatalf("running the wave again executed %d more contracts", got-3)
			}
			if st := n.Stats(); st.CommittedTxs != 3 || st.ValidationFailures != 0 {
				t.Fatalf("committed %d, validation failures %d", st.CommittedTxs, st.ValidationFailures)
			}
			if x, y, z := checking(t, wn, 1), checking(t, wn, 5), checking(t, wn, 2); x != 105 || y != 106 || z != 107 {
				t.Fatalf("accounts 1, 5, 2 = %d, %d, %d", x, y, z)
			}
		})
	}
}
