package ce

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"thunderbolt/internal/contract"
	"thunderbolt/internal/depgraph"
	"thunderbolt/internal/storage"
	"thunderbolt/internal/storage/storagetest"
	"thunderbolt/internal/types"
	"thunderbolt/internal/vm"
	"thunderbolt/internal/workload"
)

func baseOf(st *storage.Store) depgraph.BaseReader {
	return func(k types.Key) types.Value {
		v, _ := st.Get(k)
		return v
	}
}

// execBatch runs one batch through a session and asserts the no-leak
// invariant of the retry/abort scrub: every non-committed attempt was
// removed from the graph, and the graph invariants hold afterwards.
func execBatch(t *testing.T, c *CE, base depgraph.BaseReader, txs []*types.Transaction) *BatchResult {
	t.Helper()
	s := c.NewSession()
	res := s.ExecuteBatch(base, txs)
	if live := s.Live(); live != 0 {
		t.Fatalf("graph leaked %d live handles after batch", live)
	}
	if err := s.Graph().CheckInvariants(); err != nil {
		t.Fatalf("graph invariants violated after batch: %v", err)
	}
	return res
}

func newSmallBank(t *testing.T, accounts int) (*contract.Registry, *storage.Store) {
	t.Helper()
	reg := contract.NewRegistry()
	workload.RegisterSmallBank(reg)
	st := storage.New()
	workload.InitAccounts(st, accounts, 1000, 1000)
	return reg, st
}

// replaySerially executes the schedule one transaction at a time over
// a fresh copy of the initial state and checks that every declared
// read value and write value is reproduced — exactly the validation
// replicas perform in §4. It returns the final replayed store.
func replaySerially(t *testing.T, reg *contract.Registry, initial map[types.Key]types.Value, res *BatchResult) *storage.Store {
	t.Helper()
	st := storage.New()
	for k, v := range initial {
		st.Set(k, v)
	}
	for i, tx := range res.Schedule {
		o := storagetest.NewOverlay(st)
		if err := vm.ExecuteTx(reg, o, tx); err != nil {
			t.Fatalf("replay tx %d: %v", i, err)
		}
		// Writes must match the declared write set.
		declared := map[types.Key]types.Value{}
		for _, w := range res.Results[i].WriteSet {
			declared[w.Key] = w.Value
		}
		got := o.Writes()
		if len(got) != len(declared) {
			t.Fatalf("tx %d: replay wrote %d keys, declared %d", i, len(got), len(declared))
		}
		for _, w := range got {
			if dv, ok := declared[w.Key]; !ok || !dv.Equal(w.Value) {
				t.Fatalf("tx %d: write %s=%q, declared %q", i, w.Key, w.Value, dv)
			}
		}
		// Reads must match the declared read set: re-read each
		// declared key before applying the writes would be wrong, so
		// instead compare against the pre-write store through a fresh
		// overlay read. The declared read set keys were read before
		// any own-write, so store state is authoritative.
		for _, r := range res.Results[i].ReadSet {
			v, _ := st.Get(r.Key)
			if !v.Equal(r.Value) {
				t.Fatalf("tx %d: read %s observed %q, serial replay has %q", i, r.Key, r.Value, v)
			}
		}
		o.Flush()
	}
	return st
}

func TestSingleExecutorSimpleBatch(t *testing.T) {
	reg, st := newSmallBank(t, 4)
	ce := New(Config{Executors: 1, Registry: reg})
	g := workload.NewGenerator(workload.Config{Accounts: 4, Shards: 1, Theta: 0, ReadRatio: 0.5, Seed: 1})
	txs := g.Batch(20)
	res := execBatch(t, ce, baseOf(st), txs)
	if len(res.Schedule) != 20 || len(res.Failed) != 0 {
		t.Fatalf("scheduled=%d failed=%d", len(res.Schedule), len(res.Failed))
	}
	// Schedule indices are dense and ordered.
	for i, r := range res.Results {
		if int(r.ScheduleIdx) != i {
			t.Fatalf("schedule idx %d at position %d", r.ScheduleIdx, i)
		}
	}
	replaySerially(t, reg, st.Snapshot(), res)
}

func TestConcurrentExecutorsSerializable(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("executors=%d", workers), func(t *testing.T) {
			reg, st := newSmallBank(t, 10)
			ce := New(Config{Executors: workers, Registry: reg})
			g := workload.NewGenerator(workload.Config{
				Accounts: 10, Shards: 1, Theta: 0.9, ReadRatio: 0.3, Seed: int64(workers),
			})
			txs := g.Batch(200)
			res := execBatch(t, ce, baseOf(st), txs)
			if len(res.Schedule)+len(res.Failed) != 200 {
				t.Fatalf("lost transactions: %d + %d != 200", len(res.Schedule), len(res.Failed))
			}
			if len(res.Failed) != 0 {
				t.Fatalf("unexpected failures: %v", res.Failed[0].Err)
			}
			replaySerially(t, reg, st.Snapshot(), res)
		})
	}
}

func TestHighContentionConservesMoney(t *testing.T) {
	const accounts = 4 // extreme contention
	reg, st := newSmallBank(t, accounts)
	before, _ := workload.TotalBalance(st, accounts)
	ce := New(Config{Executors: 8, Registry: reg})
	// All SendPayment between the same few accounts.
	var txs []*types.Transaction
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		a := rng.Intn(accounts)
		b := (a + 1 + rng.Intn(accounts-1)) % accounts
		txs = append(txs, &types.Transaction{
			Client: 1, Nonce: uint64(i + 1), Kind: types.SingleShard,
			Shards: []types.ShardID{0}, Contract: workload.ContractSendPayment,
			Args: [][]byte{
				[]byte(workload.AccountName(a)),
				[]byte(workload.AccountName(b)),
				contract.EncodeInt64(int64(1 + rng.Intn(50))),
			},
		})
	}
	res := execBatch(t, ce, baseOf(st), txs)
	if len(res.Schedule) != 300 {
		t.Fatalf("scheduled %d/300", len(res.Schedule))
	}
	final := replaySerially(t, reg, st.Snapshot(), res)
	after, _ := workload.TotalBalance(final, accounts)
	if before != after {
		t.Fatalf("money not conserved: %d -> %d", before, after)
	}
	t.Logf("re-executions under extreme contention: %d", res.Reexecutions)
}

// TestRandomBatchesQuick is the core property test: random mixed
// batches at random contention levels, executed concurrently, must
// replay serially with identical reads, writes, and final state.
func TestRandomBatchesQuick(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		accounts := 2 + rng.Intn(20)
		batch := 20 + rng.Intn(100)
		workers := 1 + rng.Intn(8)
		theta := rng.Float64() * 0.95
		pr := rng.Float64()

		reg, st := newSmallBank(t, accounts)
		ce := New(Config{Executors: workers, Registry: reg})
		g := workload.NewGenerator(workload.Config{
			Accounts: accounts, Shards: 1, Theta: theta, ReadRatio: pr,
			Mix: trial%2 == 0, Seed: int64(trial),
		})
		txs := g.Batch(batch)
		res := execBatch(t, ce, baseOf(st), txs)
		if len(res.Schedule)+len(res.Failed) != batch {
			t.Fatalf("trial %d: lost transactions", trial)
		}
		if len(res.Failed) != 0 {
			t.Fatalf("trial %d: failures: %v", trial, res.Failed[0].Err)
		}
		replaySerially(t, reg, st.Snapshot(), res)
	}
}

func TestVMTransactionsThroughCE(t *testing.T) {
	reg, st := newSmallBank(t, 4)
	code, _ := workload.SendPaymentProgram().MarshalBinary()
	var txs []*types.Transaction
	for i := 0; i < 50; i++ {
		txs = append(txs, &types.Transaction{
			Client: 1, Nonce: uint64(i + 1), Kind: types.SingleShard,
			Shards: []types.ShardID{0}, Code: code,
			Args: [][]byte{
				[]byte(workload.AccountName(i % 4)),
				[]byte(workload.AccountName((i + 1) % 4)),
				contract.EncodeInt64(5),
			},
		})
	}
	ce := New(Config{Executors: 4, Registry: reg})
	res := execBatch(t, ce, baseOf(st), txs)
	if len(res.Schedule) != 50 {
		t.Fatalf("scheduled %d/50, failed %d", len(res.Schedule), len(res.Failed))
	}
	final := replaySerially(t, reg, st.Snapshot(), res)
	after, _ := workload.TotalBalance(final, 4)
	if after != 4*2000 {
		t.Fatalf("VM transfers lost money: %d", after)
	}
}

func TestTerminalFailuresExcluded(t *testing.T) {
	reg, st := newSmallBank(t, 2)
	txs := []*types.Transaction{
		{Client: 1, Nonce: 1, Contract: workload.ContractDepositChecking,
			Args: [][]byte{[]byte(workload.AccountName(0)), contract.EncodeInt64(5)}},
		{Client: 1, Nonce: 2, Contract: "no.such.contract"},
		{Client: 1, Nonce: 3, Contract: workload.ContractSendPayment,
			Args: [][]byte{[]byte("x")}}, // missing args
	}
	ce := New(Config{Executors: 2, Registry: reg})
	res := execBatch(t, ce, baseOf(st), txs)
	if len(res.Schedule) != 1 || len(res.Failed) != 2 {
		t.Fatalf("scheduled=%d failed=%d", len(res.Schedule), len(res.Failed))
	}
	for _, f := range res.Failed {
		if !errors.Is(f.Err, contract.ErrContractFailure) {
			t.Fatalf("failure not terminal: %v", f.Err)
		}
	}
	replaySerially(t, reg, st.Snapshot(), res)
}

func TestReexecutionsReported(t *testing.T) {
	reg, st := newSmallBank(t, 2)
	ce := New(Config{Executors: 8, Registry: reg})
	var txs []*types.Transaction
	for i := 0; i < 200; i++ {
		txs = append(txs, &types.Transaction{
			Client: 1, Nonce: uint64(i + 1), Contract: workload.ContractSendPayment,
			Args: [][]byte{
				[]byte(workload.AccountName(i % 2)),
				[]byte(workload.AccountName((i + 1) % 2)),
				contract.EncodeInt64(1),
			},
		})
	}
	res := execBatch(t, ce, baseOf(st), txs)
	var fromResults uint64
	for _, r := range res.Results {
		fromResults += uint64(r.Reexecutions)
	}
	if fromResults > res.Reexecutions {
		t.Fatalf("per-tx retries %d exceed batch total %d", fromResults, res.Reexecutions)
	}
}

func TestEmptyBatch(t *testing.T) {
	reg, _ := newSmallBank(t, 1)
	ce := New(Config{Executors: 4, Registry: reg})
	res := execBatch(t, ce, nil, nil)
	if len(res.Schedule) != 0 || len(res.Failed) != 0 || res.Reexecutions != 0 {
		t.Fatalf("empty batch produced output: %+v", res)
	}
}

func TestNewDefaultsAndPanics(t *testing.T) {
	reg := contract.NewRegistry()
	ce := New(Config{Registry: reg})
	if ce.cfg.Executors != 1 {
		t.Fatal("executors should default to 1")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("missing registry should panic")
		}
	}()
	New(Config{})
}

// chaosSeed mirrors chaos.SeedFromEnv (imported inline to avoid an
// import cycle through the cluster packages): CHAOS_SEED overrides the
// default so any failure is replayable.
func chaosSeed(def int64) int64 {
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return def
}

const contractSaboteur = "test.saboteur"

// registerSaboteur installs a Byzantine contract that touches the hot
// key (so it conflicts with every honest transaction) and then refuses
// deterministically — the shape that livelocked MaxRetries:0 before
// the batch-level progress guarantee.
func registerSaboteur(reg *contract.Registry) {
	reg.MustRegister(contract.Func{
		ContractName: contractSaboteur,
		Fn: func(st contract.State, args [][]byte) error {
			if _, err := st.Read(types.Key(args[0])); err != nil {
				return err
			}
			if err := st.Write(types.Key(args[0]), contract.EncodeInt64(-1)); err != nil {
				return err
			}
			return contract.ErrAborted
		},
	})
}

// TestAdversarialAbortTerminates is the MaxRetries:0 livelock
// regression: deterministically-aborting contracts must fail
// terminally through the serial-fallback slot while every honest
// transaction still commits.
func TestAdversarialAbortTerminates(t *testing.T) {
	const accounts = 2
	reg, st := newSmallBank(t, accounts)
	registerSaboteur(reg)
	before, _ := workload.TotalBalance(st, accounts)
	ce := New(Config{Executors: 8, Registry: reg, MaxRetries: 0})
	hot := workload.CheckingKey(workload.AccountName(0))
	var txs []*types.Transaction
	honest := 0
	for i := 0; i < 120; i++ {
		if i%3 == 0 {
			txs = append(txs, &types.Transaction{
				Client: 2, Nonce: uint64(i + 1), Contract: contractSaboteur,
				Args: [][]byte{[]byte(hot)},
			})
			continue
		}
		honest++
		txs = append(txs, &types.Transaction{
			Client: 1, Nonce: uint64(i + 1), Contract: workload.ContractSendPayment,
			Args: [][]byte{
				[]byte(workload.AccountName(0)),
				[]byte(workload.AccountName(1)),
				contract.EncodeInt64(1),
			},
		})
	}
	res := execBatch(t, ce, baseOf(st), txs) // must terminate
	if len(res.Schedule) != honest {
		t.Fatalf("honest committed %d/%d", len(res.Schedule), honest)
	}
	if len(res.Failed) != len(txs)-honest {
		t.Fatalf("saboteurs failed %d/%d", len(res.Failed), len(txs)-honest)
	}
	for _, f := range res.Failed {
		if !errors.Is(f.Err, errNoProgress) && !errors.Is(f.Err, contract.ErrAborted) {
			t.Fatalf("saboteur failure not terminal abort: %v", f.Err)
		}
	}
	final := replaySerially(t, reg, st.Snapshot(), res)
	after, _ := workload.TotalBalance(final, accounts)
	if before != after {
		t.Fatalf("money not conserved: %d -> %d", before, after)
	}
}

// TestHotKeyProgressUnbounded: an always-conflicting hot-key workload
// at MaxRetries:0 must commit every transaction (the progress
// guarantee resolves stragglers through serial slots, it never fails
// an honest transaction).
func TestHotKeyProgressUnbounded(t *testing.T) {
	reg, st := newSmallBank(t, 2)
	ce := New(Config{Executors: 8, Registry: reg, MaxRetries: 0})
	var txs []*types.Transaction
	for i := 0; i < 200; i++ {
		txs = append(txs, &types.Transaction{
			Client: 1, Nonce: uint64(i + 1), Contract: workload.ContractSendPayment,
			Args: [][]byte{
				[]byte(workload.AccountName(i % 2)),
				[]byte(workload.AccountName((i + 1) % 2)),
				contract.EncodeInt64(1),
			},
		})
	}
	res := execBatch(t, ce, baseOf(st), txs)
	if len(res.Failed) != 0 {
		t.Fatalf("honest hot-key tx failed: %v", res.Failed[0].Err)
	}
	if len(res.Schedule) != 200 {
		t.Fatalf("scheduled %d/200", len(res.Schedule))
	}
	replaySerially(t, reg, st.Snapshot(), res)
}

// TestSessionCarryAcrossBatches: consecutive batches through one
// session (graph arena + committed-tip carry) must still replay
// serially — batch N+1 diffs against batch N's committed tips.
func TestSessionCarryAcrossBatches(t *testing.T) {
	const accounts = 8
	reg, st := newSmallBank(t, accounts)
	ce := New(Config{Executors: 4, Registry: reg})
	s := ce.NewSession()
	g := workload.NewGenerator(workload.Config{
		Accounts: accounts, Shards: 1, Theta: 0.8, ReadRatio: 0.3, Seed: 99,
	})
	for batch := 0; batch < 5; batch++ {
		txs := g.Batch(80)
		res := s.ExecuteBatch(baseOf(st), txs)
		if live := s.Live(); live != 0 {
			t.Fatalf("batch %d leaked %d live handles", batch, live)
		}
		if err := s.Graph().CheckInvariants(); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if len(res.Failed) != 0 {
			t.Fatalf("batch %d failures: %v", batch, res.Failed[0].Err)
		}
		final := replaySerially(t, reg, st.Snapshot(), res)
		// Apply the batch so the carried tips stay truthful, exactly as
		// the node commit path does.
		for k, v := range final.Snapshot() {
			st.Set(k, v)
		}
	}
}

// TestLayeredDifferentialSerialEquivalence is the differential test:
// the layered wave schedule (footprints known up front) and the legacy
// per-tx discovery schedule must produce identical serial-replay state
// for the same batch. Seed-replayable via CHAOS_SEED.
func TestLayeredDifferentialSerialEquivalence(t *testing.T) {
	seed := chaosSeed(7)
	t.Logf("differential seed %d (set CHAOS_SEED to replay)", seed)
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 10; trial++ {
		accounts := 2 + rng.Intn(12)
		batch := 30 + rng.Intn(80)
		reg, st := newSmallBank(t, accounts)
		g := workload.NewGenerator(workload.Config{
			Accounts: accounts, Shards: 1, Theta: rng.Float64() * 0.9,
			ReadRatio: rng.Float64(), Mix: trial%2 == 0, Seed: rng.Int63(),
		})
		txs := g.Batch(batch)

		// Legacy per-tx discovery schedule.
		discover := New(Config{Executors: 1 + rng.Intn(8), Registry: reg})
		dres := execBatch(t, discover, baseOf(st), txs)
		if len(dres.Failed) != 0 {
			t.Fatalf("trial %d: discovery failures: %v", trial, dres.Failed[0].Err)
		}
		dfinal := replaySerially(t, reg, st.Snapshot(), dres)

		// Layered wave schedule from the discovered footprints.
		accs := make([]depgraph.Access, len(dres.Schedule))
		for i := range dres.Results {
			for _, rec := range dres.Results[i].ReadSet {
				accs[i].Reads = append(accs[i].Reads, rec.Key)
			}
			for _, rec := range dres.Results[i].WriteSet {
				accs[i].Writes = append(accs[i].Writes, rec.Key)
			}
		}
		layered := New(Config{Executors: 1 + rng.Intn(8), Registry: reg})
		lres := layered.ExecuteLayered(baseOf(st), dres.Schedule, accs)
		if len(lres.Failed) != 0 {
			t.Fatalf("trial %d: layered failures: %v", trial, lres.Failed[0].Err)
		}
		if len(lres.Schedule) != len(dres.Schedule) {
			t.Fatalf("trial %d: layered scheduled %d, discovery %d", trial, len(lres.Schedule), len(dres.Schedule))
		}
		lfinal := replaySerially(t, reg, st.Snapshot(), lres)

		a, b := dfinal.Snapshot(), lfinal.Snapshot()
		if len(a) != len(b) {
			t.Fatalf("trial %d: state sizes diverged: %d vs %d", trial, len(a), len(b))
		}
		for k, v := range a {
			if !v.Equal(b[k]) {
				t.Fatalf("trial %d: key %s diverged: %q vs %q", trial, k, v, b[k])
			}
		}
	}
}

// --- scheduler micro-benchmarks (wired into the ce-sched CI job) ---

func benchBatch(b *testing.B, accounts, batch int, theta float64) (*contract.Registry, *storage.Store, []*types.Transaction) {
	b.Helper()
	reg := contract.NewRegistry()
	workload.RegisterSmallBank(reg)
	st := storage.New()
	workload.InitAccounts(st, accounts, 1000, 1000)
	g := workload.NewGenerator(workload.Config{
		Accounts: accounts, Shards: 1, Theta: theta, ReadRatio: 0.5, Seed: 1,
	})
	return reg, st, g.Batch(batch)
}

// BenchmarkLayeredWave measures the known-footprint wave path against
// the discovery path on the same batch.
func BenchmarkLayeredWave(b *testing.B) {
	reg, st, txs := benchBatch(b, 64, 500, 0.6)
	c := New(Config{Executors: 4, Registry: reg})
	pre := c.ExecuteBatch(baseOf(st), txs)
	accs := make([]depgraph.Access, len(pre.Schedule))
	for i := range pre.Results {
		for _, rec := range pre.Results[i].ReadSet {
			accs[i].Reads = append(accs[i].Reads, rec.Key)
		}
		for _, rec := range pre.Results[i].WriteSet {
			accs[i].Writes = append(accs[i].Writes, rec.Key)
		}
	}
	b.Run("discovery", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.ExecuteBatch(baseOf(st), txs)
		}
	})
	b.Run("layered", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.ExecuteLayered(baseOf(st), pre.Schedule, accs)
		}
	})
}

// BenchmarkGraphReuse measures per-batch cost with a session arena
// (node/map recycling + committed-tip carry) against cold graphs.
func BenchmarkGraphReuse(b *testing.B) {
	reg, st, txs := benchBatch(b, 64, 500, 0.6)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := New(Config{Executors: 4, Registry: reg})
			c.ExecuteBatch(baseOf(st), txs)
		}
	})
	b.Run("session", func(b *testing.B) {
		c := New(Config{Executors: 4, Registry: reg})
		s := c.NewSession()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.ExecuteBatch(baseOf(st), txs)
		}
	})
}

// TestSessionKeyStatesPlateau streams fresh keys through one session —
// every batch deposits into accounts no earlier batch touched — and
// requires the graph's key-state cache to plateau near one batch's
// footprint instead of holding a state for every key ever seen.
func TestSessionKeyStatesPlateau(t *testing.T) {
	const perBatch, batches = 40, 150
	reg, st := newSmallBank(t, perBatch*batches)
	s := New(Config{Executors: 4, Registry: reg}).NewSession()
	nonce := uint64(0)
	peak := 0
	for b := 0; b < batches; b++ {
		txs := make([]*types.Transaction, perBatch)
		for i := range txs {
			nonce++
			txs[i] = &types.Transaction{Client: 1, Nonce: nonce, Contract: workload.ContractDepositChecking,
				Args: [][]byte{[]byte(workload.AccountName(b*perBatch + i)), contract.EncodeInt64(1)}}
		}
		if res := s.ExecuteBatch(baseOf(st), txs); len(res.Schedule) != perBatch {
			t.Fatalf("batch %d scheduled %d of %d", b, len(res.Schedule), perBatch)
		}
		live, _ := s.Graph().KeyStates()
		peak = max(peak, live)
	}
	live, dropped := s.Graph().KeyStates()
	// One batch's keys, plus at most twice that carried from before the
	// last drop.
	if peak > 3*perBatch {
		t.Fatalf("key-state cache peaked at %d states for %d keys per batch (%d keys streamed)", peak, perBatch, perBatch*batches)
	}
	if dropped < uint64(perBatch*batches-3*perBatch) {
		t.Fatalf("%d states dropped, %d live, after %d fresh keys", dropped, live, perBatch*batches)
	}
}
