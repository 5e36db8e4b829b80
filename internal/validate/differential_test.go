package validate

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thunderbolt/internal/contract"
	"thunderbolt/internal/storage"
	"thunderbolt/internal/types"
	"thunderbolt/internal/vm"
	"thunderbolt/internal/workload"
)

// refState records what one serially replayed transaction observed.
type refState struct {
	get    func(types.Key) types.Value
	reads  map[types.Key]types.Value
	writes map[types.Key]types.Value
}

func (s *refState) Read(k types.Key) (types.Value, error) {
	if v, ok := s.writes[k]; ok {
		return v, nil
	}
	if v, ok := s.reads[k]; ok {
		return v, nil
	}
	v := s.get(k)
	s.reads[k] = v
	return v, nil
}

func (s *refState) Write(k types.Key, v types.Value) error {
	s.writes[k] = v
	return nil
}

// sameSet reports whether declared is observed, record for record: no
// key twice, none missing, none extra, every value equal.
func sameSet(declared []types.RWRecord, observed map[types.Key]types.Value) bool {
	if len(declared) != len(observed) {
		return false
	}
	seen := map[types.Key]bool{}
	for _, r := range declared {
		v, ok := observed[r.Key]
		if !ok || seen[r.Key] || !v.Equal(r.Value) {
			return false
		}
		seen[r.Key] = true
	}
	return true
}

// referenceValidate is the validator ValidateBatch must agree with:
// serial replay in schedule order over a map, each transaction's
// observed sets compared with its declaration. It returns the state
// delta the batch leaves.
func referenceValidate(reg *contract.Registry, base BaseReader, txs []*types.Transaction,
	results []types.TxResult) (map[types.Key]types.Value, error) {
	if len(txs) != len(results) {
		return nil, ErrInvalidBlock
	}
	state := map[types.Key]types.Value{}
	get := func(k types.Key) types.Value {
		if v, ok := state[k]; ok {
			return v
		}
		return base(k)
	}
	for i, tx := range txs {
		if int(results[i].ScheduleIdx) != i || results[i].TxID != tx.ID() {
			return nil, ErrInvalidBlock
		}
		st := &refState{get: get, reads: map[types.Key]types.Value{}, writes: map[types.Key]types.Value{}}
		if err := vm.ExecuteTx(reg, st, tx); err != nil {
			return nil, fmt.Errorf("%w: tx %d: %v", ErrInvalidBlock, i, err)
		}
		if !sameSet(results[i].ReadSet, st.reads) {
			return nil, fmt.Errorf("%w: tx %d read set", ErrInvalidBlock, i)
		}
		if !sameSet(results[i].WriteSet, st.writes) {
			return nil, fmt.Errorf("%w: tx %d write set", ErrInvalidBlock, i)
		}
		for k, v := range st.writes {
			state[k] = v
		}
	}
	return state, nil
}

func cloneResults(in []types.TxResult) []types.TxResult {
	out := make([]types.TxResult, len(in))
	for i, r := range in {
		r.ReadSet = append([]types.RWRecord(nil), r.ReadSet...)
		r.WriteSet = append([]types.RWRecord(nil), r.WriteSet...)
		out[i] = r
	}
	return out
}

// heldAt is the value key k holds at schedule position i: the last
// declared write before it, else base.
func heldAt(results []types.TxResult, base BaseReader, i int, k types.Key) types.Value {
	for j := i - 1; j >= 0; j-- {
		for _, w := range results[j].WriteSet {
			if w.Key == k {
				return w.Value
			}
		}
	}
	return base(k)
}

// batchCase is one validation input; a mutation edits it in place and
// reports whether it found something to edit.
type batchCase struct {
	txs     []*types.Transaction
	results []types.TxResult
	store   *storage.Store
}

type mutation struct {
	name string
	// sound mutations may leave an acceptable batch (two swapped
	// transactions that do not conflict); all others must be rejected.
	sound bool
	apply func(c *batchCase, rng *rand.Rand) bool
}

// pick returns a random position whose result satisfies ok, or -1.
func pick(c *batchCase, rng *rand.Rand, ok func(r *types.TxResult) bool) int {
	start := rng.Intn(len(c.results))
	for d := range c.results {
		if i := (start + d) % len(c.results); ok(&c.results[i]) {
			return i
		}
	}
	return -1
}

func hasReads(r *types.TxResult) bool  { return len(r.ReadSet) > 0 }
func hasWrites(r *types.TxResult) bool { return len(r.WriteSet) > 0 }

var mutations = []mutation{
	{name: "none", sound: true, apply: func(*batchCase, *rand.Rand) bool { return true }},
	{name: "forged write value", apply: func(c *batchCase, rng *rand.Rand) bool {
		i := pick(c, rng, hasWrites)
		if i < 0 {
			return false
		}
		c.results[i].WriteSet[0].Value = contract.EncodeInt64(1 << 40)
		return true
	}},
	{name: "forged read value", apply: func(c *batchCase, rng *rand.Rand) bool {
		i := pick(c, rng, hasReads)
		if i < 0 {
			return false
		}
		c.results[i].ReadSet[0].Value = contract.EncodeInt64(1 << 41)
		return true
	}},
	{name: "read value of the writer before the last", apply: func(c *batchCase, rng *rand.Rand) bool {
		base := baseOf(c.store)
		// A read whose key an earlier transaction of the batch wrote:
		// declare what the key held before that writer ran.
		for i := len(c.results) - 1; i > 0; i-- {
			for ri, rd := range c.results[i].ReadSet {
				for j := i - 1; j >= 0; j-- {
					for _, w := range c.results[j].WriteSet {
						if w.Key != rd.Key {
							continue
						}
						before := heldAt(c.results, base, j, rd.Key)
						if before.Equal(rd.Value) {
							continue
						}
						c.results[i].ReadSet[ri].Value = before
						return true
					}
				}
			}
		}
		return false
	}},
	{name: "undeclared read", apply: func(c *batchCase, rng *rand.Rand) bool {
		i := pick(c, rng, hasReads)
		if i < 0 {
			return false
		}
		c.results[i].ReadSet = c.results[i].ReadSet[1:]
		return true
	}},
	{name: "declared read never made", apply: func(c *batchCase, rng *rand.Rand) bool {
		i := rng.Intn(len(c.results))
		k := types.Key("never-touched")
		// The right value for the position, so only replay can object.
		c.results[i].ReadSet = append(c.results[i].ReadSet,
			types.RWRecord{Key: k, Value: heldAt(c.results, baseOf(c.store), i, k)})
		return true
	}},
	{name: "read declared twice over another", apply: func(c *batchCase, rng *rand.Rand) bool {
		i := pick(c, rng, func(r *types.TxResult) bool { return len(r.ReadSet) > 1 })
		if i < 0 {
			return false
		}
		c.results[i].ReadSet[1] = c.results[i].ReadSet[0]
		return true
	}},
	{name: "extra declared write", apply: func(c *batchCase, rng *rand.Rand) bool {
		i := rng.Intn(len(c.results))
		c.results[i].WriteSet = append(c.results[i].WriteSet,
			types.RWRecord{Key: "never-touched", Value: contract.EncodeInt64(7)})
		return true
	}},
	{name: "missing declared write", apply: func(c *batchCase, rng *rand.Rand) bool {
		i := pick(c, rng, hasWrites)
		if i < 0 {
			return false
		}
		c.results[i].WriteSet = c.results[i].WriteSet[1:]
		return true
	}},
	{name: "write declared twice over another", apply: func(c *batchCase, rng *rand.Rand) bool {
		i := pick(c, rng, func(r *types.TxResult) bool { return len(r.WriteSet) > 1 })
		if i < 0 {
			return false
		}
		c.results[i].WriteSet[1] = c.results[i].WriteSet[0]
		return true
	}},
	{name: "two results swapped", sound: true, apply: func(c *batchCase, rng *rand.Rand) bool {
		i, j := rng.Intn(len(c.results)), rng.Intn(len(c.results))
		if i == j {
			return false
		}
		// Whole schedule entries trade places, so the shape checks
		// pass and only the values can give the reordering away.
		c.txs[i], c.txs[j] = c.txs[j], c.txs[i]
		c.results[i], c.results[j] = c.results[j], c.results[i]
		c.results[i].ScheduleIdx, c.results[j].ScheduleIdx = uint32(i), uint32(j)
		return true
	}},
	{name: "stale base", apply: func(c *batchCase, rng *rand.Rand) bool {
		// The first read of the batch necessarily comes from base.
		for i := range c.results {
			if len(c.results[i].ReadSet) > 0 {
				c.store.Set(c.results[i].ReadSet[0].Key, contract.EncodeInt64(-5))
				return true
			}
		}
		return false
	}},
}

// TestValidateAgreesWithSerialReplay: on seeded random batches, hot and
// uniform, honest and mutated every way a proposer can lie, the
// two-half validator accepts exactly what serial replay accepts and
// yields the same delta.
func TestValidateAgreesWithSerialReplay(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const accounts, size = 40, 120
	for _, theta := range []float64{0.95, 0} {
		for seed := int64(1); seed <= 4; seed++ {
			reg, st := setup(t, accounts)
			g := workload.NewGenerator(workload.Config{Accounts: accounts, Shards: 1, Theta: theta, ReadRatio: 0.3, Mix: true, Seed: seed})
			honest := preplay(t, reg, st, g.Batch(size))
			for _, m := range mutations {
				for rep := int64(0); rep < 3; rep++ {
					c := &batchCase{
						txs:     append([]*types.Transaction(nil), honest.Schedule...),
						results: cloneResults(honest.Results),
						store:   storage.New(),
					}
					for k, v := range st.Snapshot() {
						c.store.Set(k, v)
					}
					name := fmt.Sprintf("theta %.2f seed %d %s #%d", theta, seed, m.name, rep)
					if !m.apply(c, rand.New(rand.NewSource(seed*100+rep))) {
						continue
					}
					want, refErr := referenceValidate(reg, baseOf(c.store), c.txs, c.results)
					got, err := ValidateBatch(reg, baseOf(c.store), c.txs, c.results, 16)
					if (err == nil) != (refErr == nil) {
						t.Fatalf("%s: validator says %v, serial replay says %v", name, err, refErr)
					}
					if err != nil && !errors.Is(err, ErrInvalidBlock) {
						t.Fatalf("%s: rejection is not ErrInvalidBlock: %v", name, err)
					}
					if err == nil && !m.sound {
						t.Fatalf("%s: accepted", name)
					}
					if m.name == "none" && err != nil {
						t.Fatalf("%s: honest batch rejected: %v", name, err)
					}
					if err != nil {
						continue
					}
					if len(got.Writes) != len(want) {
						t.Fatalf("%s: delta has %d keys, serial replay %d", name, len(got.Writes), len(want))
					}
					for _, w := range got.Writes {
						if v, ok := want[w.Key]; !ok || !v.Equal(w.Value) {
							t.Fatalf("%s: delta %s=%q, serial replay %q", name, w.Key, w.Value, v)
						}
					}
				}
			}
		}
	}
}

// goid is the running goroutine's id, parsed off its stack header.
func goid() uint64 {
	var buf [64]byte
	f := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	id, _ := strconv.ParseUint(string(f[1]), 10, 64)
	return id
}

// hotKeyBatch is n deposits to one account with their declared results,
// built by serial execution: every pair of them conflicts.
func hotKeyBatch(t *testing.T, reg *contract.Registry, st *storage.Store, n int) ([]*types.Transaction, []types.TxResult) {
	t.Helper()
	txs := make([]*types.Transaction, n)
	results := make([]types.TxResult, n)
	state := map[types.Key]types.Value{}
	for i := range txs {
		txs[i] = &types.Transaction{Client: 1, Nonce: uint64(i + 1), Contract: workload.ContractDepositChecking,
			Args: [][]byte{[]byte(workload.AccountName(0)), contract.EncodeInt64(int64(i + 1))}}
		rs := &refState{reads: map[types.Key]types.Value{}, writes: map[types.Key]types.Value{}}
		rs.get = func(k types.Key) types.Value {
			if v, ok := state[k]; ok {
				return v
			}
			return baseOf(st)(k)
		}
		if err := vm.ExecuteTx(reg, rs, txs[i]); err != nil {
			t.Fatal(err)
		}
		results[i] = types.TxResult{TxID: txs[i].ID(), ScheduleIdx: uint32(i)}
		for k, v := range rs.reads {
			results[i].ReadSet = append(results[i].ReadSet, types.RWRecord{Key: k, Value: v})
		}
		for k, v := range rs.writes {
			results[i].WriteSet = append(results[i].WriteSet, types.RWRecord{Key: k, Value: v})
			state[k] = v
		}
	}
	return txs, results
}

// TestValidateHotKeyBatchIsOnePass: 500 transactions on one key are one
// fan-out, not 500 one-transaction waves. The contract holds its first
// callers until as many as there are workers are inside at once — which
// can only happen when conflicting transactions replay concurrently —
// and the goroutines that ever ran a contract are exactly the workers.
func TestValidateHotKeyBatchIsOnePass(t *testing.T) {
	const workers, n = 4, 500
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	plain, st := setup(t, 1)
	txs, results := hotKeyBatch(t, plain, st, n)

	var (
		arrived  atomic.Int64
		gate     = make(chan struct{})
		timedOut atomic.Bool
		mu       sync.Mutex
		ran      = map[uint64]bool{}
	)
	deposit, _ := plain.Lookup(workload.ContractDepositChecking)
	reg := contract.NewRegistry()
	reg.MustRegister(contract.Func{ContractName: workload.ContractDepositChecking, Fn: func(s contract.State, args [][]byte) error {
		mu.Lock()
		ran[goid()] = true
		mu.Unlock()
		if arrived.Add(1) == workers {
			close(gate)
		}
		select {
		case <-gate:
		case <-time.After(10 * time.Second):
			timedOut.Store(true)
		}
		return deposit.Execute(s, args)
	}})

	res, err := ValidateBatch(reg, baseOf(st), txs, results, 16)
	if err != nil {
		t.Fatal(err)
	}
	if timedOut.Load() {
		t.Fatalf("conflicting transactions never replayed %d at a time", workers)
	}
	if len(ran) != workers {
		t.Fatalf("%d goroutines ran contracts, want one fan-out of %d", len(ran), workers)
	}
	if got := arrived.Load(); got != n {
		t.Fatalf("%d executions for %d transactions", got, n)
	}
	if len(res.Writes) != 1 || !res.Writes[0].Value.Equal(results[n-1].WriteSet[0].Value) {
		t.Fatalf("delta = %v, want the last deposit's write", res.Writes)
	}
}

// TestBaseCalledOnCallingGoroutineOnly: the base reader may be
// unsynchronized caller state — runWave's is — so validation calls it
// from the goroutine that called it, one call at a time.
func TestBaseCalledOnCallingGoroutineOnly(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	reg, st := setup(t, 20)
	g := workload.NewGenerator(workload.Config{Accounts: 20, Shards: 1, Theta: 0.95, ReadRatio: 0.3, Seed: 11})
	batch := preplay(t, reg, st, g.Batch(300))

	caller := goid()
	var busy atomic.Bool // non-reentrant: a second caller finds it taken
	var calls, foreign, overlapped atomic.Int64
	base := func(k types.Key) types.Value {
		calls.Add(1)
		if !busy.CompareAndSwap(false, true) {
			overlapped.Add(1)
		}
		if goid() != caller {
			foreign.Add(1)
		}
		runtime.Gosched() // widen the window a concurrent caller would hit
		v, _ := st.Get(k)
		busy.Store(false)
		return v
	}
	if _, err := ValidateBatch(reg, base, batch.Schedule, batch.Results, 16); err != nil {
		t.Fatal(err)
	}
	b := &types.Block{SingleTxs: batch.Schedule, Results: batch.Results}
	if _, err := ValidateBlock(reg, base, b, 16); err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Fatal("base never called")
	}
	if foreign.Load() != 0 || overlapped.Load() != 0 {
		t.Fatalf("%d of %d base calls off the calling goroutine, %d overlapping", foreign.Load(), calls.Load(), overlapped.Load())
	}
}

// wrapRegistry returns inner with before run ahead of every contract.
func wrapRegistry(inner *contract.Registry, before func(st contract.State) contract.State) *contract.Registry {
	outer := contract.NewRegistry()
	for _, name := range inner.Names() {
		c, _ := inner.Lookup(name)
		outer.MustRegister(contract.Func{ContractName: name, Fn: func(st contract.State, args [][]byte) error {
			return c.Execute(before(st), args)
		}})
	}
	return outer
}

// countingRegistry counts every contract execution of inner in n.
func countingRegistry(inner *contract.Registry, n *atomic.Int64) *contract.Registry {
	return wrapRegistry(inner, func(st contract.State) contract.State {
		n.Add(1)
		return st
	})
}

// TestValidateBlockReplaysOnce: replay's verdict stays with the block —
// accepted or rejected, a second validation executes nothing — while
// the consistency pass still judges every call against its own base,
// and a decoded copy starts without a verdict.
func TestValidateBlockReplaysOnce(t *testing.T) {
	plain, st := setup(t, 8)
	var execs atomic.Int64
	reg := countingRegistry(plain, &execs)
	g := workload.NewGenerator(workload.Config{Accounts: 8, Shards: 1, Theta: 0.9, ReadRatio: 0.3, Seed: 5})
	batch := preplay(t, plain, st, g.Batch(60))
	n := int64(len(batch.Schedule))

	b := &types.Block{Kind: types.NormalBlock, SingleTxs: batch.Schedule, Results: cloneResults(batch.Results)}
	first, err := ValidateBlock(reg, baseOf(st), b, 4)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ValidateBlock(reg, baseOf(st), b, 4)
	if err != nil {
		t.Fatal(err)
	}
	if execs.Load() != n {
		t.Fatalf("two validations executed %d contracts for %d transactions", execs.Load(), n)
	}
	if len(first.Writes) != len(second.Writes) {
		t.Fatal("second validation built another delta")
	}
	// The same block on a moved base: rejected by the pass that runs.
	stale := storage.New()
	for k, v := range st.Snapshot() {
		stale.Set(k, v)
	}
	stale.Set(batch.Results[0].ReadSet[0].Key, contract.EncodeInt64(-1))
	if _, err := ValidateBlock(reg, baseOf(stale), b, 4); !errors.Is(err, ErrInvalidBlock) {
		t.Fatalf("stale base accepted: %v", err)
	}

	// A forged write under correct reads — the last write of its key, so
	// no later read gives it away to the consistency pass: only replay
	// can reject it, and it does so once.
	forged := &types.Block{Kind: types.NormalBlock, SingleTxs: batch.Schedule, Results: cloneResults(batch.Results)}
	at := -1
	for i := len(forged.Results) - 1; i >= 0 && at < 0; i-- {
		if hasWrites(&forged.Results[i]) {
			at = i
		}
	}
	for j := at + 1; j < len(forged.Results); j++ {
		for _, rd := range forged.Results[j].ReadSet {
			if rd.Key == forged.Results[at].WriteSet[0].Key {
				t.Skip("the last writer's key is read after it")
			}
		}
	}
	forged.Results[at].WriteSet[0].Value = contract.EncodeInt64(1 << 40)
	execs.Store(0)
	_, err1 := ValidateBlock(reg, baseOf(st), forged, 4)
	ran := execs.Load()
	_, err2 := ValidateBlock(reg, baseOf(st), forged, 4)
	if !errors.Is(err1, ErrInvalidBlock) || !errors.Is(err2, ErrInvalidBlock) {
		t.Fatalf("forged write accepted: %v, %v", err1, err2)
	}
	if ran == 0 || execs.Load() != ran {
		t.Fatalf("rejected block: %d executions, then %d after a second validation", ran, execs.Load())
	}

	// Decoding resets the verdict.
	data, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if _, known := b.ReplayVerdict(); known {
		t.Fatal("decoded block kept a replay verdict")
	}
}

// TestWideFootprint: past scanMax records a footprint is found through
// a map; the verdicts must not change with the representation.
func TestWideFootprint(t *testing.T) {
	const width = 3 * scanMax
	key := func(i int) types.Key { return types.Key("w" + strconv.Itoa(i)) }
	reg := contract.NewRegistry()
	reg.MustRegister(contract.Func{ContractName: "wide", Fn: func(st contract.State, _ [][]byte) error {
		for i := 0; i < width; i++ {
			v, err := st.Read(key(i))
			if err != nil {
				return err
			}
			if err := st.Write(key(i+width/2), append(types.Value("x"), v...)); err != nil {
				return err
			}
		}
		return nil
	}})
	store := storage.New()
	for i := 0; i < 2*width; i++ {
		store.Set(key(i), types.Value(strconv.Itoa(i)))
	}
	tx := &types.Transaction{Client: 1, Nonce: 1, Contract: "wide"}
	rs := &refState{get: baseOf(store), reads: map[types.Key]types.Value{}, writes: map[types.Key]types.Value{}}
	if err := vm.ExecuteTx(reg, rs, tx); err != nil {
		t.Fatal(err)
	}
	honest := types.TxResult{TxID: tx.ID()}
	for i := 0; i < 2*width; i++ {
		if v, ok := rs.reads[key(i)]; ok {
			honest.ReadSet = append(honest.ReadSet, types.RWRecord{Key: key(i), Value: v})
		}
		if v, ok := rs.writes[key(i)]; ok {
			honest.WriteSet = append(honest.WriteSet, types.RWRecord{Key: key(i), Value: v})
		}
	}
	if len(honest.ReadSet) <= scanMax || len(honest.WriteSet) <= scanMax {
		t.Fatalf("footprint %d/%d is not past scanMax", len(honest.ReadSet), len(honest.WriteSet))
	}
	txs := []*types.Transaction{tx}
	for _, m := range mutations {
		c := &batchCase{txs: txs, results: cloneResults([]types.TxResult{honest}), store: store}
		if m.name == "stale base" || !m.apply(c, rand.New(rand.NewSource(3))) {
			continue
		}
		_, refErr := referenceValidate(reg, baseOf(store), txs, c.results)
		_, err := ValidateBatch(reg, baseOf(store), txs, c.results, 2)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%s: validator says %v, serial replay says %v", m.name, err, refErr)
		}
	}
}

// TestCrossOrderedModesAgree: fanned out wave by wave, inline, or one
// transaction per call, the cross-shard executor decides the same
// outcomes and the same delta — and the order it folds in depends on
// the transactions alone.
func TestCrossOrderedModesAgree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	// One account per shard, so shard-disjoint means key-disjoint and
	// waves grow wide enough to fan out.
	const accounts = 64
	reg, st := setup(t, accounts)
	rng := rand.New(rand.NewSource(9))
	var txs []*types.Transaction
	for i := 0; i < 240; i++ {
		a, b := rng.Intn(accounts), rng.Intn(accounts)
		if a == b {
			continue
		}
		tx := &types.Transaction{
			Client: 1, Nonce: uint64(i + 1), Kind: types.CrossShard,
			Shards:   []types.ShardID{types.ShardID(a), types.ShardID(b)},
			Contract: workload.ContractSendPayment,
			Args:     [][]byte{[]byte(workload.AccountName(a)), []byte(workload.AccountName(b)), contract.EncodeInt64(int64(1 + rng.Intn(50)))},
		}
		if i%17 == 0 {
			tx.Contract = "nonexistent"
		}
		txs = append(txs, tx)
	}
	p := &wavePlan{lastWave: map[types.ShardID]int{}}
	p.plan(txs)
	widest := 0
	for w := 0; w+1 < len(p.start); w++ {
		widest = max(widest, p.start[w+1]-p.start[w])
	}
	if widest < parallelMin {
		t.Fatalf("widest wave holds %d transactions: nothing fans out", widest)
	}

	parallel, parDelta := runCross(reg, st, txs, 16)
	inline, inDelta := runCross(reg, st, txs, 1)
	// One transaction per call, every call seeing its predecessors.
	var serial []CrossOutcome
	serDelta := map[types.Key]types.Value{}
	for _, tx := range txs {
		base := func(k types.Key) types.Value {
			if v, ok := serDelta[k]; ok {
				return v
			}
			return baseOf(st)(k)
		}
		fold := func(ws []types.RWRecord) {
			for _, w := range ws {
				serDelta[w.Key] = w.Value
			}
		}
		serial = append(serial, ExecuteCrossOrdered(reg, base, []*types.Transaction{tx}, 1, fold)...)
	}

	sameOutcome := func(a, b CrossOutcome) bool {
		if a.Tx != b.Tx || (a.Err == nil) != (b.Err == nil) || len(a.Writes) != len(b.Writes) {
			return false
		}
		for i := range a.Writes {
			if a.Writes[i].Key != b.Writes[i].Key || !a.Writes[i].Value.Equal(b.Writes[i].Value) {
				return false
			}
		}
		return true
	}
	failed := 0
	for i := range txs {
		if !sameOutcome(parallel[i], inline[i]) || !sameOutcome(parallel[i], serial[i]) {
			t.Fatalf("tx %d: outcomes differ: parallel %+v inline %+v serial %+v", i, parallel[i], inline[i], serial[i])
		}
		if parallel[i].Err != nil {
			failed++
			if len(parallel[i].Writes) != 0 {
				t.Fatalf("tx %d failed and still wrote", i)
			}
		}
	}
	if failed == 0 {
		t.Fatal("no transaction failed: failure isolation not exercised")
	}
	if len(parDelta) != len(inDelta) || len(parDelta) != len(serDelta) {
		t.Fatalf("delta sizes differ: %d, %d, %d", len(parDelta), len(inDelta), len(serDelta))
	}
	for i, w := range parDelta {
		if w.Key != inDelta[i].Key || !w.Value.Equal(inDelta[i].Value) {
			t.Fatalf("fold order depends on workers: position %d is %s then %s", i, w.Key, inDelta[i].Key)
		}
		if v, ok := serDelta[w.Key]; !ok || !v.Equal(w.Value) {
			t.Fatalf("delta %s=%q, serial %q", w.Key, w.Value, v)
		}
	}
}
