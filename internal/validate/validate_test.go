package validate

import (
	"errors"
	"testing"

	"thunderbolt/internal/ce"
	"thunderbolt/internal/contract"
	"thunderbolt/internal/storage"
	"thunderbolt/internal/storage/storagetest"
	"thunderbolt/internal/types"
	"thunderbolt/internal/workload"
)

func setup(t *testing.T, accounts int) (*contract.Registry, *storage.Store) {
	t.Helper()
	reg := contract.NewRegistry()
	workload.RegisterSmallBank(reg)
	st := storage.New()
	workload.InitAccounts(st, accounts, 1000, 1000)
	return reg, st
}

func baseOf(st *storage.Store) BaseReader {
	return func(k types.Key) types.Value {
		v, _ := st.Get(k)
		return v
	}
}

// preplay runs a batch through the real CE to get authentic results.
func preplay(t *testing.T, reg *contract.Registry, st *storage.Store, txs []*types.Transaction) *ce.BatchResult {
	t.Helper()
	exec := ce.New(ce.Config{Executors: 4, Registry: reg})
	res := exec.ExecuteBatch(func(k types.Key) types.Value {
		v, _ := st.Get(k)
		return v
	}, txs)
	if len(res.Failed) != 0 {
		t.Fatalf("preplay failures: %v", res.Failed[0].Err)
	}
	return res
}

func TestValidateAcceptsHonestPreplay(t *testing.T) {
	reg, st := setup(t, 8)
	g := workload.NewGenerator(workload.Config{Accounts: 8, Shards: 1, Theta: 0.9, ReadRatio: 0.3, Seed: 4})
	batch := preplay(t, reg, st, g.Batch(150))
	res, err := ValidateBatch(reg, baseOf(st), batch.Schedule, batch.Results, 8)
	if err != nil {
		t.Fatalf("honest preplay rejected: %v", err)
	}
	// Applying the delta must equal serially replaying the schedule.
	serial := storage.New()
	for k, v := range st.Snapshot() {
		serial.Set(k, v)
	}
	for _, tx := range batch.Schedule {
		o := storagetest.NewOverlay(serial)
		if err := execTx(reg, o, tx); err != nil {
			t.Fatal(err)
		}
		o.Flush()
	}
	applied := storage.New()
	for k, v := range st.Snapshot() {
		applied.Set(k, v)
	}
	applied.Apply(res.Writes)
	for _, k := range serial.Keys() {
		a, _ := applied.Get(k)
		s, _ := serial.Get(k)
		if !a.Equal(s) {
			t.Fatalf("delta mismatch at %s: %q vs %q", k, a, s)
		}
	}
}

func execTx(reg *contract.Registry, o *storagetest.Overlay, tx *types.Transaction) error {
	c, ok := reg.Lookup(tx.Contract)
	if !ok {
		return errors.New("unknown contract")
	}
	return c.Execute(o, tx.Args)
}

func TestValidateRejectsForgedRead(t *testing.T) {
	reg, st := setup(t, 4)
	g := workload.NewGenerator(workload.Config{Accounts: 4, Shards: 1, Theta: 0.5, ReadRatio: 0, Seed: 2})
	batch := preplay(t, reg, st, g.Batch(20))
	// Tamper with one declared read value.
	if len(batch.Results[5].ReadSet) == 0 {
		t.Skip("tx 5 has no reads")
	}
	batch.Results[5].ReadSet[0].Value = types.Value("forged")
	_, err := ValidateBatch(reg, baseOf(st), batch.Schedule, batch.Results, 4)
	if !errors.Is(err, ErrInvalidBlock) {
		t.Fatalf("forged read accepted: %v", err)
	}
}

func TestValidateRejectsForgedWrite(t *testing.T) {
	reg, st := setup(t, 4)
	g := workload.NewGenerator(workload.Config{Accounts: 4, Shards: 1, Theta: 0.5, ReadRatio: 0, Seed: 3})
	batch := preplay(t, reg, st, g.Batch(20))
	for i := range batch.Results {
		if len(batch.Results[i].WriteSet) > 0 {
			batch.Results[i].WriteSet[0].Value = contract.EncodeInt64(1 << 40)
			_, err := ValidateBatch(reg, baseOf(st), batch.Schedule, batch.Results, 4)
			if !errors.Is(err, ErrInvalidBlock) {
				t.Fatalf("forged write accepted: %v", err)
			}
			return
		}
	}
	t.Skip("no writes to tamper with")
}

func TestValidateRejectsReorderedSchedule(t *testing.T) {
	reg, st := setup(t, 2)
	// Two conflicting deposits; swapping them breaks read values.
	txs := []*types.Transaction{
		{Client: 1, Nonce: 1, Contract: workload.ContractDepositChecking,
			Args: [][]byte{[]byte(workload.AccountName(0)), contract.EncodeInt64(10)}},
		{Client: 1, Nonce: 2, Contract: workload.ContractDepositChecking,
			Args: [][]byte{[]byte(workload.AccountName(0)), contract.EncodeInt64(20)}},
	}
	batch := preplay(t, reg, st, txs)
	// Swap transactions but keep the results aligned to old positions.
	batch.Schedule[0], batch.Schedule[1] = batch.Schedule[1], batch.Schedule[0]
	_, err := ValidateBatch(reg, baseOf(st), batch.Schedule, batch.Results, 2)
	if !errors.Is(err, ErrInvalidBlock) {
		t.Fatalf("reordered schedule accepted: %v", err)
	}
}

func TestValidateRejectsStructuralGarbage(t *testing.T) {
	reg, st := setup(t, 2)
	tx := &types.Transaction{Client: 1, Nonce: 1, Contract: workload.ContractGetBalance,
		Args: [][]byte{[]byte(workload.AccountName(0))}}
	// Length mismatch.
	if _, err := ValidateBatch(reg, baseOf(st), []*types.Transaction{tx}, nil, 1); !errors.Is(err, ErrInvalidBlock) {
		t.Fatal("length mismatch accepted")
	}
	// Wrong TxID.
	res := []types.TxResult{{TxID: types.HashBytes([]byte("other"))}}
	if _, err := ValidateBatch(reg, baseOf(st), []*types.Transaction{tx}, res, 1); !errors.Is(err, ErrInvalidBlock) {
		t.Fatal("wrong TxID accepted")
	}
	// Non-dense schedule indices.
	res = []types.TxResult{{TxID: tx.ID(), ScheduleIdx: 5}}
	if _, err := ValidateBatch(reg, baseOf(st), []*types.Transaction{tx}, res, 1); !errors.Is(err, ErrInvalidBlock) {
		t.Fatal("sparse schedule accepted")
	}
}

func TestValidateEmptyBatch(t *testing.T) {
	reg, st := setup(t, 1)
	res, err := ValidateBatch(reg, baseOf(st), nil, nil, 4)
	if err != nil || len(res.Writes) != 0 {
		t.Fatalf("empty batch: %v %v", res, err)
	}
}

// crossDelta is the running delta node.runWave keeps around the
// ordered executor: fold records each wave's writes, and base serves
// them ahead of the store. base and fold are bound once, so a caller
// that resets and reuses one allocates nothing per run.
type crossDelta struct {
	st   *storage.Store
	recs []types.RWRecord // fold order
	at   map[types.Key]int
	base BaseReader
	fold func(writes []types.RWRecord)
}

func newCrossDelta(st *storage.Store) *crossDelta {
	d := &crossDelta{st: st, at: map[types.Key]int{}}
	d.base = func(k types.Key) types.Value {
		if i, ok := d.at[k]; ok {
			return d.recs[i].Value
		}
		v, _ := d.st.Get(k)
		return v
	}
	d.fold = func(writes []types.RWRecord) {
		for _, w := range writes {
			if i, ok := d.at[w.Key]; ok {
				d.recs[i].Value = w.Value
				continue
			}
			d.at[w.Key] = len(d.recs)
			d.recs = append(d.recs, w)
		}
	}
	return d
}

func (d *crossDelta) reset() {
	clear(d.at)
	d.recs = d.recs[:0]
}

// runCross drives CrossExec.Run the way node.runWave does. It
// returns the outcomes and the delta in fold order.
func runCross(reg *contract.Registry, st *storage.Store, txs []*types.Transaction, workers int) ([]CrossOutcome, []types.RWRecord) {
	d := newCrossDelta(st)
	outs := new(CrossExec).Run(reg, d.base, txs, workers, d.fold)
	return outs, d.recs
}

func TestCrossOrderedMatchesSerial(t *testing.T) {
	reg, st := setup(t, 12)
	g := workload.NewGenerator(workload.Config{
		Accounts: 12, Shards: 4, Theta: 0.5, ReadRatio: 0, CrossPct: 1.0, Seed: 6,
	})
	var txs []*types.Transaction
	for len(txs) < 60 {
		tx := g.Next()
		if tx.Kind == types.CrossShard {
			txs = append(txs, tx)
		}
	}
	outs, _ := runCross(reg, st, txs, 8)

	// Serial oracle.
	serial := storage.New()
	for k, v := range st.Snapshot() {
		serial.Set(k, v)
	}
	for _, tx := range txs {
		o := storagetest.NewOverlay(serial)
		if err := execTx(reg, o, tx); err != nil {
			t.Fatal(err)
		}
		o.Flush()
	}
	// Apply parallel outcomes in order.
	par := storage.New()
	for k, v := range st.Snapshot() {
		par.Set(k, v)
	}
	for _, out := range outs {
		if out.Err != nil {
			t.Fatalf("unexpected failure: %v", out.Err)
		}
		par.Apply(out.Writes)
	}
	for _, k := range serial.Keys() {
		a, _ := par.Get(k)
		s, _ := serial.Get(k)
		if !a.Equal(s) {
			t.Fatalf("cross execution diverged at %s: %q vs %q", k, a, s)
		}
	}
}

func TestCrossOrderedConflictingSameShard(t *testing.T) {
	// Same-shard cross transactions must serialize in order.
	reg, st := setup(t, 2)
	a, b := workload.AccountName(0), workload.AccountName(1)
	mk := func(nonce uint64, amt int64) *types.Transaction {
		return &types.Transaction{
			Client: 1, Nonce: nonce, Kind: types.CrossShard,
			Shards:   []types.ShardID{0, 1},
			Contract: workload.ContractSendPayment,
			Args:     [][]byte{[]byte(a), []byte(b), contract.EncodeInt64(amt)},
		}
	}
	txs := []*types.Transaction{mk(1, 10), mk(2, 20), mk(3, 30)}
	outs, _ := runCross(reg, st, txs, 4)
	final := storage.New()
	for k, v := range st.Snapshot() {
		final.Set(k, v)
	}
	for _, o := range outs {
		final.Apply(o.Writes)
	}
	v, _ := final.Get(workload.CheckingKey(a))
	got, _ := contract.DecodeInt64(v)
	if got != 1000-60 {
		t.Fatalf("serial semantics violated: src=%d want 940", got)
	}
}

func TestCrossOrderedFailuresAreIsolated(t *testing.T) {
	reg, st := setup(t, 2)
	txs := []*types.Transaction{
		{Client: 1, Nonce: 1, Kind: types.CrossShard, Shards: []types.ShardID{0, 1},
			Contract: "nonexistent"},
		{Client: 1, Nonce: 2, Kind: types.CrossShard, Shards: []types.ShardID{0, 1},
			Contract: workload.ContractDepositChecking,
			Args:     [][]byte{[]byte(workload.AccountName(0)), contract.EncodeInt64(5)}},
	}
	outs, _ := runCross(reg, st, txs, 2)
	if outs[0].Err == nil {
		t.Fatal("bad contract should fail")
	}
	if outs[1].Err != nil || len(outs[1].Writes) == 0 {
		t.Fatal("good transaction affected by bad one")
	}
}

func TestCrossOrderedEmpty(t *testing.T) {
	reg, st := setup(t, 1)
	if outs, _ := runCross(reg, st, nil, 4); len(outs) != 0 {
		t.Fatal("empty input produced outcomes")
	}
}
