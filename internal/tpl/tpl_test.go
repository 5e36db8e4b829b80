package tpl

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

func TestTPLSerializableUnderContention(t *testing.T) {
	const accounts = 5
	reg, st := setup(t, accounts)
	initial := st.Snapshot()
	p := New(Config{Executors: 8, Registry: reg})
	g := workload.NewGenerator(workload.Config{
		Accounts: accounts, Shards: 1, Theta: 0.9, ReadRatio: 0.2, Seed: 3,
	})
	res := p.ExecuteBatch(st, g.Batch(300))
	if len(res.Schedule)+len(res.Failed) != 300 || len(res.Failed) != 0 {
		t.Fatalf("scheduled=%d failed=%d", len(res.Schedule), len(res.Failed))
	}
	checkSerializable(t, reg, initial, res, st)
	t.Logf("2PL-NoWait re-executions: %d", res.Reexecutions)
}

func TestNoWaitAbortsOnConflict(t *testing.T) {
	reg, st := setup(t, 1)
	p := New(Config{Executors: 1, Registry: reg})
	k := workload.CheckingKey(workload.AccountName(0))

	c1 := p.newCtx(st)
	c2 := p.newCtx(st)
	if err := c1.Write(k, contract.EncodeInt64(1)); err != nil {
		t.Fatal(err)
	}
	// X lock held by c1: reader and writer must abort immediately.
	if _, err := c2.Read(k); !errors.Is(err, contract.ErrAborted) {
		t.Fatalf("reader should no-wait abort: %v", err)
	}
	if err := c2.Write(k, contract.EncodeInt64(2)); !errors.Is(err, contract.ErrAborted) {
		t.Fatalf("writer should no-wait abort: %v", err)
	}
	c1.commit()
	// After commit, the key is free again.
	if _, err := c2.Read(k); err != nil {
		t.Fatalf("post-commit read failed: %v", err)
	}
	c2.abort()
	_ = reg
}

func TestSharedLocksCoexist(t *testing.T) {
	reg, st := setup(t, 1)
	_ = reg
	p := New(Config{Executors: 1, Registry: contract.NewRegistry()})
	k := workload.CheckingKey(workload.AccountName(0))
	c1 := p.newCtx(st)
	c2 := p.newCtx(st)
	if _, err := c1.Read(k); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Read(k); err != nil {
		t.Fatalf("S locks must coexist: %v", err)
	}
	// Writer conflicts with both readers.
	c3 := p.newCtx(st)
	if err := c3.Write(k, types.Value("x")); !errors.Is(err, contract.ErrAborted) {
		t.Fatal("X over S should conflict")
	}
	c1.abort()
	c2.abort()
	if err := c3.Write(k, types.Value("x")); err != nil {
		t.Fatalf("write after release failed: %v", err)
	}
	c3.abort()
}

func TestLockUpgradeSoleReader(t *testing.T) {
	p := New(Config{Executors: 1, Registry: contract.NewRegistry()})
	st := storage.New()
	c1 := p.newCtx(st)
	if _, err := c1.Read("k"); err != nil {
		t.Fatal(err)
	}
	// Sole reader upgrades.
	if err := c1.Write("k", types.Value("v")); err != nil {
		t.Fatalf("sole-reader upgrade failed: %v", err)
	}
	c1.abort()

	// Two readers: upgrade must fail.
	c2 := p.newCtx(st)
	c3 := p.newCtx(st)
	c2.Read("k")
	c3.Read("k")
	if err := c2.Write("k", types.Value("v")); !errors.Is(err, contract.ErrAborted) {
		t.Fatal("upgrade with two readers should conflict")
	}
	c2.abort()
	c3.abort()
}

func TestAbortReleasesEverything(t *testing.T) {
	p := New(Config{Executors: 1, Registry: contract.NewRegistry()})
	st := storage.New()
	c1 := p.newCtx(st)
	c1.Write("a", types.Value("1"))
	c1.Read("b")
	c1.abort()
	if len(p.locks) != 0 {
		t.Fatalf("locks leaked: %v", p.locks)
	}
	// Aborted writes must not reach storage.
	if _, ok := st.Get("a"); ok {
		t.Fatal("aborted write leaked to store")
	}
}

func TestTPLBatchDrivesContention(t *testing.T) {
	reg, st := setup(t, 2)
	p := New(Config{Executors: 8, Registry: reg})
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
	initial := st.Snapshot()
	res := p.ExecuteBatch(st, txs)
	if len(res.Schedule) != 200 {
		t.Fatalf("scheduled %d/200 (failed %d)", len(res.Schedule), len(res.Failed))
	}
	// Conflicts are timing-dependent (locks are held for microseconds),
	// so only report the count; correctness is what we assert.
	t.Logf("2PL re-executions on two-account hotspot: %d", res.Reexecutions)
	checkSerializable(t, reg, initial, res, st)
}
