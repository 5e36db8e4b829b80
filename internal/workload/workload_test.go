package workload

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"thunderbolt/internal/contract"
	"thunderbolt/internal/storage"
	"thunderbolt/internal/storage/storagetest"
	"thunderbolt/internal/types"
	"thunderbolt/internal/vm"
)

func newBank(t *testing.T, n int, checking, savings int64) (*contract.Registry, *storage.Store) {
	t.Helper()
	reg := contract.NewRegistry()
	RegisterSmallBank(reg)
	st := storage.New()
	InitAccounts(st, n, checking, savings)
	return reg, st
}

func exec(t *testing.T, reg *contract.Registry, st *storage.Store, name string, args ...[]byte) error {
	t.Helper()
	o := storagetest.NewOverlay(st)
	c, ok := reg.Lookup(name)
	if !ok {
		t.Fatalf("contract %q not registered", name)
	}
	if err := c.Execute(o, args); err != nil {
		return err
	}
	o.Flush()
	return nil
}

func balance(t *testing.T, st *storage.Store, k types.Key) int64 {
	t.Helper()
	v, _ := st.Get(k)
	b, err := contract.DecodeInt64(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSendPayment(t *testing.T) {
	reg, st := newBank(t, 2, 100, 50)
	a, b := AccountName(0), AccountName(1)
	if err := exec(t, reg, st, ContractSendPayment, []byte(a), []byte(b), contract.EncodeInt64(30)); err != nil {
		t.Fatal(err)
	}
	if got := balance(t, st, CheckingKey(a)); got != 70 {
		t.Fatalf("src=%d want 70", got)
	}
	if got := balance(t, st, CheckingKey(b)); got != 130 {
		t.Fatalf("dst=%d want 130", got)
	}
	// Overdraft goes negative rather than failing.
	if err := exec(t, reg, st, ContractSendPayment, []byte(a), []byte(b), contract.EncodeInt64(100)); err != nil {
		t.Fatal(err)
	}
	if got := balance(t, st, CheckingKey(a)); got != -30 {
		t.Fatalf("src=%d want -30", got)
	}
}

func TestDepositAndSavings(t *testing.T) {
	reg, st := newBank(t, 1, 10, 20)
	a := AccountName(0)
	if err := exec(t, reg, st, ContractDepositChecking, []byte(a), contract.EncodeInt64(5)); err != nil {
		t.Fatal(err)
	}
	if err := exec(t, reg, st, ContractTransactSavings, []byte(a), contract.EncodeInt64(-7)); err != nil {
		t.Fatal(err)
	}
	if got := balance(t, st, CheckingKey(a)); got != 15 {
		t.Fatalf("checking=%d want 15", got)
	}
	if got := balance(t, st, SavingsKey(a)); got != 13 {
		t.Fatalf("savings=%d want 13", got)
	}
}

func TestWriteCheckPenalty(t *testing.T) {
	reg, st := newBank(t, 1, 10, 5)
	a := AccountName(0)
	// Sufficient funds: plain deduction.
	if err := exec(t, reg, st, ContractWriteCheck, []byte(a), contract.EncodeInt64(12)); err != nil {
		t.Fatal(err)
	}
	if got := balance(t, st, CheckingKey(a)); got != -2 {
		t.Fatalf("checking=%d want -2", got)
	}
	// Insufficient combined funds: penalty of 1.
	if err := exec(t, reg, st, ContractWriteCheck, []byte(a), contract.EncodeInt64(10)); err != nil {
		t.Fatal(err)
	}
	if got := balance(t, st, CheckingKey(a)); got != -13 {
		t.Fatalf("checking=%d want -13 (with penalty)", got)
	}
}

func TestAmalgamate(t *testing.T) {
	reg, st := newBank(t, 2, 100, 40)
	a, b := AccountName(0), AccountName(1)
	if err := exec(t, reg, st, ContractAmalgamate, []byte(a), []byte(b)); err != nil {
		t.Fatal(err)
	}
	if got := balance(t, st, CheckingKey(a)); got != 0 {
		t.Fatalf("src checking=%d want 0", got)
	}
	if got := balance(t, st, SavingsKey(a)); got != 0 {
		t.Fatalf("src savings=%d want 0", got)
	}
	if got := balance(t, st, CheckingKey(b)); got != 240 {
		t.Fatalf("dst checking=%d want 240", got)
	}
}

func TestGetBalanceReadsOnly(t *testing.T) {
	reg, st := newBank(t, 1, 10, 20)
	o := storagetest.NewOverlay(st)
	c, _ := reg.Lookup(ContractGetBalance)
	if err := c.Execute(o, [][]byte{[]byte(AccountName(0))}); err != nil {
		t.Fatal(err)
	}
	if len(o.Writes()) != 0 {
		t.Fatalf("GetBalance wrote: %+v", o.Writes())
	}
}

func TestContractArgErrors(t *testing.T) {
	reg, st := newBank(t, 1, 0, 0)
	if err := exec(t, reg, st, ContractSendPayment, []byte("a")); !errors.Is(err, contract.ErrContractFailure) {
		t.Fatalf("missing args must fail terminally, got %v", err)
	}
	if err := exec(t, reg, st, ContractDepositChecking, []byte("a"), []byte("xx")); !errors.Is(err, contract.ErrContractFailure) {
		t.Fatalf("malformed amount must fail terminally, got %v", err)
	}
}

func TestBalanceConservation(t *testing.T) {
	const n = 20
	reg, st := newBank(t, n, 100, 100)
	want, err := TotalBalance(st, n)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(Config{Accounts: n, Shards: 4, Theta: 0.85, ReadRatio: 0, Seed: 7})
	applied := 0
	for applied < 500 {
		tx := g.Next()
		// Only transfers conserve total balance; the generator also
		// emits deposits when a shard has no transfer partner.
		if tx.Contract != ContractSendPayment && tx.Contract != ContractAmalgamate {
			continue
		}
		o := storagetest.NewOverlay(st)
		if err := vm.ExecuteTx(reg, o, tx); err != nil {
			t.Fatal(err)
		}
		o.Flush()
		applied++
	}
	got, err := TotalBalance(st, n)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("money not conserved: %d -> %d", want, got)
	}
}

func TestVMProgramsMatchNativeContracts(t *testing.T) {
	regN, stN := newBank(t, 2, 100, 50)
	_, stV := newBank(t, 2, 100, 50)
	a, b := AccountName(0), AccountName(1)
	args := [][]byte{[]byte(a), []byte(b), contract.EncodeInt64(37)}

	if err := exec(t, regN, stN, ContractSendPayment, args...); err != nil {
		t.Fatal(err)
	}
	o := storagetest.NewOverlay(stV)
	if err := vm.Run(SendPaymentProgram(), o, args, vm.Limits{}); err != nil {
		t.Fatal(err)
	}
	o.Flush()
	for _, k := range []types.Key{CheckingKey(a), CheckingKey(b)} {
		if nv, vv := balance(t, stN, k), balance(t, stV, k); nv != vv {
			t.Fatalf("%s: native=%d vm=%d", k, nv, vv)
		}
	}
	// GetBalance program reads cleanly.
	o2 := storagetest.NewOverlay(stV)
	if err := vm.Run(GetBalanceProgram(), o2, [][]byte{[]byte(a)}, vm.Limits{}); err != nil {
		t.Fatal(err)
	}
	if len(o2.Writes()) != 0 {
		t.Fatal("GetBalance program wrote state")
	}
}

func TestExecuteTxDispatch(t *testing.T) {
	reg, st := newBank(t, 2, 100, 0)
	// Named contract path.
	o := storagetest.NewOverlay(st)
	tx := &types.Transaction{Contract: ContractDepositChecking,
		Args: [][]byte{[]byte(AccountName(0)), contract.EncodeInt64(1)}}
	if err := vm.ExecuteTx(reg, o, tx); err != nil {
		t.Fatal(err)
	}
	// Bytecode path.
	code, _ := SendPaymentProgram().MarshalBinary()
	tx2 := &types.Transaction{Code: code,
		Args: [][]byte{[]byte(AccountName(0)), []byte(AccountName(1)), contract.EncodeInt64(1)}}
	if err := vm.ExecuteTx(reg, o, tx2); err != nil {
		t.Fatal(err)
	}
	// Unknown contract fails terminally.
	tx3 := &types.Transaction{Contract: "nope"}
	if err := vm.ExecuteTx(reg, o, tx3); !errors.Is(err, contract.ErrContractFailure) {
		t.Fatalf("unknown contract: %v", err)
	}
	// Corrupt bytecode fails terminally.
	tx4 := &types.Transaction{Code: []byte{1, 2, 3}}
	if err := vm.ExecuteTx(reg, o, tx4); !errors.Is(err, contract.ErrContractFailure) {
		t.Fatalf("corrupt code: %v", err)
	}
}

func TestZipfSkewOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := NewZipf(rng, 100, 0.85)
	counts := make([]int, 100)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	// Rank 0 must dominate rank 10 which must dominate rank 90.
	if !(counts[0] > counts[10] && counts[10] > counts[90]) {
		t.Fatalf("skew violated: c0=%d c10=%d c90=%d", counts[0], counts[10], counts[90])
	}
	// Under θ=0.85 the head is hot: rank 0 should carry >5% of draws.
	if float64(counts[0])/draws < 0.05 {
		t.Fatalf("head not hot enough: %f", float64(counts[0])/draws)
	}
}

func TestZipfUniformWhenThetaZero(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	z := NewZipf(rng, 10, 0)
	counts := make([]int, 10)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	for i, c := range counts {
		frac := float64(c) / draws
		if math.Abs(frac-0.1) > 0.02 {
			t.Fatalf("theta=0 not uniform: rank %d has %f", i, frac)
		}
	}
}

func TestZipfBoundsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 7, 1000} {
		for _, theta := range []float64{0, 0.5, 0.9, 0.99} {
			z := NewZipf(rng, n, theta)
			for i := 0; i < 2000; i++ {
				if v := z.Next(); v >= uint64(n) {
					t.Fatalf("n=%d theta=%f: sample %d out of range", n, theta, v)
				}
			}
		}
	}
}

func TestZipfRejectsBadParams(t *testing.T) {
	for _, f := range []func(){
		func() { NewZipf(rand.New(rand.NewSource(1)), 0, 0.5) },
		func() { NewZipf(rand.New(rand.NewSource(1)), 10, 1.0) },
		func() { NewZipf(rand.New(rand.NewSource(1)), 10, -0.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestGeneratorSingleShardConfinement(t *testing.T) {
	g := NewGenerator(Config{Accounts: 200, Shards: 8, Theta: 0.85, ReadRatio: 0.5, Seed: 1})
	smap := types.NewShardMap(8)
	for s := types.ShardID(0); s < 8; s++ {
		for _, tx := range g.BatchForShard(s, 50) {
			if tx.Kind != types.SingleShard || len(tx.Shards) != 1 || tx.Shards[0] != s {
				t.Fatalf("tx not confined to shard %d: %+v", s, tx)
			}
			// Every touched account must live in s.
			for _, a := range tx.Args {
				if len(a) == 8 {
					continue // amount
				}
				if smap.ShardOf(types.Key(a)) != s {
					t.Fatalf("account %q not in shard %d", a, s)
				}
			}
		}
	}
}

func TestGeneratorCrossShardFraction(t *testing.T) {
	g := NewGenerator(Config{Accounts: 500, Shards: 4, Theta: 0.5, ReadRatio: 0, CrossPct: 0.4, Seed: 5})
	cross := 0
	const n = 4000
	for _, tx := range g.Batch(n) {
		if tx.Kind == types.CrossShard {
			cross++
			if len(tx.Shards) != 2 || tx.Shards[0] == tx.Shards[1] {
				t.Fatalf("cross tx shards malformed: %v", tx.Shards)
			}
			if tx.Shards[0] > tx.Shards[1] {
				t.Fatalf("cross tx shards not sorted: %v", tx.Shards)
			}
		}
	}
	frac := float64(cross) / n
	if math.Abs(frac-0.4) > 0.05 {
		t.Fatalf("cross fraction %f want ~0.4", frac)
	}
}

func TestGeneratorReadRatio(t *testing.T) {
	g := NewGenerator(Config{Accounts: 500, Shards: 2, Theta: 0.85, ReadRatio: 0.7, Seed: 9})
	reads := 0
	const n = 4000
	for _, tx := range g.Batch(n) {
		if tx.Contract == ContractGetBalance {
			reads++
		}
	}
	frac := float64(reads) / n
	if math.Abs(frac-0.7) > 0.05 {
		t.Fatalf("read fraction %f want ~0.7", frac)
	}
}

func TestGeneratorDeterministicAndSplitIndependent(t *testing.T) {
	cfg := Config{Accounts: 100, Shards: 4, Theta: 0.85, ReadRatio: 0.5, Seed: 11}
	a := NewGenerator(cfg)
	b := NewGenerator(cfg)
	for i := 0; i < 100; i++ {
		if a.Next().ID() != b.Next().ID() {
			t.Fatal("same seed diverged")
		}
	}
	c := a.Split(1)
	d := a.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if c.Next().ID() == d.Next().ID() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("split streams correlated: %d/100 identical", same)
	}
}

func TestGeneratorMixProducesAllTypes(t *testing.T) {
	g := NewGenerator(Config{Accounts: 300, Shards: 2, Theta: 0.5, Mix: true, Seed: 3})
	seen := map[string]bool{}
	for _, tx := range g.Batch(3000) {
		seen[tx.Contract] = true
	}
	for _, c := range []string{ContractGetBalance, ContractSendPayment, ContractDepositChecking,
		ContractTransactSavings, ContractWriteCheck, ContractAmalgamate} {
		if !seen[c] {
			t.Fatalf("mix never produced %s", c)
		}
	}
}

func TestGeneratorNoncesUnique(t *testing.T) {
	g := NewGenerator(Config{Accounts: 50, Shards: 2, Seed: 1})
	seen := map[types.Digest]bool{}
	for _, tx := range g.Batch(1000) {
		id := tx.ID()
		if seen[id] {
			t.Fatal("duplicate transaction ID generated")
		}
		seen[id] = true
	}
}

func TestGeneratorConservingOnlyEmitsConservingOps(t *testing.T) {
	conserving := map[string]bool{
		ContractGetBalance:  true,
		ContractSendPayment: true,
		ContractAmalgamate:  true,
	}
	for _, mix := range []bool{false, true} {
		// Tiny pool forces the partner-less fallback paths too.
		g := NewGenerator(Config{Accounts: 8, Shards: 4, Theta: 0.9, ReadRatio: 0.2,
			CrossPct: 0.3, Mix: mix, Conserving: true, Seed: 11})
		for _, tx := range g.Batch(2000) {
			if !conserving[tx.Contract] {
				t.Fatalf("mix=%v: conserving stream emitted %s", mix, tx.Contract)
			}
		}
	}
}
