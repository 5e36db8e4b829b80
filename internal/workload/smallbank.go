// Package workload implements the SmallBank benchmark the paper
// evaluates with (§11.2): six transaction types over per-account
// checking and savings balances, a Zipfian account sampler with skew
// parameter θ, a read ratio Pr selecting GetBalance vs SendPayment,
// and a cross-shard mixing percentage P.
package workload

import (
	"fmt"
	"sync"

	"thunderbolt/internal/contract"
	"thunderbolt/internal/storage"
	"thunderbolt/internal/types"
)

// Contract names registered by RegisterSmallBank.
const (
	ContractGetBalance      = "smallbank.get_balance"
	ContractSendPayment     = "smallbank.send_payment"
	ContractDepositChecking = "smallbank.deposit_checking"
	ContractTransactSavings = "smallbank.transact_savings"
	ContractWriteCheck      = "smallbank.write_check"
	ContractAmalgamate      = "smallbank.amalgamate"
)

// CheckingKey returns the storage key of an account's checking balance.
func CheckingKey(account string) types.Key { return types.Key("c:" + account) }

// SavingsKey returns the storage key of an account's savings balance.
func SavingsKey(account string) types.Key { return types.Key("s:" + account) }

// AccountName formats the i-th benchmark account.
func AccountName(i int) string { return fmt.Sprintf("acct%06d", i) }

// checkingKeyB / savingsKeyB resolve the balance keys straight from a
// raw contract argument via the interning table below; the contracts
// resolve each key exactly once per use.
func checkingKeyB(acct []byte) types.Key { ck, _ := acctKeys(acct); return ck }
func savingsKeyB(acct []byte) types.Key  { _, sk := acctKeys(acct); return sk }

// acctKeys interns both balance keys per account name: contracts
// execute once per transaction per replica (preplay plus validation),
// and the two key concatenations were among the largest remaining
// per-transaction allocations. The table is bounded by the account
// pool and read-mostly after warmup.
func acctKeys(acct []byte) (types.Key, types.Key) {
	keyTabMu.RLock()
	ks, ok := keyTab[string(acct)] // compiles to a no-alloc map probe
	keyTabMu.RUnlock()
	if !ok {
		ks = [2]types.Key{types.Key("c:" + string(acct)), types.Key("s:" + string(acct))}
		keyTabMu.Lock()
		keyTab[string(acct)] = ks
		keyTabMu.Unlock()
	}
	return ks[0], ks[1]
}

var (
	keyTabMu sync.RWMutex
	keyTab   = map[string][2]types.Key{}
)

func arg(args [][]byte, i int) ([]byte, error) {
	if i >= len(args) {
		return nil, contract.Failf("smallbank: missing argument %d", i)
	}
	return args[i], nil
}

func intArg(args [][]byte, i int) (int64, error) {
	b, err := arg(args, i)
	if err != nil {
		return 0, err
	}
	v, err := contract.DecodeInt64(b)
	if err != nil {
		return 0, contract.Failf("smallbank: argument %d is not an amount: %v", i, err)
	}
	return v, nil
}

// getBalance reads both balances of one account (the read-only query).
func getBalance(st contract.State, args [][]byte) error {
	acct, err := arg(args, 0)
	if err != nil {
		return err
	}
	if _, err := contract.ReadInt64(st, checkingKeyB(acct)); err != nil {
		return err
	}
	_, err = contract.ReadInt64(st, savingsKeyB(acct))
	return err
}

// sendPayment moves amount from one checking account to another. As in
// the paper's description ("balances are updated by reading the
// current balance and then writing the new values back") the transfer
// always applies; overdrafts go negative rather than failing, keeping
// the workload write-heavy under contention.
func sendPayment(st contract.State, args [][]byte) error {
	src, err := arg(args, 0)
	if err != nil {
		return err
	}
	dst, err := arg(args, 1)
	if err != nil {
		return err
	}
	amount, err := intArg(args, 2)
	if err != nil {
		return err
	}
	srcKey, dstKey := checkingKeyB(src), checkingKeyB(dst)
	sb, err := contract.ReadInt64(st, srcKey)
	if err != nil {
		return err
	}
	if err := contract.WriteInt64(st, srcKey, sb-amount); err != nil {
		return err
	}
	db, err := contract.ReadInt64(st, dstKey)
	if err != nil {
		return err
	}
	return contract.WriteInt64(st, dstKey, db+amount)
}

// depositChecking adds amount to a checking balance.
func depositChecking(st contract.State, args [][]byte) error {
	acct, err := arg(args, 0)
	if err != nil {
		return err
	}
	amount, err := intArg(args, 1)
	if err != nil {
		return err
	}
	k := checkingKeyB(acct)
	b, err := contract.ReadInt64(st, k)
	if err != nil {
		return err
	}
	return contract.WriteInt64(st, k, b+amount)
}

// transactSavings adds amount (possibly negative) to a savings balance.
func transactSavings(st contract.State, args [][]byte) error {
	acct, err := arg(args, 0)
	if err != nil {
		return err
	}
	amount, err := intArg(args, 1)
	if err != nil {
		return err
	}
	k := savingsKeyB(acct)
	b, err := contract.ReadInt64(st, k)
	if err != nil {
		return err
	}
	return contract.WriteInt64(st, k, b+amount)
}

// writeCheck cashes a check against the combined balance: if the total
// is insufficient, an extra penalty of 1 is deducted (classic
// SmallBank semantics).
func writeCheck(st contract.State, args [][]byte) error {
	acct, err := arg(args, 0)
	if err != nil {
		return err
	}
	amount, err := intArg(args, 1)
	if err != nil {
		return err
	}
	ck := checkingKeyB(acct)
	cb, err := contract.ReadInt64(st, ck)
	if err != nil {
		return err
	}
	sv, err := contract.ReadInt64(st, savingsKeyB(acct))
	if err != nil {
		return err
	}
	if cb+sv < amount {
		return contract.WriteInt64(st, ck, cb-amount-1)
	}
	return contract.WriteInt64(st, ck, cb-amount)
}

// amalgamate moves the full balance (savings + checking) of one
// account into another's checking, zeroing the source.
func amalgamate(st contract.State, args [][]byte) error {
	src, err := arg(args, 0)
	if err != nil {
		return err
	}
	dst, err := arg(args, 1)
	if err != nil {
		return err
	}
	srcSav, srcChk, dstChk := savingsKeyB(src), checkingKeyB(src), checkingKeyB(dst)
	sv, err := contract.ReadInt64(st, srcSav)
	if err != nil {
		return err
	}
	ck, err := contract.ReadInt64(st, srcChk)
	if err != nil {
		return err
	}
	if err := contract.WriteInt64(st, srcSav, 0); err != nil {
		return err
	}
	if err := contract.WriteInt64(st, srcChk, 0); err != nil {
		return err
	}
	db, err := contract.ReadInt64(st, dstChk)
	if err != nil {
		return err
	}
	return contract.WriteInt64(st, dstChk, db+sv+ck)
}

// RegisterSmallBank installs the six SmallBank contracts into reg.
func RegisterSmallBank(reg *contract.Registry) {
	reg.MustRegister(contract.Func{ContractName: ContractGetBalance, Fn: getBalance})
	reg.MustRegister(contract.Func{ContractName: ContractSendPayment, Fn: sendPayment})
	reg.MustRegister(contract.Func{ContractName: ContractDepositChecking, Fn: depositChecking})
	reg.MustRegister(contract.Func{ContractName: ContractTransactSavings, Fn: transactSavings})
	reg.MustRegister(contract.Func{ContractName: ContractWriteCheck, Fn: writeCheck})
	reg.MustRegister(contract.Func{ContractName: ContractAmalgamate, Fn: amalgamate})
}

// InitAccounts seeds n accounts with the given starting balances in
// both checking and savings, as one batch in ascending key order
// (every checking key sorts before every savings key): the store's
// ordered index then finds the batch already sorted instead of
// sorting 2n keys on its first walk.
func InitAccounts(store storage.Backend, n int, checking, savings int64) {
	recs := make([]types.RWRecord, 2*n)
	for i := 0; i < n; i++ {
		name := AccountName(i)
		recs[i] = types.RWRecord{Key: CheckingKey(name), Value: contract.EncodeInt64(checking)}
		recs[n+i] = types.RWRecord{Key: SavingsKey(name), Value: contract.EncodeInt64(savings)}
	}
	store.Apply(recs)
}

// TotalBalance sums every checking and savings balance in the store —
// the conservation invariant tests assert after running transfers.
func TotalBalance(store storage.Backend, n int) (int64, error) {
	var total int64
	for i := 0; i < n; i++ {
		name := AccountName(i)
		for _, k := range []types.Key{CheckingKey(name), SavingsKey(name)} {
			v, _ := store.Get(k)
			x, err := contract.DecodeInt64(v)
			if err != nil {
				return 0, err
			}
			total += x
		}
	}
	return total, nil
}
