// Forged-preplay-results Byzantine scenario (ROADMAP "invalid preplay
// results"): a shard proposer that follows the DAG protocol perfectly
// — valid blocks, real certificates, prompt votes — but ships preplay
// results whose declared read/write sets do not match re-execution:
// it claims its deposits installed a billion-unit balance. Preplay
// results are the one place a proposer asserts state transitions
// unilaterally; §4's parallel validation is the defense. Honest
// replicas must certify the block (availability voting is not
// validity), then discard it wholesale at commit when validation
// re-executes the declared schedule — the forged write must never
// reach any store.
package chaos

import (
	"sync/atomic"
	"testing"
	"time"

	"thunderbolt/internal/contract"
	"thunderbolt/internal/node"
	"thunderbolt/internal/types"
	"thunderbolt/internal/workload"
)

// forgedBalance is the balance the forger claims its deposits
// install. Conservation would shatter if a single replica applied it.
const forgedBalance = int64(1_000_000_000)

// resultForger scripts one committee slot at the wire level: a
// protocol-conformant proposer (it even votes for peers, unlike the
// withholder) whose every normal block carries one real transaction
// with a forged TxResult.
type resultForger struct {
	*wireDriver
	nonce  uint64        // under wireDriver.mu (build runs there)
	forged atomic.Uint64 // forged blocks proposed
}

func newResultForger(t *testing.T, h *Harness, id types.ReplicaID) *resultForger {
	f := &resultForger{wireDriver: newWireDriver(t, h, id)}
	f.onPeerBlock = f.vote
	f.build = f.forge
	return f
}

// forge builds one block for the slot carrying a real deposit whose
// TxResult lies: the declared write set installs forgedBalance
// instead of what re-execution produces.
func (f *resultForger) forge(r types.Round, parents []types.Digest) []proposal {
	shard := node.MyShard(f.self, 0, f.n)
	b := &types.Block{
		Epoch: 0, Round: r, Proposer: f.self,
		Shard: shard, Kind: types.NormalBlock, Parents: parents,
		ProposedUnixNano: time.Now().UnixNano(),
	}
	// A fresh (client, nonce) each time so dedup never hides the
	// forgery: every block is a new commit attempt.
	f.nonce++
	tx := forgedShardTx(f.n, shard, f.nonce)
	if tx != nil {
		key := workload.CheckingKey(string(tx.Args[0]))
		res := types.TxResult{
			TxID:        tx.ID(),
			ScheduleIdx: 0,
			ReadSet:     []types.RWRecord{{Key: key, Value: contract.EncodeInt64(10_000)}},
			WriteSet:    []types.RWRecord{{Key: key, Value: contract.EncodeInt64(forgedBalance)}},
		}
		b.SingleTxs = []*types.Transaction{tx}
		b.Results = []types.TxResult{res}
		f.forged.Add(1)
	}
	return []proposal{{block: b}}
}

// forgedShardTx builds a deposit on an account owned by the given
// shard (nil if the first few accounts miss the shard — callers
// tolerate an occasional empty block).
func forgedShardTx(n int, shard types.ShardID, nonce uint64) *types.Transaction {
	smap := types.NewShardMap(n)
	for acct := 0; acct < 64; acct++ {
		name := workload.AccountName(acct)
		if smap.ShardOf(workload.CheckingKey(name)) != shard {
			continue
		}
		return &types.Transaction{
			Client: 7777, Nonce: nonce, Kind: types.SingleShard,
			Shards:   []types.ShardID{shard},
			Contract: workload.ContractDepositChecking,
			Args:     [][]byte{[]byte(name), contract.EncodeInt64(1)},
		}
	}
	return nil
}

// TestScenarioByzantineForgedPreplayResults runs a 4-committee where
// replica 3's every block carries a forged preplay result. Safety:
// validation must discard the blocks on every honest replica —
// ValidationFailures count them, no store ever shows the forged
// balance, conservation and commit-sequence invariants stay green.
// Liveness: honest traffic keeps committing around the forger.
func TestScenarioByzantineForgedPreplayResults(t *testing.T) {
	h := newHarness(t, Options{N: 4, Seed: 131, Headless: []int{3}})
	byz := newResultForger(t, h, 3)
	byz.start()

	honest := []int{0, 1, 2}
	rep := h.RunLoadAsync(LoadOptions{
		Duration: load(2 * time.Second), Clients: 8,
		Workload: workloadCfg(0.3, 0.3),
		Timeout:  5 * time.Second, // byzantine-shard singles starve by its choice
	}).Wait()
	if rep.Committed == 0 {
		t.Fatal("honest majority committed nothing alongside the forger")
	}
	check(t, h.WaitQuiesced(budget, honest...))
	check(t, h.WaitConverged(budget, honest...))
	check(t, h.CheckSafety(honest...))
	check(t, h.CheckConservation(honest...))

	if byz.forged.Load() == 0 {
		t.Fatal("forger proposed no forged blocks — nothing was tested")
	}
	if byz.ownCerts.Load() == 0 {
		t.Fatal("no forged block certified: availability voting should not validate results")
	}
	// Every honest replica must have rejected forged blocks, and the
	// forged balance must appear nowhere.
	for _, i := range honest {
		nd := h.Cluster().Node(i)
		if nd.Stats().ValidationFailures == 0 {
			t.Errorf("replica %d reports no validation failures despite certified forgeries", i)
		}
		st := nd.Store()
		for acct := 0; acct < h.opt.Accounts; acct++ {
			key := workload.CheckingKey(workload.AccountName(acct))
			v, ok := st.Get(key)
			if !ok {
				continue
			}
			if bal, err := contract.DecodeInt64(v); err == nil && bal >= forgedBalance {
				t.Fatalf("replica %d applied a forged write: %s=%d", i, key, bal)
			}
		}
	}
	// The forged transactions themselves must never have committed.
	for _, i := range honest {
		_, entries := h.Cluster().Node(i).CommitLog()
		for _, e := range entries {
			if e.Proposer == 3 && !e.Cross {
				t.Fatalf("replica %d committed a single-shard block from the forger: %v", i, e)
			}
		}
	}
}
