// Package validate implements the two post-consensus execution paths
// every replica runs on committed blocks:
//
//   - ValidateBatch (paper §4): checks a shard proposer's preplay
//     results. A validator holds what the CE had to discover — every
//     declared read comes with its value — so it needs no schedule of
//     its own. The check is two independent halves:
//
//     (A) Consistency, sequential, executes nothing: walk the results
//     in schedule order keeping the last declared write per key; every
//     declared read must equal that write, or the base value when no
//     earlier transaction of the batch declares one. The same walk
//     yields the state delta.
//
//     (B) Replay, order-free, touches no state: re-execute every
//     transaction against its own declared read set, and require that
//     it reads exactly the declared keys and writes exactly the
//     declared records. The whole batch is one work-pull loop; a hot
//     key serializes nothing, because no transaction reads another's
//     output — it reads the block.
//
//   - CrossExec.Run (paper §5.2): deterministically executes
//     consensus-ordered cross-shard transactions, extracting
//     parallelism from the shard metadata (SIDs): transactions with
//     disjoint shard sets run concurrently, in QueCC-style waves.
//
// Both paths are pure functions of (base state, inputs) so every
// honest replica materializes identical state.
//
// A and B together accept exactly the batches that serial replay in
// schedule order accepts (each transaction run on the state its
// predecessors left, its observed reads and writes compared with the
// declaration). Serial replay serves a read of k from the last write
// before the transaction's schedule position, else from base. If A
// passes, every declared value is that value, so B — which serves
// declared keys only, with the declared values — runs each transaction
// on the inputs serial replay gives it until it touches an undeclared
// key; both reject that, as both reject a declared read never made and
// a write set that differs, and by induction the writes serial replay
// accumulates are the declared ones A folds. If A fails at some
// declared read, serial replay either makes that read and observes
// another value, or never makes it; it rejects too.
//
// Replay stays although reads are checked without it: the proposer is
// untrusted, and a correct read set says nothing about the writes
// declared under it (preplay_test.go forges exactly that).
package validate

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"thunderbolt/internal/contract"
	"thunderbolt/internal/types"
	"thunderbolt/internal/vm"
)

// BaseReader supplies committed values (nil = absent). ValidateBatch
// and ValidateBlock call it from the calling goroutine only, so it may
// read unsynchronized state the caller owns. CrossExec.Run calls
// it from its workers, concurrently with itself but never with fold.
type BaseReader func(k types.Key) types.Value

// ErrInvalidBlock reports that a block's preplay results failed
// validation; the block must be discarded (paper §4).
var ErrInvalidBlock = errors.New("validate: block failed validation")

// Result is a successfully validated batch.
type Result struct {
	// Writes is the state delta to apply: the last declared write per
	// key, in schedule order of first write.
	Writes []types.RWRecord
}

// ValidateBatch verifies that results is what executing txs serially,
// in the given order, on base produces: the consistency pass against
// base, then the replay of every transaction across workers (workers
// <= 0 means one worker).
func ValidateBatch(reg *contract.Registry, base BaseReader, txs []*types.Transaction,
	results []types.TxResult, workers int) (*Result, error) {
	d, err := consistent(base, txs, results)
	if err != nil {
		return nil, err
	}
	defer d.release()
	if err := replay(reg, txs, results, workers); err != nil {
		return nil, err
	}
	return &Result{Writes: append(make([]types.RWRecord, 0, len(d.recs)), d.recs...)}, nil
}

// ValidateBlock is ValidateBatch over b's single-shard batch, for a
// caller that keeps the state delta itself: when b validates, fold
// receives the delta — the last declared write per key, in schedule
// order of first write — once, from the calling goroutine, and must
// copy what it keeps before it returns. A block that fails is never
// folded.
func ValidateBlock(reg *contract.Registry, base BaseReader, b *types.Block, workers int,
	fold func(writes []types.RWRecord)) error {
	d, err := consistent(base, b.SingleTxs, b.Results)
	if err != nil {
		return err
	}
	defer d.release()
	if err := replay(reg, b.SingleTxs, b.Results, workers); err != nil {
		return err
	}
	fold(d.recs)
	return nil
}

// delta is the consistency pass's working state: the batch's declared
// writes so far, one record per key in first-write order, each holding
// the last value declared.
type delta struct {
	idx  map[types.Key]int // key → position in recs
	recs []types.RWRecord
}

// deltaPool recycles deltas: a replica checks every committed block,
// and validation runs concurrently across replicas in one process.
var deltaPool = sync.Pool{New: func() any {
	return &delta{idx: make(map[types.Key]int, 64)}
}}

func (d *delta) release() {
	clear(d.idx)
	clear(d.recs)
	d.recs = d.recs[:0]
	deltaPool.Put(d)
}

// consistent is half A: the results must pair up with txs in schedule
// order, and every declared read must carry the value its schedule
// position holds. It returns the batch's state delta, which the caller
// releases.
func consistent(base BaseReader, txs []*types.Transaction, results []types.TxResult) (*delta, error) {
	if len(txs) != len(results) {
		return nil, fmt.Errorf("%w: %d transactions but %d results", ErrInvalidBlock, len(txs), len(results))
	}
	for i := range results {
		if int(results[i].ScheduleIdx) != i {
			return nil, fmt.Errorf("%w: schedule indices not dense at %d", ErrInvalidBlock, i)
		}
		if results[i].TxID != txs[i].ID() {
			return nil, fmt.Errorf("%w: result %d does not match its transaction", ErrInvalidBlock, i)
		}
	}
	d := deltaPool.Get().(*delta)
	for i := range results {
		r := &results[i]
		for j := range r.ReadSet {
			rd := &r.ReadSet[j]
			var held types.Value
			if at, ok := d.idx[rd.Key]; ok {
				held = d.recs[at].Value
			} else if base != nil {
				held = base(rd.Key)
			}
			if !held.Equal(rd.Value) {
				d.release()
				return nil, fmt.Errorf("%w: tx %d declares read %s=%q, its schedule position holds %q",
					ErrInvalidBlock, i, rd.Key, rd.Value, held)
			}
		}
		for _, w := range r.WriteSet {
			if at, ok := d.idx[w.Key]; ok {
				d.recs[at].Value = w.Value
				continue
			}
			d.idx[w.Key] = len(d.recs)
			d.recs = append(d.recs, w)
		}
	}
	return d, nil
}

// batchReplay is half B's per-batch state. work is built once per
// pooled value and closes over the value itself, so a batch pays no
// closure allocation for its fan-out.
type batchReplay struct {
	reg     *contract.Registry
	txs     []*types.Transaction
	results []types.TxResult
	// rejected is the first rejection recorded; once set, workers skip
	// what is left of the batch.
	rejected atomic.Pointer[error]
	work     func(i int)
}

var batchReplayPool = sync.Pool{New: func() any {
	b := &batchReplay{}
	b.work = func(i int) {
		if b.rejected.Load() != nil {
			return
		}
		if err := replayOne(b.reg, b.txs[i], &b.results[i], i); err != nil {
			rejection := err // escapes on this path only
			b.rejected.CompareAndSwap(nil, &rejection)
		}
	}
	return b
}}

// replay is half B: every transaction, re-executed against its own
// declared reads, must reproduce its declaration. It reads nothing but
// its arguments, so transactions run in any order, all at once.
func replay(reg *contract.Registry, txs []*types.Transaction, results []types.TxResult, workers int) error {
	b := batchReplayPool.Get().(*batchReplay)
	b.reg, b.txs, b.results = reg, txs, results
	each(workers, len(txs), b.work)
	var err error
	if rejected := b.rejected.Swap(nil); rejected != nil {
		err = *rejected
	}
	b.reg, b.txs, b.results = nil, nil, nil
	batchReplayPool.Put(b)
	return err
}

// replayState is the contract.State one transaction replays against:
// reads are served from its declared read set — a read of any other
// key fails the transaction — and writes are buffered.
//
// Neither direction clones: contracts are trusted deterministic code
// that never mutates a value buffer it was handed (the committed
// store's Get already returns its internal slices uncloned on the same
// assumption), and written values arrive in freshly built buffers.
type replayState struct {
	declared []types.RWRecord
	declIdx  map[types.Key]int // position's index (first position per key), kept when declared outgrows scanMax
	seen     []bool            // seen[i]: declared[i] was read; reused to pair up writes
	w        writeBuf
	// undeclared is the first key read outside the declared set.
	undeclared   types.Key
	readOutOfSet bool
}

// replayStatePool recycles replayStates; replayOne runs concurrently
// across each's workers, so the pool also keeps reuse contention-free.
var replayStatePool = sync.Pool{New: func() any { return new(replayState) }}

var errUndeclaredRead = errors.New("validate: read outside the declared read set")

func (s *replayState) begin(declared []types.RWRecord) {
	s.declared = declared
	s.seen = resized(s.seen, len(declared))
	if len(declared) > scanMax {
		if s.declIdx == nil {
			s.declIdx = make(map[types.Key]int, len(declared))
		}
		for i := len(declared) - 1; i >= 0; i-- {
			s.declIdx[declared[i].Key] = i
		}
	}
}

func (s *replayState) release() {
	clear(s.declIdx)
	s.declared = nil
	s.w.reset()
	s.undeclared, s.readOutOfSet = "", false
	replayStatePool.Put(s)
}

// resized returns b with length n and every element false.
func resized(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	clear(b)
	return b
}

func (s *replayState) Read(k types.Key) (types.Value, error) {
	if i := s.w.find(k); i >= 0 {
		return s.w.recs[i].Value, nil
	}
	if i := position(s.declared, s.declIdx, k); i >= 0 {
		s.seen[i] = true
		return s.declared[i].Value, nil
	}
	if !s.readOutOfSet {
		s.undeclared, s.readOutOfSet = k, true
	}
	return nil, errUndeclaredRead
}

func (s *replayState) Write(k types.Key, v types.Value) error {
	s.w.put(k, v)
	return nil
}

// replayOne re-executes one transaction against its declared reads and
// compares what it did with what the block says it did.
func replayOne(reg *contract.Registry, tx *types.Transaction, res *types.TxResult, idx int) error {
	st := replayStatePool.Get().(*replayState)
	defer st.release()
	st.begin(res.ReadSet)
	err := vm.ExecuteTx(reg, st, tx)
	// Checked ahead of err: a contract may swallow the accessor's error.
	if st.readOutOfSet {
		return fmt.Errorf("%w: tx %d read %s, which it does not declare", ErrInvalidBlock, idx, st.undeclared)
	}
	if err != nil {
		return fmt.Errorf("%w: tx %d re-execution failed: %v", ErrInvalidBlock, idx, err)
	}
	// Observed reads must be the declared reads: none outside the set
	// (above), none declared and not made — twice-declared keys included.
	for i, seen := range st.seen {
		if !seen {
			return fmt.Errorf("%w: tx %d declared read of %s never happened", ErrInvalidBlock, idx, res.ReadSet[i].Key)
		}
	}
	// Observed writes must pair up one to one with the declared writes.
	wrote := st.w.recs
	if len(wrote) != len(res.WriteSet) {
		return fmt.Errorf("%w: tx %d wrote %d keys, declared %d", ErrInvalidBlock, idx, len(wrote), len(res.WriteSet))
	}
	paired := resized(st.seen, len(wrote))
	st.seen = paired
	for _, w := range res.WriteSet {
		j := st.w.find(w.Key)
		if j < 0 || paired[j] {
			return fmt.Errorf("%w: tx %d declared write of %s never happened", ErrInvalidBlock, idx, w.Key)
		}
		paired[j] = true
		if got := wrote[j].Value; !got.Equal(w.Value) {
			return fmt.Errorf("%w: tx %d wrote %s=%q, declared %q", ErrInvalidBlock, idx, w.Key, got, w.Value)
		}
	}
	return nil
}
