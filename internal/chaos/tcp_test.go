// TCP transport chaos: the harness's SimNetwork scenarios model
// network faults; this scenario models the fault SimNetwork cannot —
// a real process crash. A replica's node is stopped and its transport
// torn down mid-load, the committee reconfigures around the silence,
// and a brand-new replica instance (fresh genesis store, same identity
// and address) rejoins over real sockets. Its in-epoch catch-up
// requests reference a DAG the committee has discarded, so the rejoin
// must go through the cross-epoch snapshot protocol — a signed manifest
// and the chunk of its small ledger, over TCP framing rather than
// SimNetwork.
package chaos

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"thunderbolt/internal/contract"
	"thunderbolt/internal/crypto"
	"thunderbolt/internal/node"
	"thunderbolt/internal/storage"
	"thunderbolt/internal/transport"
	"thunderbolt/internal/types"
	"thunderbolt/internal/workload"
)

const tcpTestAccounts = 16

// tcpCommittee is a 4-replica committee over loopback TCP whose
// members can be killed and re-created individually. With a dataDir
// set, every replica runs on the durable WAL backend under
// <dataDir>/replica-<i>, and a restart recovers from disk.
type tcpCommittee struct {
	t        *testing.T
	n        int
	signers  []crypto.Signer
	verifier crypto.Verifier
	peers    map[types.ReplicaID]string
	trs      []*transport.TCPTransport
	nodes    []*node.Node
	dataDir  string
	k        int
	backends []*storage.Durable

	mu        sync.Mutex
	committed map[types.Digest]bool
}

func newTCPCommittee(t *testing.T, n int, seed int64) *tcpCommittee {
	return newTCPCommitteeOpt(t, n, seed, "", 8)
}

// newTCPCommitteeOpt builds a committee with a durable data directory
// (empty = in-memory) and a K silent-proposer reconfiguration knob
// (0 = never rotate — the WAL recovery scenario needs the epoch to
// stay put so the rejoin exercises in-epoch catch-up, not the
// snapshot jump).
func newTCPCommitteeOpt(t *testing.T, n int, seed int64, dataDir string, k int) *tcpCommittee {
	t.Helper()
	signers, verifier, err := crypto.InsecureScheme{}.Committee(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	c := &tcpCommittee{
		t: t, n: n, signers: signers, verifier: verifier,
		peers:     make(map[types.ReplicaID]string),
		trs:       make([]*transport.TCPTransport, n),
		nodes:     make([]*node.Node, n),
		dataDir:   dataDir,
		k:         k,
		backends:  make([]*storage.Durable, n),
		committed: make(map[types.Digest]bool),
	}
	// Bind ephemeral listeners first, then distribute the address book.
	for i := 0; i < n; i++ {
		c.trs[i] = c.listen(i, "127.0.0.1:0")
		c.peers[types.ReplicaID(i)] = c.trs[i].Addr()
	}
	for i := 0; i < n; i++ {
		c.trs[i].SetPeers(c.peers)
		c.nodes[i] = c.buildNode(i, c.trs[i])
	}
	t.Cleanup(func() {
		for i := 0; i < n; i++ {
			if c.nodes[i] != nil {
				c.nodes[i].Stop()
			}
			if c.trs[i] != nil {
				_ = c.trs[i].Close()
			}
			if c.backends[i] != nil {
				_ = c.backends[i].Close()
			}
		}
	})
	return c
}

func (c *tcpCommittee) listen(i int, addr string) *transport.TCPTransport {
	c.t.Helper()
	var (
		tr  *transport.TCPTransport
		err error
	)
	// Re-binding a just-released port can transiently fail; retry
	// briefly (only relevant for restarts on a fixed address).
	for attempt := 0; attempt < 50; attempt++ {
		tr, err = transport.NewTCPTransport(transport.TCPConfig{
			Self: types.ReplicaID(i), Listen: addr,
			DialTimeout: 250 * time.Millisecond, RetryInterval: 50 * time.Millisecond,
		})
		if err == nil {
			return tr
		}
		time.Sleep(20 * time.Millisecond)
	}
	c.t.Fatalf("replica %d could not listen on %s: %v", i, addr, err)
	return nil
}

func (c *tcpCommittee) buildNode(i int, tr *transport.TCPTransport) *node.Node {
	c.t.Helper()
	reg := contract.NewRegistry()
	workload.RegisterSmallBank(reg)
	var st storage.Backend
	if c.dataDir != "" {
		d, err := storage.OpenDurable(storage.DurableOptions{
			Dir: filepath.Join(c.dataDir, fmt.Sprintf("replica-%d", i)),
		})
		if err != nil {
			c.t.Fatal(err)
		}
		c.backends[i] = d
		st = d
	} else {
		st = storage.New()
	}
	if st.Seq() == 0 {
		workload.InitAccounts(st, tcpTestAccounts, 1000, 1000)
	}
	cfg := node.Config{
		ID: types.ReplicaID(i), N: c.n, Transport: tr,
		Signer: c.signers[i], Verifier: c.verifier,
		Registry: reg, Store: st,
		Executors: 2, Validators: 2, BatchSize: 16,
		K:            c.k,
		TickInterval: 5 * time.Millisecond, MinRoundInterval: 5 * time.Millisecond,
		CommitLogCap: 4096,
	}
	if i == 0 {
		cfg.OnCommitTx = func(tx *types.Transaction, _ time.Time) {
			c.mu.Lock()
			c.committed[tx.ID()] = true
			c.mu.Unlock()
		}
	}
	nd, err := node.New(cfg)
	if err != nil {
		c.t.Fatal(err)
	}
	return nd
}

// kill emulates a process crash: the node stops, its sockets close,
// and a durable backend is torn down abruptly (no graceful flush or
// checkpoint — on-disk state stays at the last group commit).
func (c *tcpCommittee) kill(i int) {
	c.nodes[i].Stop()
	_ = c.trs[i].Close()
	if c.backends[i] != nil {
		c.backends[i].CloseAbrupt()
		c.backends[i] = nil
	}
	c.nodes[i], c.trs[i] = nil, nil
}

// restart brings replica i back as a new process: fresh transport on
// the same address, fresh node. Without a data directory everything it
// knew died with the crash (genesis-only state); with one, buildNode
// reopens the replica's WAL and recovers from disk.
func (c *tcpCommittee) restart(i int) {
	tr := c.listen(i, c.peers[types.ReplicaID(i)])
	tr.SetPeers(c.peers)
	c.trs[i] = tr
	c.nodes[i] = c.buildNode(i, tr)
	c.nodes[i].Start()
}

// submitUntilCommitted drives one deposit to commitment, re-routing by
// the observer's epoch on every retry (the client behaviour across
// reconfigurations).
func (c *tcpCommittee) submitUntilCommitted(tx *types.Transaction, timeout time.Duration) {
	c.t.Helper()
	id := tx.ID()
	smap := types.NewShardMap(c.n)
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		done := c.committed[id]
		c.mu.Unlock()
		if done {
			return
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("tx %s never committed over TCP within %v", id, timeout)
		}
		epoch := c.nodes[0].Stats().Epoch
		shard := smap.ShardOf(workload.CheckingKey(string(tx.Args[0])))
		if nd := c.nodes[node.ProposerOfShard(shard, epoch, c.n)]; nd != nil {
			_ = nd.Submit(tx)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func depositTx(n int, nonce uint64, account int, amount int64) *types.Transaction {
	acct := workload.AccountName(account)
	shard := types.NewShardMap(n).ShardOf(workload.CheckingKey(acct))
	return &types.Transaction{
		Client: 99, Nonce: nonce, Kind: types.SingleShard,
		Shards:   []types.ShardID{shard},
		Contract: workload.ContractDepositChecking,
		Args:     [][]byte{[]byte(acct), contract.EncodeInt64(amount)},
	}
}

func TestScenarioTCPCrashRestartEpochJump(t *testing.T) {
	const n = 4
	c := newTCPCommittee(t, n, 42)
	for _, nd := range c.nodes {
		nd.Start()
	}

	// Phase 1: a healthy baseline burst.
	nonce := uint64(1)
	for i := 0; i < 8; i++ {
		c.submitUntilCommitted(depositTx(n, nonce, i, 1), 30*time.Second)
		nonce++
	}

	// Phase 2: kill replica 2 (process-level: node + sockets), keep
	// committing. Its silence must drive a K-rule reconfiguration that
	// rotates its shard to a live proposer.
	c.kill(2)
	for i := 0; i < 8; i++ {
		c.submitUntilCommitted(depositTx(n, nonce, i, 1), 30*time.Second)
		nonce++
	}
	deadline := time.Now().Add(30 * time.Second)
	for c.nodes[0].Stats().Epoch == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no reconfiguration while replica 2 was down")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Phase 3: restart replica 2 from genesis. It wakes in epoch 0,
	// the committee has discarded that DAG — only a snapshot epoch-jump
	// over TCP can bring it back.
	c.restart(2)
	deadline = time.Now().Add(30 * time.Second)
	for {
		st := c.nodes[2].Stats()
		if st.Epoch >= 1 && st.EpochJumps >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica 2 never epoch-jumped over TCP: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Phase 4: post-rejoin commits, then full state convergence.
	for i := 0; i < 8; i++ {
		c.submitUntilCommitted(depositTx(n, nonce, i, 1), 30*time.Second)
		nonce++
	}
	ref := c.nodes[0].Store()
	deadline = time.Now().Add(30 * time.Second)
	for i := 1; i < n; i++ {
		for {
			diverged := ""
			for _, k := range ref.Keys() {
				a, _ := ref.Get(k)
				b, _ := c.nodes[i].Store().Get(k)
				if !a.Equal(b) {
					diverged = string(k)
					break
				}
			}
			if diverged == "" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %d never converged (diverges at %s)", i, diverged)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// encodeDump renders a backend's full state + sequence-independent
// content for bit-identity comparison across replicas.
func encodeDump(st storage.Backend) []byte {
	dump, _ := dumpAt(st)
	return dump
}

// dumpAt is encodeDump plus the commit sequence of the state it
// rendered, both from one view of the store: its snapshot chunks.
func dumpAt(st storage.Backend) ([]byte, uint64) {
	ch := st.Chunks()
	return bytes.Join(ch.Enc, nil), ch.Seq
}

// TestScenarioTCPCrashRestartWALRecovery is the durable-backend twin
// of the epoch-jump scenario — and the acceptance proof for
// restart-from-disk: a killed TCP replica restarted against the same
// data directory recovers its pre-crash committed state by WAL replay
// (not by fetching a snapshot: the committee never reconfigures, so
// the replica stays within the GC horizon and rejoins through normal
// in-epoch catch-up), and after convergence its store dump is
// bit-identical to the always-up replicas'.
func TestScenarioTCPCrashRestartWALRecovery(t *testing.T) {
	const n = 4
	c := newTCPCommitteeOpt(t, n, 43, t.TempDir(), 0)
	for _, nd := range c.nodes {
		nd.Start()
	}

	// Accounts whose shard is NOT served by replica 2 keep committing
	// while it is down (no K: the committee never rotates shards).
	smap := types.NewShardMap(n)
	liveAccounts := make([]int, 0, tcpTestAccounts)
	for i := 0; i < tcpTestAccounts; i++ {
		shard := smap.ShardOf(workload.CheckingKey(workload.AccountName(i)))
		if node.ProposerOfShard(shard, 0, n) != 2 {
			liveAccounts = append(liveAccounts, i)
		}
	}
	if len(liveAccounts) < 4 {
		t.Fatalf("seed gave only %d accounts off replica 2's shard", len(liveAccounts))
	}

	// Phase 1: a committed baseline touching every replica.
	nonce := uint64(1)
	for i := 0; i < 8; i++ {
		c.submitUntilCommitted(depositTx(n, nonce, i, 1), 30*time.Second)
		nonce++
	}
	// Wait until replica 2 itself has applied the baseline (commits
	// happen per replica as waves land), then pin it to disk.
	deadline := time.Now().Add(30 * time.Second)
	base := c.nodes[0].Stats().CommittedTxs
	for c.nodes[2].Stats().CommittedTxs < base {
		if time.Now().After(deadline) {
			t.Fatalf("replica 2 never applied the baseline: %d < %d",
				c.nodes[2].Stats().CommittedTxs, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Replica 2 keeps running (and journaling votes) until the kill, so
	// the state compared after recovery is taken from one walk — dump
	// and sequence together — and only then made durable: Sync covers
	// everything the walk saw, and every commit counted before it.
	preCrashCommits := c.nodes[2].Stats().CommittedTxs
	preCrashDump, preCrashSeq := dumpAt(c.backends[2])
	if err := c.backends[2].Sync(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: kill replica 2 (process + abrupt backend teardown) and
	// keep committing on shards served by live proposers.
	c.kill(2)
	for i := 0; i < 8; i++ {
		c.submitUntilCommitted(depositTx(n, nonce, liveAccounts[i%len(liveAccounts)], 1), 30*time.Second)
		nonce++
	}

	// Phase 3: restart replica 2 from its data directory. Before the
	// node even starts catching up, the reopened backend must hold
	// the pre-crash committed state — that is the WAL replay.
	c.restart(2)
	if got := c.backends[2].Seq(); got < preCrashSeq {
		t.Fatalf("WAL replay recovered seq %d, pre-crash durable seq was %d", got, preCrashSeq)
	}
	if got := c.nodes[2].Stats().CommittedTxs; got < preCrashCommits {
		t.Fatalf("recovered commit counter %d below pre-crash %d (dedup sidecar lost)", got, preCrashCommits)
	}
	if preCrashSeq == c.backends[2].Seq() && !bytes.Equal(preCrashDump, encodeDump(c.backends[2])) {
		t.Fatal("WAL-replayed state diverges from the pre-crash durable state")
	}

	// Phase 4: the replica must converge through in-epoch catch-up
	// alone — same epoch, no snapshot fetch.
	for i := 0; i < 8; i++ {
		c.submitUntilCommitted(depositTx(n, nonce, liveAccounts[i%len(liveAccounts)], 1), 30*time.Second)
		nonce++
	}
	deadline = time.Now().Add(45 * time.Second)
	for {
		want := c.nodes[0].Stats().CommittedTxs
		got := c.nodes[2].Stats().CommittedTxs
		if got == want && bytes.Equal(encodeDump(c.nodes[0].Store()), encodeDump(c.nodes[2].Store())) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica 2 never converged after WAL recovery: commits %d vs %d", got, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
	st := c.nodes[2].Stats()
	if st.EpochJumps != 0 || st.Epoch != 0 {
		t.Fatalf("recovery used the snapshot path (epoch=%d jumps=%d); within the GC horizon it must be WAL replay + in-epoch catch-up", st.Epoch, st.EpochJumps)
	}
	// Bit-identity across the whole committee, always-up replicas
	// included.
	ref := encodeDump(c.nodes[0].Store())
	for i := 1; i < n; i++ {
		if !bytes.Equal(ref, encodeDump(c.nodes[i].Store())) {
			t.Fatalf("replica %d dump not bit-identical to replica 0", i)
		}
	}
}

// TestScenarioTCPWALRecoveryAcrossReconfig covers the stranded half
// of the restart-from-disk decision: the committee reconfigures while
// the durable replica is down, so WAL replay alone cannot rejoin it —
// it recovers its disk state, detects the epoch floor, and falls back
// to the snapshot epoch-jump (installed over the recovered prefix).
// A second crash+restart after the jump must then recover directly
// into the jumped epoch: the install is journaled in the WAL sidecar.
func TestScenarioTCPWALRecoveryAcrossReconfig(t *testing.T) {
	const n = 4
	c := newTCPCommitteeOpt(t, n, 44, t.TempDir(), 8)
	for _, nd := range c.nodes {
		nd.Start()
	}

	nonce := uint64(1)
	for i := 0; i < 8; i++ {
		c.submitUntilCommitted(depositTx(n, nonce, i, 1), 30*time.Second)
		nonce++
	}
	c.kill(2)
	for i := 0; i < 8; i++ {
		c.submitUntilCommitted(depositTx(n, nonce, i, 1), 30*time.Second)
		nonce++
	}
	deadline := time.Now().Add(30 * time.Second)
	for c.nodes[0].Stats().Epoch == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no reconfiguration while replica 2 was down")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Restart from disk into the discarded epoch: genuinely stranded,
	// so the snapshot jump is the only way forward.
	c.restart(2)
	deadline = time.Now().Add(30 * time.Second)
	for {
		st := c.nodes[2].Stats()
		if st.Epoch >= 1 && st.EpochJumps >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stranded durable replica never epoch-jumped: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	jumpEpoch := c.nodes[2].Stats().Epoch

	// Crash again after the jump. The reopened replica must resume in
	// the jumped epoch (the install rode the WAL sidecar), not back
	// in epoch 0.
	if err := c.backends[2].Sync(); err != nil {
		t.Fatal(err)
	}
	c.kill(2)
	c.restart(2)
	if got := c.nodes[2].Stats().Epoch; got < jumpEpoch {
		t.Fatalf("second restart recovered into epoch %d, want ≥ %d (journaled jump)", got, jumpEpoch)
	}
	for i := 0; i < 8; i++ {
		c.submitUntilCommitted(depositTx(n, nonce, i, 1), 30*time.Second)
		nonce++
	}
	deadline = time.Now().Add(45 * time.Second)
	for {
		if bytes.Equal(encodeDump(c.nodes[0].Store()), encodeDump(c.nodes[2].Store())) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("durable replica never reconverged after the journaled jump")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
