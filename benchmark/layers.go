package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"thunderbolt/internal/ce"
	"thunderbolt/internal/crypto"
	"thunderbolt/internal/dag"
	"thunderbolt/internal/dag/dagtest"
	"thunderbolt/internal/depgraph"
	"thunderbolt/internal/gateway"
	"thunderbolt/internal/storage"
	"thunderbolt/internal/transport"
	"thunderbolt/internal/tusk"
	"thunderbolt/internal/types"
	"thunderbolt/internal/validate"
	"thunderbolt/internal/workload"
)

// The layer-call pass: the workload's own generated batches pushed
// through each layer's public functions, one layer at a time, with
// nothing else running. It attributes cost; it is never used for an
// end-to-end number. The batches are the workload's single-shard
// stream (same accounts, skew and read share); cross-shard ordering
// only exists inside a running cluster and is measured there.

// series collects one value per pipeline iteration per metric; the
// reported number is the median.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

// layerBudget is the time one microbenchmark may take.
func layerBudget(o runOpts) time.Duration {
	b := o.Window / 40
	if b < 10*time.Millisecond {
		b = 10 * time.Millisecond
	}
	if b > 250*time.Millisecond {
		b = 250 * time.Millisecond
	}
	return b
}

// layerPass runs the layer-call pass, adds its metrics to m, and
// writes the run's two files: the spans as a Chrome trace, and the
// per-layer metrics with each span name's self time.
func layerPass(w workloadSpec, o runOpts, rec *recorder, frame int, m map[string]float64) error {
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return err
	}
	if err := callLayers(w, o, rec, frame, m); err != nil {
		return fmt.Errorf("layer pass: %w", err)
	}
	if err := rec.writeChrome(filepath.Join(o.OutDir, "trace-"+w.Name+".json")); err != nil {
		return err
	}
	self := map[string]float64{}
	for name, d := range rec.selfTimes() {
		self[name] = ms(d)
	}
	return writeJSON(filepath.Join(o.OutDir, "layers-"+w.Name+".json"), layerFile{Metrics: m, SelfTimeMS: self})
}

// layerFile is one workload's traced-run output.
type layerFile struct {
	Metrics    map[string]float64 `json:"metrics"`
	SelfTimeMS map[string]float64 `json:"self_time_ms"`
}

func callLayers(w workloadSpec, o runOpts, rec *recorder, frame int, m map[string]float64) error {
	budget := layerBudget(o)
	root := rec.open("layers", -1, 0, 0)
	defer rec.close(root)

	reg := smallBank()
	if w.Exec {
		reg = costlySmallBank()
	}
	scheme := "insecure"
	if w.Prod {
		scheme = "ed25519"
	}
	sch, err := crypto.SchemeByName(scheme)
	if err != nil {
		return err
	}
	signers, verifier, err := sch.Committee(committee, o.Seed)
	if err != nil {
		return err
	}

	scratch, err := os.MkdirTemp(o.OutDir, "layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	var store storage.Backend = storage.New()
	if w.Prod {
		d, err := storage.OpenDurable(storage.DurableOptions{Dir: filepath.Join(scratch, "pipeline")})
		if err != nil {
			return err
		}
		defer d.Close()
		store = d
	}
	workload.InitAccounts(store, w.Accounts, execBalance, execBalance)
	base := func(k types.Key) types.Value {
		v, _ := store.Get(k)
		return v
	}
	shards := committee
	if w.Exec {
		shards = 1
	}
	gen := workload.NewGenerator(workload.Config{
		Accounts: w.Accounts, Shards: shards, Theta: w.Theta, ReadRatio: w.ReadRatio, Seed: o.Seed, Client: 1,
	})

	// One batch's life, as a span tree: client encode, proposer decode
	// and preplay, block encode and sign, replica decode, verify,
	// validate and apply.
	s := series{}
	executor := ce.New(ce.Config{Executors: execWorkers, Registry: reg})
	sess := executor.NewSession()
	var last *ce.BatchResult
	for deadline := time.Now().Add(4 * budget); last == nil || time.Now().Before(deadline); {
		t0 := time.Now()
		txs := gen.Batch(batchSize)
		t1 := time.Now()
		s.add("harness.gen_ns_per_tx", float64(t1.Sub(t0))/batchSize)

		batch := rec.open("batch", root, 0, 0)
		child := func(name string, from time.Time) time.Time {
			now := time.Now()
			rec.add(name, from, now, batch, 0, 0)
			return now
		}
		wire := make([][]byte, len(txs))
		for i, tx := range txs {
			if wire[i], err = tx.MarshalBinary(); err != nil {
				return err
			}
		}
		t2 := child("types.encode", t1)
		s.add("types.tx_encode_ns", float64(t2.Sub(t1))/batchSize)

		decoded := make([]*types.Transaction, len(wire))
		for i, b := range wire {
			decoded[i] = new(types.Transaction)
			if err := decoded[i].UnmarshalBinary(b); err != nil {
				return err
			}
		}
		t3 := child("types.decode", t2)
		s.add("types.tx_decode_ns", float64(t3.Sub(t2))/batchSize)

		res := sess.ExecuteBatch(depgraph.BaseReader(base), decoded)
		t4 := child("ce.preplay", t3)
		n := float64(len(decoded))
		s.add("ce.preplay_us_per_tx", us(t4.Sub(t3))/n)
		s.add("ce.reexec_per_tx", float64(res.Reexecutions)/n)
		s.add("ce.failed_per_tx", float64(len(res.Failed))/n)
		last = res

		blk := &types.Block{
			Round: 1, Kind: types.NormalBlock, SingleTxs: res.Schedule, Results: res.Results,
			ProposedUnixNano: t4.UnixNano(),
		}
		t4 = time.Now()
		enc, err := blk.MarshalBinary()
		if err != nil {
			return err
		}
		t5 := child("types.encode", t4)
		s.add("types.block_encode_us", us(t5.Sub(t4)))

		digest := blk.Digest()
		t5 = time.Now()
		sig := signers[0].Sign(digest)
		t6 := child("crypto.sign", t5)
		s.add("crypto.sign_us", us(t6.Sub(t5)))

		var got types.Block
		if err := got.UnmarshalBinary(enc); err != nil {
			return err
		}
		t7 := child("types.decode", t6)
		s.add("types.block_decode_us", us(t7.Sub(t6)))

		if !verifier.Verify(0, digest, sig) {
			return errors.New("own signature does not verify")
		}
		t8 := child("crypto.verify", t7)
		s.add("crypto.verify_us", us(t8.Sub(t7)))

		v, verr := validate.ValidateBatch(reg, base, got.SingleTxs, got.Results, execWorkers)
		t9 := child("validate.batch", t8)
		s.add("validate.us_per_tx", us(t9.Sub(t8))/float64(max(len(got.SingleTxs), 1)))
		if verr != nil {
			s.add("validate.fail_ratio", 1)
			rec.close(batch)
			continue
		}
		s.add("validate.fail_ratio", 0)

		store.Apply(v.Writes)
		t10 := child("storage.apply", t9)
		s.add("storage.apply_us_per_record", us(t10.Sub(t9))/float64(max(len(v.Writes), 1)))
		if err := store.Sync(); err != nil {
			return err
		}
		t11 := child("storage.sync", t10)
		s.add("storage.sync_ms", ms(t11.Sub(t10)))
		rec.close(batch)
	}
	for name, vs := range s {
		m[name] = median(vs)
	}

	// Known-footprint scheduling: plan the last batch's layers, then
	// run it as conflict-free waves.
	accs := make([]depgraph.Access, len(last.Results))
	for i, r := range last.Results {
		for _, rd := range r.ReadSet {
			accs[i].Reads = append(accs[i].Reads, rd.Key)
		}
		for _, wr := range r.WriteSet {
			accs[i].Writes = append(accs[i].Writes, wr.Key)
		}
	}
	span := func(name string, f func()) time.Duration {
		id := rec.open(name, root, 0, 0)
		d := timeLoop(budget, f)
		rec.close(id)
		return d
	}
	var layers [][]int
	m["depgraph.layers_us_per_batch"] = us(span("depgraph.layers", func() { layers = depgraph.Layers(accs) }))
	m["depgraph.layer_count"] = float64(len(layers))
	m["ce.layered_us_per_tx"] = us(span("ce.layered", func() {
		executor.ExecuteLayered(depgraph.BaseReader(base), last.Schedule, accs)
	})) / float64(max(len(last.Schedule), 1))

	// Quorum verification, cold and through the verified-signature memo.
	digest := types.HashBytes([]byte("layer-pass"))
	cert := certify(signers, verifier, digest, 1)
	m["crypto.verify_batch_us_per_sig"] = us(span("crypto.verify_batch", func() {
		if err := crypto.VerifyCertificate(cert, committee, verifier); err != nil {
			panic(err) // a certificate this function just built
		}
	})) / float64(len(cert.Sigs))
	m["crypto.cache_hit_rate"] = cacheHitRate(signers, verifier)

	// Gateway dedup, on this workload's transactions as one session.
	dd := gateway.NewDedup(0, 0)
	txs := gen.Batch(batchSize)
	var admit, mark time.Duration
	rounds := 0
	for deadline := time.Now().Add(budget); rounds == 0 || time.Now().Before(deadline); rounds++ {
		for i, tx := range txs {
			tx.Client, tx.Nonce = 7, uint64(rounds*len(txs)+i+1)
		}
		t0 := time.Now()
		for _, tx := range txs {
			dd.Admit(tx)
		}
		t1 := time.Now()
		for _, tx := range txs {
			dd.Mark(tx)
		}
		admit += t1.Sub(t0)
		mark += time.Since(t1)
	}
	m["gateway.dedup_admit_ns"] = float64(admit) / float64(rounds*len(txs))
	m["gateway.dedup_mark_ns"] = float64(mark) / float64(rounds*len(txs))

	// Storage reads, iteration and snapshot capture over the workload's ledger.
	keys := store.Keys()
	probe := keys
	if len(probe) > 10_000 {
		probe = probe[:10_000]
	}
	m["storage.get_ns"] = float64(span("storage.get", func() {
		for _, k := range probe {
			store.Get(k)
		}
	})) / float64(len(probe))
	m["storage.ascend_ns_per_record"] = float64(span("storage.ascend", func() {
		store.Ascend(func(types.RWRecord) bool { return true })
	})) / float64(len(keys))
	var snap *types.Snapshot
	var chunks [][]byte
	m["types.snapshot_capture_ms"] = ms(span("types.snapshot_capture", func() {
		cb := types.NewChunkBuilder(types.DefaultChunkRecords, -1)
		store.Ascend(func(r types.RWRecord) bool {
			cb.Add(r.Key, r.Value)
			return true
		})
		var digests []types.Digest
		var count int
		chunks, digests, _, count = cb.Finish()
		types.MerkleFold(digests)
		snap = &types.Snapshot{ChunkSize: uint32(types.DefaultChunkRecords), RecordCount: uint64(count), ChunkDigests: digests}
	}))
	var verr error
	m["types.snapshot_verify_ms"] = ms(span("types.snapshot_verify", func() {
		for i, payload := range chunks {
			if _, err := snap.VerifyChunk(i, payload); err != nil {
				verr = err
			}
		}
	}))
	if verr != nil {
		return fmt.Errorf("captured snapshot does not verify: %w", verr)
	}

	if err := durablePass(w, filepath.Join(scratch, "durable"), rec, root, m); err != nil {
		return err
	}
	dagPass(budget, rec, root, m)
	if frame <= 0 {
		frame = 256
	}
	transportPass(budget, frame, rec, root, m)
	return nil
}

// certify collects a quorum certificate over digest through v.
func certify(signers []crypto.Signer, v crypto.Verifier, digest types.Digest, round types.Round) *types.Certificate {
	q := crypto.NewQuorumCollector(committee, v, digest, 0, round, 0)
	for i := range signers {
		cert, err := q.Add(types.ReplicaID(i), signers[i].Sign(digest))
		if err != nil {
			panic(err) // a signature this function just made
		}
		if cert != nil {
			return cert
		}
	}
	panic("no quorum from a full committee")
}

// countingVerifier counts the verifications that reach the scheme.
type countingVerifier struct {
	inner crypto.Verifier
	calls atomic.Uint64
}

func (c *countingVerifier) Verify(r types.ReplicaID, d types.Digest, sig []byte) bool {
	c.calls.Add(1)
	return c.inner.Verify(r, d, sig)
}

// cacheHitRate replays a proposer's verification pattern — each vote
// as it arrives, then the certificate assembled from those votes —
// through the verified-signature memo, and returns the share of
// verifications the memo absorbed.
func cacheHitRate(signers []crypto.Signer, v crypto.Verifier) float64 {
	inner := &countingVerifier{inner: v}
	cv := crypto.NewCachingVerifier(inner, 0)
	asked := 0
	for r := 1; r <= 64; r++ {
		digest := types.HashBytes([]byte{byte(r)})
		cert := certify(signers, cv, digest, types.Round(r))
		asked += 2 * len(cert.Sigs)
		if err := crypto.VerifyCertificate(cert, committee, cv); err != nil {
			panic(err) // a certificate certify just built
		}
	}
	return 1 - ratio(float64(inner.calls.Load()), float64(asked))
}

// durablePass prices the WAL backend on this workload's ledger: write
// amplification on disk, and how long a restart takes to reopen it.
func durablePass(w workloadSpec, dir string, rec *recorder, root int, m map[string]float64) error {
	id := rec.open("storage.durable", root, 0, 0)
	defer rec.close(id)
	opts := storage.DurableOptions{Dir: dir, NoSync: !w.Prod}
	d, err := storage.OpenDurable(opts)
	if err != nil {
		return err
	}
	workload.InitAccounts(d, w.Accounts, execBalance, execBalance)
	var user int64
	d.Ascend(func(r types.RWRecord) bool {
		user += int64(len(r.Key) + len(r.Value))
		return true
	})
	if err := d.Close(); err != nil {
		return err
	}
	var disk int64
	err = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			disk += info.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	m["storage.wal_bytes_per_user_byte"] = ratio(float64(disk), float64(user))
	t0 := time.Now()
	d, err = storage.OpenDurable(opts)
	if err != nil {
		return err
	}
	m["storage.open_s"] = time.Since(t0).Seconds()
	if d.Len() != 2*w.Accounts {
		d.Close()
		return fmt.Errorf("reopened WAL holds %d keys, wrote %d", d.Len(), 2*w.Accounts)
	}
	return d.Close()
}

// dagPass grows a synthetic certified DAG (full rounds, empty blocks)
// and times the DAG store and the Tusk commit rule over it.
func dagPass(budget time.Duration, rec *recorder, root int, m map[string]float64) {
	id := rec.open("dag+tusk", root, 0, 0)
	defer rec.close(id)
	c := dagtest.NewCommittee(committee)
	var add, advance, predict, linearize time.Duration
	var vertices, waves, predictions, linearized int
	for deadline := time.Now().Add(budget); vertices == 0 || time.Now().Before(deadline); {
		store := dag.NewStore(0, committee)
		committer := tusk.NewCommitter(store, committee)
		var prev []types.Digest
		var leader *dag.Vertex
		for r := types.Round(1); r <= 40; r++ {
			var certs []types.Digest
			for p := 0; p < committee; p++ {
				v := c.Vertex(&types.Block{
					Round: r, Proposer: types.ReplicaID(p), Shard: types.ShardID(p), Kind: types.NormalBlock,
					Parents: prev, ProposedUnixNano: int64(r)*1000 + int64(p),
				})
				t0 := time.Now()
				if err := store.Add(v); err != nil {
					panic(err) // parents were added the round before
				}
				add += time.Since(t0)
				vertices++
				certs = append(certs, v.Cert.Digest())
				if tusk.LeaderRound(r) && types.ReplicaID(p) == tusk.LeaderOf(0, r, committee) {
					leader = v
				}
			}
			prev = certs
			if leader != nil && leader.Round() == r {
				t0 := time.Now()
				committer.PredictWave(leader, func(types.Digest) bool { return false })
				predict += time.Since(t0)
				predictions++
			}
			t0 := time.Now()
			ws := committer.Advance()
			advance += time.Since(t0)
			waves += len(ws)
		}
		t0 := time.Now()
		linearized += len(store.Linearize(leader, func(types.Digest) bool { return false }))
		linearize += time.Since(t0)
	}
	m["dag.add_us"] = ratio(us(add), float64(vertices))
	m["dag.linearize_us_per_vertex"] = ratio(us(linearize), float64(linearized))
	m["tusk.advance_us_per_wave"] = ratio(us(advance), float64(waves))
	m["tusk.predict_us_per_wave"] = ratio(us(predict), float64(predictions))
}

// transportPass sends frames of the workload's mean size through each
// transport alone: the simulated network with zero delay, and a
// loopback TCP pair. TCP numbers attribute cost only — every
// end-to-end lane runs on the simulated network.
func transportPass(budget time.Duration, frame int, rec *recorder, root int, m map[string]float64) {
	id := rec.open("transport", root, 0, 0)
	defer rec.close(id)
	payload := make([]byte, frame)
	const burst = 256

	// pump sends bursts from a to b until the budget is spent and
	// returns the time per delivered frame.
	pump := func(a, b transport.Transport) time.Duration {
		var got atomic.Int64
		arrived := make(chan struct{}, 1)
		b.SetHandler(func(types.ReplicaID, transport.MsgType, []byte) {
			if got.Add(1)%burst == 0 {
				arrived <- struct{}{}
			}
		})
		a.SetHandler(func(types.ReplicaID, transport.MsgType, []byte) {})
		return timeLoop(budget, func() {
			for i := 0; i < burst; i++ {
				if err := a.Send(b.Self(), 1, payload); err != nil {
					return
				}
			}
			select {
			case <-arrived:
			case <-time.After(5 * time.Second):
			}
		}) / burst
	}

	sim := transport.NewSimNetwork(transport.SimConfig{N: 2, Latency: transport.ZeroLatency()})
	m["transport.sim_us_per_msg"] = us(pump(sim.Endpoint(0), sim.Endpoint(1)))
	sim.Close()

	m["transport.tcp_us_per_msg"], m["transport.tcp_mb_per_s"] = 0, 0
	ta, err := transport.NewTCPTransport(transport.TCPConfig{Self: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		return // no loopback sockets here; the attribution-only numbers read 0
	}
	defer ta.Close()
	tb, err := transport.NewTCPTransport(transport.TCPConfig{Self: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		return
	}
	defer tb.Close()
	peers := map[types.ReplicaID]string{0: ta.Addr(), 1: tb.Addr()}
	ta.SetPeers(peers)
	tb.SetPeers(peers)
	per := pump(ta, tb)
	m["transport.tcp_us_per_msg"] = us(per)
	m["transport.tcp_mb_per_s"] = ratio(float64(frame)/1e6, per.Seconds())
}
