package node

import (
	"time"

	"thunderbolt/internal/dag"
	"thunderbolt/internal/metrics"
	"thunderbolt/internal/tusk"
	"thunderbolt/internal/types"
)

// Speculative execution of certified blocks (the certify→commit
// overlap). PR 9's stage telemetry showed the commit path spends most
// of its latency waiting for the Tusk commit rule to release blocks
// that are already certified — execution itself is a rounding error.
// This file fills that wait: the node predicts the next commit waves
// in slot order (tusk.PredictWave) and runs them right away
// with runWave — the same function a wave runs through at commit time —
// so that when the commit rule releases a wave whose prediction held,
// drainExec hands installWave a result that already exists.
//
// The contract:
//
//   - predict: a certified slot vertex's wave is linearized exactly as
//     its commit would, with earlier queued predictions treated as
//     committed, so stacked predictions compose like consecutive
//     commits. Linearize is stable once a vertex is in the store, so a
//     prediction only misses when a slot it assumed committed is
//     skipped (a late or unsupported block, equivocation fallout).
//   - run: runWave against predicted state — reads fall through the
//     write sets of the earlier queued predictions to the committed
//     store, and the dedup view is the committed dedup with those
//     predictions' resolutions marked on a scratch copy. Nothing
//     escapes: the result sits in the queue, and only installWave
//     touches the store, the dedup, or a client.
//   - confirm: at commit, the canonical wave must match the oldest
//     prediction vertex-for-vertex. Then its result is installed as is.
//   - miss: any mismatch discards the entire prediction queue — results
//     are plain values, so there is nothing to undo — and the canonical
//     wave runs at commit time instead.
//
// Why a miss must flush everything: predictions run against the
// committed tip plus earlier predictions. Once the canonical order
// diverges — even for one wave — the store evolves differently than
// every queued prediction assumed. Flushing restores the invariant that
// store and dedup only ever change by installing the oldest prediction
// or by a commit-time run after a flush (epoch transitions and snapshot
// installs reset the queue too), which is what makes the predicted
// state a run saw identical to the committed state at its install.

// specWave is one predicted commit wave and, once run, its result.
type specWave struct {
	wave tusk.CommitWave
	res  *waveResult // nil until run
}

// resetSpec discards all speculative state. Called from
// resetEpochState: predictions bind to one epoch's DAG and die with it.
func (n *Node) resetSpec() {
	clear(n.specQ) // release vertex references
	n.specQ = n.specQ[:0]
	if n.specVerts == nil {
		n.specVerts = make(map[types.Digest]bool)
	}
	clear(n.specVerts)
}

// specVertClaimed reports whether a vertex is claimed by a queued
// prediction — PredictWave's "already committed" extension.
func (n *Node) specVertClaimed(d types.Digest) bool { return n.specVerts[d] }

// nextSpecSlot returns the slot after the last one decided or
// predicted: the prediction is that every slot commits, in slot order.
// When one is skipped instead, its commit is an ordinary miss. Slots
// are compared by position in the commit order, round·n + index.
func (n *Node) nextSpecSlot() (types.Round, types.ReplicaID) {
	r, p := n.committer.Next()
	pos := int(r)*n.n + tusk.SlotIndex(n.epoch, r, n.n, p)
	if len(n.specQ) > 0 {
		last := n.specQ[len(n.specQ)-1].wave.Leader
		pos = max(pos, int(last.Round())*n.n+tusk.SlotIndex(n.epoch, last.Round(), n.n, last.Proposer())+1)
	}
	r = types.Round(pos / n.n)
	return r, tusk.SlotProposer(n.epoch, r, n.n, pos%n.n)
}

// maybeQueueSpec extends the prediction queue up to specDepth: one
// prediction per consecutive slot whose vertex is already certified
// into the DAG. Stops at the first missing vertex — predicting past a
// hole would bake in the guess that the hole's slot never commits,
// which is exactly the reorder that forces a flush when wrong.
func (n *Node) maybeQueueSpec() {
	for len(n.specQ) < n.specDepth {
		v, ok := n.dagStore.Get(n.nextSpecSlot())
		if !ok {
			return
		}
		w := n.committer.PredictWave(v, n.specClaimFn)
		for _, v := range w.Vertices {
			n.specVerts[v.Cert.Digest()] = true
		}
		n.specQ = append(n.specQ, specWave{wave: w})
	}
}

// drainSpec is the run loop's idle work: after every committed wave
// has been installed (drainExec precedes it, so execQ is empty and the
// store sits at the committed tip), predict the next waves and run any
// prediction that has not run yet.
func (n *Node) drainSpec() {
	if n.specDepth <= 0 {
		return
	}
	n.maybeQueueSpec()
	for i := range n.specQ {
		if n.specQ[i].res == nil {
			n.runPrediction(i)
		}
	}
}

// runPrediction runs the i-th queued prediction on the state its
// predecessors leave behind: their write sets layered newest-first over
// the committed store, their resolutions marked on a scratch dedup.
// Predictions run in queue order, so every predecessor has a result.
func (n *Node) runPrediction(i int) {
	sw := &n.specQ[i]
	// a = vertices in the predicted wave.
	n.trace(metrics.EvSpecStart, sw.wave.Leader.Round(), uint64(len(sw.wave.Vertices)), 0)
	earlier := n.specQ[:i]
	dedup := n.scratch.Reset()
	for j := range earlier {
		earlier[j].res.eachResolved(func(tx *types.Transaction, _ bool) { dedup.Mark(tx) })
	}
	base := n.baseReader
	if i > 0 {
		base = func(k types.Key) types.Value {
			for j := len(earlier) - 1; j >= 0; j-- {
				if v, ok := earlier[j].res.writes.get(k); ok {
					return v
				}
			}
			return n.baseRead(k)
		}
	}
	sw.res = n.cfg.runWave(sw.wave, dedup, base)
	// The reclaimed slice of the certify→commit wait: certification to
	// speculative-results-ready, per block (same stamp discipline as
	// installWave's stage histograms).
	done := time.Now()
	for _, v := range sw.wave.Vertices {
		if !v.Block.Stamps.Certified.IsZero() {
			n.nm.stageCertifySpecDone.Observe(done.Sub(v.Block.Stamps.Certified))
		}
	}
}

// waveResultFor decides the wave the commit rule just released: the
// oldest prediction's result when the prediction held (hit), otherwise
// a run right now against the committed store and dedup — after
// flushing every prediction if the canonical order diverged. Either way
// the caller installs what it returns.
func (n *Node) waveResultFor(w tusk.CommitWave) (res *waveResult, hit bool) {
	var predicted *waveResult
	if len(n.specQ) > 0 {
		sw := &n.specQ[0]
		switch {
		case sw.wave.Leader != w.Leader || !sameVertices(sw.wave.Vertices, w.Vertices):
			// The commit rule released a different wave here than predicted
			// (a skipped slot, or a divergent linearization).
			// Every queued prediction built on the wrong order.
			n.specMiss(w)
		case sw.res == nil:
			// Predicted but never run — not a misprediction, and nothing
			// queued behind it has run either.
			n.popSpec()
		case !n.specStillFresh(sw.res):
			n.specMiss(w)
		case !n.cfg.SpecVerify:
			return sw.res, true
		default:
			predicted = sw.res
		}
	}
	res = n.cfg.runWave(w, n.scratch.Reset(), n.baseReader)
	if predicted == nil {
		return res, false
	}
	// SpecVerify: on the hit path the predicted state is value-identical
	// to the committed state, so any difference is a speculation bug,
	// not a legitimate reorder.
	if !res.equal(predicted) {
		n.specMiss(w)
		return res, false
	}
	return res, true
}

// specStillFresh is the guard behind the flush invariant: everything a
// prediction resolved must still be unresolved when it is installed. It
// holds by construction; if a future change mutates the dedup behind
// the queue's back, the prediction becomes a miss instead of a double
// commit.
func (n *Node) specStillFresh(res *waveResult) bool {
	fresh := true
	res.eachResolved(func(tx *types.Transaction, _ bool) {
		fresh = fresh && !n.dedup.Resolved(tx)
	})
	return fresh
}

// sameVertices compares predicted and canonical linearizations by
// vertex identity. Pointer equality is exact here: both lists come
// from the same DAG store, which holds one vertex per slot.
func sameVertices(a, b []*dag.Vertex) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// equal reports whether two runs of one wave decided the same thing:
// the same outcomes in the same order and the same coalesced writes.
func (a *waveResult) equal(b *waveResult) bool {
	if len(a.outcomes) != len(b.outcomes) || len(a.writes.recs) != len(b.writes.recs) {
		return false
	}
	for i, x := range a.outcomes {
		if x != b.outcomes[i] {
			return false
		}
	}
	for i, x := range a.writes.recs {
		if y := b.writes.recs[i]; x.Key != y.Key || !x.Value.Equal(y.Value) {
			return false
		}
	}
	return true
}

// specMiss discards every queued prediction: the canonical order
// diverged, so all of them — built on the predicted order — are
// invalid.
func (n *Node) specMiss(w tusk.CommitWave) {
	var wasted uint64
	for i := range n.specQ {
		if res := n.specQ[i].res; res != nil {
			wasted += uint64(res.txs)
		}
	}
	n.nm.specMisses.Add(uint64(len(n.specQ)))
	n.nm.specWastedTxs.Add(wasted)
	// a = flushed predictions, b = wasted speculative transactions.
	n.trace(metrics.EvSpecRollback, w.Leader.Round(), uint64(len(n.specQ)), wasted)
	n.resetSpec()
}

// popSpec retires the oldest prediction (installed, or superseded
// before it ran), releasing its vertex claims.
func (n *Node) popSpec() {
	for _, v := range n.specQ[0].wave.Vertices {
		delete(n.specVerts, v.Cert.Digest())
	}
	n.specQ[0] = specWave{}
	n.specQ = n.specQ[1:]
}
