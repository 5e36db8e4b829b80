package gateway

import (
	"fmt"
	"math/rand"
	"testing"

	"thunderbolt/internal/types"
)

func stx(client, nonce uint64) *types.Transaction {
	return &types.Transaction{
		Client: client, Nonce: nonce,
		Kind: types.SingleShard, Shards: []types.ShardID{0},
		Contract: "t", Args: [][]byte{[]byte(fmt.Sprintf("%d/%d", client, nonce))},
	}
}

func ltx(tag string) *types.Transaction {
	return &types.Transaction{
		Kind: types.SingleShard, Shards: []types.ShardID{0},
		Contract: "t", Args: [][]byte{[]byte(tag)},
	}
}

func TestDedupFloorAdvance(t *testing.T) {
	d := NewDedup(64, 0)
	for n := uint64(1); n <= 200; n++ {
		if d.Resolved(stx(1, n)) {
			t.Fatalf("nonce %d resolved before mark", n)
		}
		d.Mark(stx(1, n))
		if !d.Resolved(stx(1, n)) {
			t.Fatalf("nonce %d unresolved after mark", n)
		}
	}
	// Everything marked in order: floor should have swallowed all of
	// it — any nonce ≤ 200 resolved, 201 admissible, 201+64 not.
	if got := d.Admit(stx(1, 200)); got != AdmitResolved {
		t.Fatalf("below-floor resubmit: got %v, want resolved", got)
	}
	if got := d.Admit(stx(1, 201)); got != AdmitNew {
		t.Fatalf("next nonce: got %v, want new", got)
	}
	if got := d.Admit(stx(1, 200+65)); got != AdmitFuture {
		t.Fatalf("out-of-window nonce: got %v, want future", got)
	}
}

func TestDedupOutOfOrderWindow(t *testing.T) {
	d := NewDedup(64, 0)
	// Resolve out of order: 3, 5, then 1, 2 — floor trails the gap at
	// 4 and jumps when it fills.
	for _, n := range []uint64{3, 5, 1, 2} {
		d.Mark(stx(1, n))
	}
	for _, want := range []struct {
		n  uint64
		ok bool
	}{{1, true}, {2, true}, {3, true}, {4, false}, {5, true}, {6, false}} {
		if got := d.Resolved(stx(1, want.n)); got != want.ok {
			t.Fatalf("nonce %d resolved=%v, want %v", want.n, got, want.ok)
		}
	}
	d.Mark(stx(1, 4))
	// Gap filled: floor jumps over 5; bit positions below must have
	// been cleared for reuse by nonces one window later.
	if got := d.Admit(stx(1, 5)); got != AdmitResolved {
		t.Fatalf("nonce 5 after floor jump: got %v, want resolved", got)
	}
	if got := d.Admit(stx(1, 5+64)); got != AdmitNew {
		t.Fatalf("reused bit position must read unresolved: got %v, want new", got)
	}
}

func TestDedupForcedEviction(t *testing.T) {
	d := NewDedup(64, 0)
	d.Mark(stx(1, 1))
	// A commit far beyond the window (only reachable through a path
	// that bypassed admission) forces the floor forward
	// deterministically: nonces evicted unresolved lose dedup
	// protection — the documented bounded-window contract.
	d.Mark(stx(1, 1000))
	if !d.Resolved(stx(1, 900)) {
		t.Fatal("nonce at forced floor should read resolved")
	}
	if got := d.Admit(stx(1, 937)); got != AdmitNew {
		t.Fatalf("in-window unresolved nonce after forced advance: got %v, want new", got)
	}
	if !d.Resolved(stx(1, 1000)) {
		t.Fatal("the forcing nonce itself must be resolved")
	}
}

func TestDedupLegacyRing(t *testing.T) {
	d := NewDedup(64, 4)
	txs := make([]*types.Transaction, 6)
	for i := range txs {
		txs[i] = ltx(fmt.Sprintf("t%d", i))
		d.Mark(txs[i])
	}
	// Capacity 4: t0 and t1 evicted, t2..t5 retained.
	for i, tx := range txs {
		want := i >= 2
		if got := d.Resolved(tx); got != want {
			t.Fatalf("legacy tx %d resolved=%v, want %v", i, got, want)
		}
	}
	leg := d.Legacy()
	if len(leg) != 4 {
		t.Fatalf("legacy window holds %d, want 4", len(leg))
	}
	for i, id := range leg {
		if id != txs[i+2].ID() {
			t.Fatalf("legacy ring order broken at %d", i)
		}
	}
}

// TestDedupDeterministicState pins the property everything else rests
// on: two replicas marking the same sequence hold byte-identical
// exported state, and a third restoring that export then marking the
// same continuation stays identical too (the snapshot epoch-jump
// path).
func TestDedupDeterministicState(t *testing.T) {
	a, b := NewDedup(128, 8), NewDedup(128, 8)
	seq := []*types.Transaction{
		stx(1, 1), stx(2, 1), stx(1, 3), ltx("x"), stx(2, 2), stx(1, 2),
		ltx("y"), stx(7, 1), ltx("z"), stx(7, 130),
	}
	for _, tx := range seq {
		a.Mark(tx)
		b.Mark(tx)
	}
	sameState := func(x, y *Dedup) error {
		xs, ys := x.Sessions(), y.Sessions()
		if len(xs) != len(ys) {
			return fmt.Errorf("session counts %d vs %d", len(xs), len(ys))
		}
		for i := range xs {
			if xs[i].Client != ys[i].Client || xs[i].Floor != ys[i].Floor {
				return fmt.Errorf("session %d header mismatch", i)
			}
			for j := range xs[i].Bits {
				if xs[i].Bits[j] != ys[i].Bits[j] {
					return fmt.Errorf("session %d bits mismatch", i)
				}
			}
		}
		xl, yl := x.Legacy(), y.Legacy()
		if len(xl) != len(yl) {
			return fmt.Errorf("legacy lengths %d vs %d", len(xl), len(yl))
		}
		for i := range xl {
			if xl[i] != yl[i] {
				return fmt.Errorf("legacy order mismatch at %d", i)
			}
		}
		return nil
	}
	if err := sameState(a, b); err != nil {
		t.Fatalf("identical histories, divergent state: %v", err)
	}
	c := NewDedup(128, 8)
	c.Restore(a.Sessions(), a.Legacy())
	if err := sameState(a, c); err != nil {
		t.Fatalf("restore not verbatim: %v", err)
	}
	cont := []*types.Transaction{stx(1, 4), ltx("w"), stx(9, 1)}
	for _, tx := range cont {
		a.Mark(tx)
		c.Mark(tx)
	}
	if err := sameState(a, c); err != nil {
		t.Fatalf("post-restore evolution diverged: %v", err)
	}
}

// TestDedupBounded pins the memory contract: state is bounded by
// clients × window + legacy capacity no matter how many transactions
// resolve.
func TestDedupBounded(t *testing.T) {
	d := NewDedup(64, 16)
	for c := uint64(1); c <= 8; c++ {
		for n := uint64(1); n <= 10_000; n++ {
			d.Mark(stx(c, n))
		}
	}
	for i := 0; i < 1000; i++ {
		d.Mark(ltx(fmt.Sprintf("l%d", i)))
	}
	if d.Clients() != 8 {
		t.Fatalf("clients %d, want 8", d.Clients())
	}
	if d.LegacyLen() != 16 {
		t.Fatalf("legacy %d, want capacity 16", d.LegacyLen())
	}
	if got := len(d.Sessions()[0].Bits); got != 1 {
		t.Fatalf("bitmap words %d, want 1", got)
	}
}

// TestDedupExpireIdle covers the deterministic idle-session sweep:
// sessions whose floor stalls for E consecutive sweeps are dropped,
// activity resets the idle clock, and a dropped session loses dedup
// protection (its old nonces admit as new — the documented bound).
func TestDedupExpireIdle(t *testing.T) {
	d := NewDedup(64, 0)
	d.Mark(stx(1, 1)) // client 1: active once, then idle forever
	d.Mark(stx(2, 1)) // client 2: stays active across sweeps

	if dropped := d.ExpireIdle(0); dropped != nil {
		t.Fatalf("disabled sweep dropped %v", dropped)
	}
	// Sweep 1: both floors newly observed — nothing idle yet.
	if dropped := d.ExpireIdle(2); len(dropped) != 0 {
		t.Fatalf("first sweep dropped %v", dropped)
	}
	d.Mark(stx(2, 2)) // client 2 moves between sweeps
	// Sweep 2: client 1 idle×1, client 2 reset.
	if dropped := d.ExpireIdle(2); len(dropped) != 0 {
		t.Fatalf("second sweep dropped %v", dropped)
	}
	// Sweep 3: client 1 hits the horizon; client 2 idle×1 only.
	dropped := d.ExpireIdle(2)
	if len(dropped) != 1 || dropped[0] != 1 {
		t.Fatalf("third sweep dropped %v, want [1]", dropped)
	}
	if d.Clients() != 1 {
		t.Fatalf("%d sessions tracked, want 1", d.Clients())
	}
	// The dropped session's history is gone: its old nonce admits as
	// new (bounded-window contract), while client 2's floor survives.
	if got := d.Admit(stx(1, 1)); got != AdmitNew {
		t.Fatalf("expired session nonce: got %v, want new", got)
	}
	if got := d.Admit(stx(2, 1)); got != AdmitResolved {
		t.Fatalf("live session nonce: got %v, want resolved", got)
	}
	// Client 2 stalls from here: idle×1 at sweep 3 (it moved before
	// sweep 2, so its clock restarted), horizon at sweep 4.
	dropped = d.ExpireIdle(2)
	if len(dropped) != 1 || dropped[0] != 2 || d.Clients() != 0 {
		t.Fatalf("fourth sweep dropped %v (sessions=%d), want [2] and none tracked", dropped, d.Clients())
	}
}

// TestDedupExpireIdleSnapshotIdentity: the sweep state survives a
// snapshot round-trip — a restored dedup evolves bit-identically to
// the original through further marks and sweeps.
func TestDedupExpireIdleSnapshotIdentity(t *testing.T) {
	a := NewDedup(64, 16)
	a.Mark(stx(1, 1))
	a.Mark(stx(2, 1))
	a.ExpireIdle(3)   // both observed
	a.Mark(stx(2, 2)) // client 2 active
	a.ExpireIdle(3)   // client 1 idle×1 — mid-horizon state
	b := NewDedup(64, 16)
	b.Restore(a.Sessions(), a.Legacy())

	evolve := func(d *Dedup) {
		d.Mark(stx(2, 3))
		d.ExpireIdle(3) // client 1 idle×2
		d.ExpireIdle(3) // client 1 expires exactly now
	}
	evolve(a)
	evolve(b)
	if a.Clients() != 1 || b.Clients() != 1 {
		t.Fatalf("post-evolution sessions: a=%d b=%d, want 1,1", a.Clients(), b.Clients())
	}
	ea, eb := types.NewEncoder(), types.NewEncoder()
	a.EncodeState(ea)
	b.EncodeState(eb)
	if string(ea.Sum()) != string(eb.Sum()) {
		t.Fatal("restored dedup diverged from original after identical evolution")
	}
}

// TestDedupEncodeDecodeState: the WAL sidecar codec is a full-fidelity
// round trip, including mid-epoch sweep state where lastFloor lags the
// floor.
func TestDedupEncodeDecodeState(t *testing.T) {
	a := NewDedup(64, 8)
	a.Mark(stx(1, 1))
	a.ExpireIdle(4)   // lastFloor pinned at 1
	a.Mark(stx(1, 2)) // floor moves past lastFloor (mid-epoch shape)
	a.Mark(stx(3, 7)) // out-of-order window content
	for i := 0; i < 12; i++ {
		a.Mark(ltx(fmt.Sprintf("legacy-%d", i))) // wraps the 8-cap ring
	}
	e := types.NewEncoder()
	a.EncodeState(e)

	b := NewDedup(64, 8)
	if err := b.DecodeState(types.NewDecoder(e.Sum())); err != nil {
		t.Fatal(err)
	}
	e2 := types.NewEncoder()
	b.EncodeState(e2)
	if string(e.Sum()) != string(e2.Sum()) {
		t.Fatal("EncodeState/DecodeState round trip not byte-identical")
	}
	// And the decoded copy behaves identically on the next sweep (the
	// lastFloor fidelity the snapshot form cannot carry).
	da := a.ExpireIdle(4)
	db := b.ExpireIdle(4)
	if len(da) != len(db) {
		t.Fatalf("sweep divergence after round trip: %v vs %v", da, db)
	}
}

// TestDedupExpireIdleSparesActiveHoledSession: a session whose floor
// is pinned by a permanently lost nonce but which keeps committing
// out-of-order nonces above the hole is alive — expiring it would
// re-admit its committed nonces as new.
func TestDedupExpireIdleSparesActiveHoledSession(t *testing.T) {
	d := NewDedup(64, 0)
	// Nonce 1 never commits; 2..k do — floor stays 0 forever.
	next := uint64(2)
	for sweep := 0; sweep < 6; sweep++ {
		d.Mark(stx(1, next))
		next++
		if dropped := d.ExpireIdle(2); len(dropped) != 0 {
			t.Fatalf("sweep %d expired the actively committing session (dropped %v)", sweep, dropped)
		}
	}
	if got := d.Admit(stx(1, 2)); got != AdmitResolved {
		t.Fatalf("committed nonce above the hole: got %v, want resolved", got)
	}
	// Once the marks stop, the idle clock finally runs.
	d.ExpireIdle(2)
	dropped := d.ExpireIdle(2)
	if len(dropped) != 1 || dropped[0] != 1 {
		t.Fatalf("quiet holed session not expired: dropped %v", dropped)
	}
}

// TestScratchMatchesDedup is the scratch view's whole contract: after
// any sequence of marks, Scratch.Resolved answers exactly as a real
// Dedup that took the same marks — floor advance, forced eviction and
// legacy-ring eviction included — and the Dedup underneath is untouched.
func TestScratchMatchesDedup(t *testing.T) {
	const window, legacyCap = 64, 4
	encode := func(d *Dedup) string {
		e := types.NewEncoder()
		d.EncodeState(e)
		return string(e.Sum())
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// The universe is small enough that sessions collide, nonces jump
		// past the window, and the legacy ring wraps several times.
		draw := func() *types.Transaction {
			if rng.Intn(3) == 0 {
				return ltx(fmt.Sprintf("legacy-%d", rng.Intn(12)))
			}
			nonce := uint64(1 + rng.Intn(40))
			if rng.Intn(8) == 0 {
				nonce += uint64(rng.Intn(400))
			}
			return stx(uint64(1+rng.Intn(3)), nonce)
		}
		base, mirror := NewDedup(window, legacyCap), NewDedup(window, legacyCap)
		for i := 0; i < 60; i++ {
			tx := draw()
			base.Mark(tx)
			mirror.Mark(tx)
		}
		frozen := encode(base)
		view := base.Scratch()
		for i := 0; i < 200; i++ {
			tx := draw()
			view.Mark(tx)
			mirror.Mark(tx)
			for j := 0; j < 20; j++ {
				probe := draw()
				if got, want := view.Resolved(probe), mirror.Resolved(probe); got != want {
					t.Fatalf("seed %d step %d: Resolved(client %d nonce %d %q) = %v, a Dedup with the same marks says %v",
						seed, i, probe.Client, probe.Nonce, probe.Args[0], got, want)
				}
			}
		}
		if encode(base) != frozen {
			t.Fatalf("seed %d: marking the view changed the Dedup", seed)
		}
	}
}
