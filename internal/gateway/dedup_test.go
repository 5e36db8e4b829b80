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

// ltx builds a transaction without a (client, nonce) session.
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

// TestDedupDeterministicState pins the property everything else rests
// on: two replicas marking the same sequence hold byte-identical
// exported state, and a third restoring that export then marking the
// same continuation stays identical too (the snapshot epoch-jump
// path).
func TestDedupDeterministicState(t *testing.T) {
	a, b := NewDedup(128, 0), NewDedup(128, 0)
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
		return nil
	}
	if err := sameState(a, b); err != nil {
		t.Fatalf("identical histories, divergent state: %v", err)
	}
	c := NewDedup(128, 0)
	c.Restore(a.Sessions())
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
// clients × window no matter how many transactions resolve, and a
// transaction without a session adds nothing.
func TestDedupBounded(t *testing.T) {
	d := NewDedup(64, 0)
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
	if got := len(d.Sessions()[0].Bits); got != 1 {
		t.Fatalf("bitmap words %d, want 1", got)
	}
}

// TestDedupEncodeDecodeState: the WAL sidecar codec is a full-fidelity
// round trip.
func TestDedupEncodeDecodeState(t *testing.T) {
	a := NewDedup(64, 0)
	a.Mark(stx(1, 1))
	a.Mark(stx(1, 2))
	a.Mark(stx(3, 7)) // out-of-order window content
	e := types.NewEncoder()
	a.EncodeState(e)

	b := NewDedup(64, 0)
	if err := b.DecodeState(types.NewDecoder(e.Sum())); err != nil {
		t.Fatal(err)
	}
	e2 := types.NewEncoder()
	b.EncodeState(e2)
	if string(e.Sum()) != string(e2.Sum()) {
		t.Fatal("EncodeState/DecodeState round trip not byte-identical")
	}
	if !b.Resolved(stx(3, 7)) || b.Resolved(stx(3, 6)) || !b.Resolved(stx(1, 2)) {
		t.Fatal("decoded copy resolves differently from the original")
	}
}

// TestScratchMatchesDedup is the scratch view's whole contract: after
// any sequence of marks, Scratch.Resolved answers exactly as a real
// Dedup that took the same marks — floor advance, forced eviction and
// nonce-less transactions included — and the Dedup underneath is
// untouched.
func TestScratchMatchesDedup(t *testing.T) {
	const window = 64
	encode := func(d *Dedup) string {
		e := types.NewEncoder()
		d.EncodeState(e)
		return string(e.Sum())
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// The universe is small enough that sessions collide and nonces
		// jump past the window; a third of the draws carry no session.
		draw := func() *types.Transaction {
			if rng.Intn(3) == 0 {
				return ltx(fmt.Sprintf("no-session-%d", rng.Intn(12)))
			}
			nonce := uint64(1 + rng.Intn(40))
			if rng.Intn(8) == 0 {
				nonce += uint64(rng.Intn(400))
			}
			return stx(uint64(1+rng.Intn(3)), nonce)
		}
		base, mirror := NewDedup(window, 0), NewDedup(window, 0)
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
