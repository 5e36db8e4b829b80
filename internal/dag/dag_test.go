package dag_test

import (
	"errors"
	"testing"

	"thunderbolt/internal/dag"
	"thunderbolt/internal/dag/dagtest"
	"thunderbolt/internal/types"
)

func TestAddAndLookup(t *testing.T) {
	c := dagtest.NewCommittee(4)
	b := dagtest.NewBuilder(c, 0)
	r1 := b.NextRound(nil, nil)

	v, ok := b.Store.Get(1, 2)
	if !ok || v != r1[2] {
		t.Fatal("Get(1,2) failed")
	}
	if _, ok := b.Store.ByBlock(r1[0].Block.Digest()); !ok {
		t.Fatal("ByBlock lookup failed")
	}
	if _, ok := b.Store.ByCert(r1[0].Cert.Digest()); !ok {
		t.Fatal("ByCert lookup failed")
	}
	if b.Store.CountAtRound(1) != 4 || b.Store.CountAtRound(2) != 0 {
		t.Fatal("round counts wrong")
	}
	// Idempotent re-add.
	if err := b.Store.Add(r1[0]); err != nil {
		t.Fatalf("idempotent add failed: %v", err)
	}
}

func TestAddRejectsEquivocation(t *testing.T) {
	c := dagtest.NewCommittee(4)
	b := dagtest.NewBuilder(c, 0)
	b.NextRound(nil, nil)
	// A second, different block for slot (1, 0).
	dup := c.Vertex(&types.Block{Epoch: 0, Round: 1, Proposer: 0, Kind: types.NormalBlock, ProposedUnixNano: 999})
	if err := b.Store.Add(dup); err == nil {
		t.Fatal("equivocating block accepted")
	}
}

func TestAddRejectsWrongEpochAndBadCert(t *testing.T) {
	c := dagtest.NewCommittee(4)
	st := dag.NewStore(1, 4)
	blk := &types.Block{Epoch: 0, Round: 1, Proposer: 0, Kind: types.NormalBlock}
	if err := st.Add(c.Vertex(blk)); err == nil {
		t.Fatal("wrong-epoch vertex accepted")
	}
	// Certificate covering a different block.
	blk2 := &types.Block{Epoch: 1, Round: 1, Proposer: 0, Kind: types.NormalBlock}
	other := &types.Block{Epoch: 1, Round: 1, Proposer: 0, Kind: types.SkipBlock}
	v := &dag.Vertex{Block: blk2, Cert: c.Certify(other)}
	if err := st.Add(v); err == nil {
		t.Fatal("mismatched certificate accepted")
	}
	// Valid signatures over the right block, filed under another slot:
	// the signatures cover the block digest, not the slot fields beside
	// it, so only this check keeps one block from a second identity.
	for _, relabel := range []func(*types.Certificate){
		func(c *types.Certificate) { c.Round = 2 },
		func(c *types.Certificate) { c.Proposer = 1 },
		func(c *types.Certificate) { c.Epoch = 2 },
	} {
		cert := *c.Certify(blk2)
		relabel(&cert)
		if err := st.Add(&dag.Vertex{Block: blk2, Cert: &cert}); err == nil {
			t.Fatalf("certificate for slot (e%d r%d p%d) accepted for a block of (e1 r1 p0)", cert.Epoch, cert.Round, cert.Proposer)
		}
	}
	if err := st.Add(c.Vertex(blk2)); err != nil {
		t.Fatalf("matching certificate rejected: %v", err)
	}
}

func TestAddRequiresParents(t *testing.T) {
	c := dagtest.NewCommittee(4)
	st := dag.NewStore(0, 4)
	orphan := c.Vertex(&types.Block{
		Epoch: 0, Round: 2, Proposer: 0, Kind: types.NormalBlock,
		Parents: nowhere(3),
	})
	err := st.Add(orphan)
	var mpe *dag.MissingParentError
	if !errors.As(err, &mpe) {
		t.Fatalf("want MissingParentError, got %v", err)
	}
}

// nowhere returns k parent digests no store holds.
func nowhere(k int) []types.Digest {
	var ds []types.Digest
	for i := 0; i < k; i++ {
		ds = append(ds, types.HashBytes([]byte{'n', byte(i)}))
	}
	return ds
}

// TestAddRejectsThinParents: above the base a vertex must name a quorum
// (2f+1) of distinct previous-round parents — the intersection the
// commit rule's safety argument needs — however it was certified. Too
// few, or a quorum padded with one parent named twice, is refused, and
// the slot stays open for a well-formed block.
func TestAddRejectsThinParents(t *testing.T) {
	c := dagtest.NewCommittee(4)
	b := dagtest.NewBuilder(c, 0)
	r1 := b.NextRound(nil, nil)
	for name, parents := range map[string][]types.Digest{
		"two parents":       {r1[0].Cert.Digest(), r1[1].Cert.Digest()},
		"one parent thrice": {r1[0].Cert.Digest(), r1[0].Cert.Digest(), r1[0].Cert.Digest()},
	} {
		thin := c.Vertex(&types.Block{Epoch: 0, Round: 2, Proposer: 0, Kind: types.NormalBlock, Parents: parents})
		err := b.Store.Add(thin)
		var mpe *dag.MissingParentError
		if err == nil || errors.As(err, &mpe) {
			t.Fatalf("%s: got %v, want a rejection", name, err)
		}
		if _, ok := b.Store.Get(2, 0); ok {
			t.Fatalf("%s: rejected vertex filled its slot", name)
		}
	}
	good := c.Vertex(&types.Block{Epoch: 0, Round: 2, Proposer: 0, Kind: types.NormalBlock,
		Parents: []types.Digest{r1[0].Cert.Digest(), r1[1].Cert.Digest(), r1[2].Cert.Digest()}})
	if err := b.Store.Add(good); err != nil {
		t.Fatalf("well-parented vertex rejected: %v", err)
	}
}

// TestAddRejectsParentFromAnotherRound pins the parent rule a round
// pull relies on: a certified vertex of round r may name only round-(r-1)
// certificates. A replica holding an older parent refuses the vertex; one
// that lacks it keeps the vertex an orphan, so neither inserts it.
func TestAddRejectsParentFromAnotherRound(t *testing.T) {
	c := dagtest.NewCommittee(4)
	b := dagtest.NewBuilder(c, 0)
	r1 := b.NextRound(nil, nil)
	r2 := b.NextRound(nil, nil)
	parents := []types.Digest{r2[0].Cert.Digest(), r2[1].Cert.Digest(), r2[2].Cert.Digest(), r1[3].Cert.Digest()}
	skewed := c.Vertex(&types.Block{Epoch: 0, Round: 3, Proposer: 0, Kind: types.NormalBlock, Parents: parents})
	err := b.Store.Add(skewed)
	var mpe *dag.MissingParentError
	if err == nil || errors.As(err, &mpe) {
		t.Fatalf("round-3 vertex with a round-1 parent: got %v, want a rejection", err)
	}
	if _, ok := b.Store.Get(3, 0); ok {
		t.Fatal("rejected vertex filled its slot")
	}
	// A store re-entered at round 2 never held the round-1 parent: the
	// vertex stays an orphan there.
	st := dag.NewStoreAt(0, 4, 2)
	for _, v := range r2 {
		if err := st.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Add(skewed); !errors.As(err, &mpe) {
		t.Fatalf("store without the old parent: got %v, want MissingParentError", err)
	}
	// The slot stays open for a well-formed block.
	good := c.Vertex(&types.Block{Epoch: 0, Round: 3, Proposer: 0, Kind: types.NormalBlock, Parents: parents[:3]})
	if err := b.Store.Add(good); err != nil {
		t.Fatalf("well-parented vertex rejected: %v", err)
	}
}

func TestStoreBaseEntry(t *testing.T) {
	c := dagtest.NewCommittee(4)
	st := dag.NewStoreAt(0, 4, 101)
	if st.Base() != 101 || st.Floor() != 101 {
		t.Fatalf("base=%d floor=%d, want 101/101", st.Base(), st.Floor())
	}
	// Below the base is rejected outright: that history lives only
	// inside the installed snapshot.
	low := c.Vertex(&types.Block{Epoch: 0, Round: 100, Proposer: 0, Kind: types.NormalBlock})
	if err := st.Add(low); err == nil {
		t.Fatal("vertex below the base admitted")
	}
	// At the base, parents are waived even though the blocks name
	// certificates the installer never held.
	var entries []types.Digest
	for p := types.ReplicaID(0); p < 3; p++ {
		entry := c.Vertex(&types.Block{
			Epoch: 0, Round: 101, Proposer: p, Kind: types.NormalBlock,
			Parents: []types.Digest{types.HashBytes([]byte("pruned-cert"))},
		})
		if err := st.Add(entry); err != nil {
			t.Fatalf("base-round vertex rejected: %v", err)
		}
		entries = append(entries, entry.Cert.Digest())
	}
	// Above the base the parent requirement is back in force.
	orphan := c.Vertex(&types.Block{
		Epoch: 0, Round: 102, Proposer: 1, Kind: types.NormalBlock,
		Parents: nowhere(3),
	})
	var mpe *dag.MissingParentError
	if err := st.Add(orphan); !errors.As(err, &mpe) {
		t.Fatalf("want MissingParentError above base, got %v", err)
	}
	child := c.Vertex(&types.Block{
		Epoch: 0, Round: 102, Proposer: 1, Kind: types.NormalBlock,
		Parents: entries,
	})
	if err := st.Add(child); err != nil {
		t.Fatalf("well-parented vertex above base rejected: %v", err)
	}
}

func TestSupportFor(t *testing.T) {
	c := dagtest.NewCommittee(4)
	b := dagtest.NewBuilder(c, 0)
	r1 := b.NextRound(nil, nil)
	// Round 2 from only 3 proposers; all reference all of round 1.
	b.NextRound([]types.ReplicaID{0, 1, 2}, nil)
	if got := b.Store.SupportFor(r1[3]); got != 3 {
		t.Fatalf("support=%d want 3", got)
	}
}

func TestCausalHistoryComplete(t *testing.T) {
	c := dagtest.NewCommittee(4)
	b := dagtest.NewBuilder(c, 0)
	b.NextRound(nil, nil)
	b.NextRound(nil, nil)
	r3 := b.NextRound(nil, nil)
	hist := b.Store.CausalHistory(r3[0])
	// Full connectivity: history of a round-3 vertex is all 8 earlier vertices.
	if len(hist) != 8 {
		t.Fatalf("history size %d want 8", len(hist))
	}
}

func TestLinearizeDeterministicOrder(t *testing.T) {
	c := dagtest.NewCommittee(4)
	b := dagtest.NewBuilder(c, 0)
	b.NextRound(nil, nil)
	b.NextRound(nil, nil)
	r3 := b.NextRound(nil, nil)

	got := b.Store.Linearize(r3[2], nil)
	if len(got) != 9 {
		t.Fatalf("linearized %d vertices, want 9", len(got))
	}
	for i := 1; i < len(got); i++ {
		a, bb := got[i-1], got[i]
		if a.Round() > bb.Round() || (a.Round() == bb.Round() && a.Proposer() >= bb.Proposer()) {
			t.Fatalf("order violated at %d: (%d,%d) then (%d,%d)",
				i, a.Round(), a.Proposer(), bb.Round(), bb.Proposer())
		}
	}
	// Skip filter removes vertices.
	skipped := b.Store.Linearize(r3[2], func(d types.Digest) bool {
		return d == got[0].Cert.Digest()
	})
	if len(skipped) != 8 {
		t.Fatalf("skip filter ignored: %d", len(skipped))
	}
}

// TestLinearizeAllocs: a linearization allocates only its result. The
// walk's seen set, stack and output live in the store's scratch, and
// the sort takes no closure-boxed swapper.
func TestLinearizeAllocs(t *testing.T) {
	c := dagtest.NewCommittee(4)
	b := dagtest.NewBuilder(c, 0)
	for r := 0; r < 6; r++ {
		b.NextRound(nil, nil)
	}
	top := b.NextRound(nil, nil)
	b.Store.Linearize(top[1], nil) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		if got := b.Store.Linearize(top[1], nil); len(got) != 25 {
			t.Fatalf("linearized %d vertices, want 25", len(got))
		}
	})
	if allocs > 1 {
		t.Fatalf("Linearize made %.1f allocations per call, want at most 1 (the result)", allocs)
	}
}

func TestCertsAtRoundSorted(t *testing.T) {
	c := dagtest.NewCommittee(4)
	b := dagtest.NewBuilder(c, 0)
	r1 := b.NextRound(nil, nil)
	certs := b.Store.CertsAtRound(1)
	if len(certs) != 4 {
		t.Fatalf("%d certs", len(certs))
	}
	for i, p := range []types.ReplicaID{0, 1, 2, 3} {
		if certs[i] != r1[p].Cert.Digest() {
			t.Fatalf("cert %d not in proposer order", i)
		}
	}
}

func TestHighestRound(t *testing.T) {
	c := dagtest.NewCommittee(4)
	b := dagtest.NewBuilder(c, 0)
	if b.Store.HighestRound() != 0 {
		t.Fatal("empty store should report round 0")
	}
	b.NextRound(nil, nil)
	b.NextRound(nil, nil)
	if b.Store.HighestRound() != 2 {
		t.Fatalf("highest=%d want 2", b.Store.HighestRound())
	}
}

func TestPruneBelowRemovesRoundsAndRejectsLateArrivals(t *testing.T) {
	c := dagtest.NewCommittee(4)
	b := dagtest.NewBuilder(c, 0)
	var keep *dag.Vertex
	for r := 0; r < 10; r++ {
		vs := b.NextRound(nil, nil)
		if r == 2 {
			keep = vs[1] // round 3, pruned below floor 6
		}
	}
	if got := b.Store.HighestRound(); got != 10 {
		t.Fatalf("highest round %d, want 10", got)
	}
	removed := b.Store.PruneBelow(6)
	if len(removed) != 5*4 {
		t.Fatalf("pruned %d vertices, want 20", len(removed))
	}
	if b.Store.Floor() != 6 {
		t.Fatalf("floor %d, want 6", b.Store.Floor())
	}
	if b.Store.Len() != 5*4 {
		t.Fatalf("retained %d vertices, want 20", b.Store.Len())
	}
	if _, ok := b.Store.ByCert(keep.Cert.Digest()); ok {
		t.Fatal("pruned vertex still reachable by certificate")
	}
	if _, ok := b.Store.ByBlock(keep.Block.Digest()); ok {
		t.Fatal("pruned vertex still reachable by block digest")
	}
	if b.Store.CountAtRound(3) != 0 {
		t.Fatal("pruned round still counts vertices")
	}
	// Highest round is unaffected by pruning.
	if got := b.Store.HighestRound(); got != 10 {
		t.Fatalf("highest round %d after prune, want 10", got)
	}
	// Re-adding a pruned vertex must be rejected, and the floor is
	// monotone: a lower prune call is a no-op.
	if err := b.Store.Add(keep); err == nil {
		t.Fatal("vertex below the floor re-admitted")
	}
	if removed := b.Store.PruneBelow(4); removed != nil {
		t.Fatalf("floor moved backwards: pruned %d", len(removed))
	}
	// Vertices at the floor and above still resolve.
	if _, ok := b.Store.Get(6, 0); !ok {
		t.Fatal("vertex at the floor lost")
	}
}

func TestPruneBelowClampsToFrontier(t *testing.T) {
	c := dagtest.NewCommittee(4)
	b := dagtest.NewBuilder(c, 0)
	for r := 0; r < 3; r++ {
		b.NextRound(nil, nil)
	}
	// A floor past the frontier prunes everything present but must
	// not advance beyond highest+1 (which would reject the next
	// round's legitimate vertices).
	removed := b.Store.PruneBelow(100)
	if len(removed) != 3*4 {
		t.Fatalf("pruned %d, want 12", len(removed))
	}
	if b.Store.Floor() != 4 {
		t.Fatalf("floor %d, want clamp at 4", b.Store.Floor())
	}
}
