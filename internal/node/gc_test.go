package node

import (
	"testing"

	"thunderbolt/internal/dag/dagtest"
	"thunderbolt/internal/tusk"
	"thunderbolt/internal/types"
)

// TestPruneRescuesOnlyAbandonedOwnBlocks: when the decoded floor passes
// this replica's own blocks, one that can no longer commit has its
// transactions requeued and its preplay writes taken out of the
// own-writes overlay, while one already ordered — its wave possibly
// still queued for execution — keeps both. Requeueing the ordered one
// would propose its transactions twice; keeping the abandoned one's
// writes would make every later preplay of the same keys, the requeued
// transactions' first, fail validation.
func TestPruneRescuesOnlyAbandonedOwnBlocks(t *testing.T) {
	committee := dagtest.NewCommittee(4)
	n, _ := voteTestNode(t, committee, 0)
	b := dagtest.NewBuilder(committee, 0)
	ordered, abandoned := sessTx(9, 1, 0), sessTx(9, 2, 0)
	r1 := b.NextRound(nil, func(blk *types.Block) {
		if blk.Proposer == 0 {
			blk.SingleTxs = []*types.Transaction{ordered}
		}
	})
	for range 4 {
		b.NextRound(nil, nil)
	}
	n.dagStore = b.Store
	n.committer = tusk.NewCommitter(b.Store, 4)
	n.committer.Advance()
	own := r1[0]
	if !n.committer.Committed(own.Cert.Digest()) {
		t.Fatal("fixture: the round-1 own vertex is not ordered")
	}
	// Round 2's own block never made it into the DAG: the replica's
	// proposal there is a block nobody certified.
	lost := &types.Block{Epoch: 0, Round: 2, Proposer: 0, Kind: types.NormalBlock,
		SingleTxs: []*types.Transaction{abandoned}, ProposedUnixNano: 7}
	for k, blk := range map[types.Key]*types.Block{"k1": own.Block, "k2": lost} {
		n.trackPendingBlock(blk)
		n.ownPending[blk.Round] = blk.Digest()
		n.ownBlocks = append(n.ownBlocks, ownBlock{round: blk.Round, writes: []types.RWRecord{{Key: k, Value: []byte{1}}}})
		n.ownWrites[k] = []byte{1}
	}

	n.pruneBelow(3)

	if len(n.txQueue) != 1 || n.txQueue[0] != abandoned {
		t.Fatalf("requeued %d transactions, want only the abandoned block's", len(n.txQueue))
	}
	if len(n.ownBlocks) != 1 || n.ownBlocks[0].round != 1 {
		t.Fatalf("own-writes overlay holds rounds %v, want only the ordered block's round 1", n.ownBlocks)
	}
	if _, ok := n.ownWrites["k2"]; ok {
		t.Fatal("the abandoned block's write survived in the overlay")
	}
	if _, ok := n.ownWrites["k1"]; !ok {
		t.Fatal("the ordered block's write left the overlay before its wave ran")
	}
}
