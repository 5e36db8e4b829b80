package node

import (
	"fmt"

	"thunderbolt/internal/storage"
	"thunderbolt/internal/types"
)

// Restart-from-disk recovery (the durable storage backend's node
// side). The store alone is not enough to restart a replica: the commit
// path's dedup state (per-client nonce floors and windows) must sit at
// exactly the store's committed position, or in-epoch catch-up would
// re-apply — or wrongly skip — blocks; and the votes it signed must
// survive, or it could be induced to sign a second digest for a slot.
// The durable backend persists a sidecar in lockstep with the state:
// every apply carries a note of what the node does right after it
// (resolved identities, epoch transitions, snapshot-jump restores,
// journaled votes), and every checkpoint a meta blob with the full
// dedup state, commit counter, epoch and journaled votes as of the
// records applied. Reopening replays meta and notes alongside the
// store: the replica resumes in its last durable epoch with a
// bit-identical dedup and its votes back in the slot table; waves
// re-derived below its commit position validate as duplicates, and a
// lost group-commit suffix re-applies through in-epoch catch-up.
//
// Note discipline (what makes checkpoints cut at arbitrary records
// consistent): a record's note describes mutations the node performs
// AFTER the corresponding ApplyNote returns, and the backend cuts
// checkpoints at the START of an apply — so a checkpoint's meta
// always reflects exactly the mutations of the records it covers.
// The snapshot-jump restore (kind 3) is the one deliberate exception:
// it is absolute state, so replaying it over a meta that already
// contains it is idempotent.

// WAL note kinds.
const (
	walNoteMarks      = 1 // resolved (client, nonce) identities of one commit
	walNoteTransition = 2 // epoch transition
	walNoteRestore    = 3 // snapshot epoch-jump: absolute dedup/commit state
	walNoteVote       = 4 // first vote on a (round, proposer) slot
)

// applyCommit applies one commit-path write batch. On a durable
// backend the note rides the same WAL record; on the in-memory
// backend it is dropped (nothing to recover).
func (n *Node) applyCommit(writes []types.RWRecord, note []byte) {
	if n.durable != nil {
		n.cfg.Store.ApplyNote(writes, note)
		return
	}
	n.cfg.Store.Apply(writes)
}

// noteOnly persists a bookkeeping note with no writes (deterministic
// failure marks, epoch transitions). A no-op without a durable
// backend, so memory-backed replicas keep their exact historical
// sequence trajectory.
func (n *Node) noteOnly(note []byte) {
	if n.durable != nil && note != nil {
		n.cfg.Store.ApplyNote(nil, note)
	}
}

// markNote encodes a walNoteMarks payload: the (client, nonce)
// identities resolved by the commit being applied, committed first,
// deterministic failures second. The commit path resolves only
// sessioned transactions, so the pair is the whole identity.
type markNote struct {
	committed []*types.Transaction
	failed    []*types.Transaction
}

// newMarkNote returns the node's one collector, emptied, when the
// backend is durable, nil otherwise (all methods tolerate the nil
// receiver, so call sites stay unconditional).
func (n *Node) newMarkNote() *markNote {
	if n.durable == nil {
		return nil
	}
	m := &n.marks
	clear(m.committed)
	clear(m.failed)
	m.committed, m.failed = m.committed[:0], m.failed[:0]
	return m
}

func (m *markNote) commit(tx *types.Transaction) {
	if m == nil {
		return
	}
	m.committed = append(m.committed, tx)
}

func (m *markNote) fail(tx *types.Transaction) {
	if m == nil {
		return
	}
	m.failed = append(m.failed, tx)
}

// bytes renders the note, or nil when empty/disabled.
func (m *markNote) bytes() []byte {
	if m == nil || (len(m.committed) == 0 && len(m.failed) == 0) {
		return nil
	}
	e := types.NewEncoder()
	e.U8(walNoteMarks)
	for _, txs := range [][]*types.Transaction{m.committed, m.failed} {
		e.U32(uint32(len(txs)))
		for _, tx := range txs {
			e.U64(tx.Client)
			e.U64(tx.Nonce)
		}
	}
	return e.Sum()
}

// voteNote encodes a walNoteVote payload: the slot this replica is
// about to sign and the digest it signs. Journaled before the slot's
// vote leaves the replica, it closes the crash-window equivocation
// hazard: a replica that voted, crashed and restarted without it could
// be induced into signing a conflicting digest for the slot — and two
// certificates for one slot let commit sequences diverge. Built even
// when the backend drops it (noteOnly filters): once per slot.
func voteNote(epoch types.Epoch, r types.Round, p types.ReplicaID, d types.Digest) []byte {
	e := types.NewEncoder()
	e.U8(walNoteVote)
	e.U64(uint64(epoch))
	e.U64(uint64(r))
	e.U32(uint32(p))
	e.Digest(d)
	return e.Sum()
}

// transitionNote encodes a walNoteTransition payload.
func transitionNote(newEpoch types.Epoch) []byte {
	e := types.NewEncoder()
	e.U8(walNoteTransition)
	e.U64(uint64(newEpoch))
	return e.Sum()
}

// restoreNote encodes a walNoteRestore payload from the node's
// current (just-restored) dedup state.
func (n *Node) restoreNote(epoch types.Epoch, commits uint64) []byte {
	if n.durable == nil {
		return nil
	}
	e := types.NewEncoder()
	e.U8(walNoteRestore)
	e.U64(uint64(epoch))
	e.U64(commits)
	n.dedup.EncodeState(e)
	return e.Sum()
}

// walMeta is the checkpoint sidecar: the nonce window it was written
// under (the same committee contract the snapshot-install path binds —
// a replica restarted with a different window would misparse the
// bitmaps and silently diverge from the committee), then epoch, commit
// counter, full dedup state, and the current epoch's journaled votes,
// in (round, proposer) order, as of the records already applied. The
// votes must ride the meta, not just their notes: a checkpoint truncates
// earlier notes, and losing pre-checkpoint vote records would reopen
// the equivocation window they exist to close. Runs synchronously on
// the applying goroutine (the event loop), so the reads are safe.
func (n *Node) walMeta() []byte {
	e := types.NewEncoder()
	e.U32(uint32(n.dedup.Window()))
	e.U64(uint64(n.epoch))
	e.U64(n.Stats().CommittedTxs)
	n.dedup.EncodeState(e)
	votes := n.table.journaled()
	e.U32(uint32(len(votes)))
	for _, v := range votes {
		e.U64(uint64(v.Round))
		e.U32(uint32(v.Proposer))
		e.Digest(v.Digest)
	}
	return e.Sum()
}

// recoverFromBackend rebuilds commit-path state from the durable
// backend's sidecar: checkpoint meta first, then the replayed record
// notes in apply order. It sets the epoch to resume in, and journaled
// votes of that epoch go straight into the slot table, re-arming the
// anti-equivocation guard: a restarted replica must refuse to sign a
// conflicting digest for any slot it already voted on.
func (n *Node) recoverFromBackend(rec storage.Recoverable) error {
	epoch := types.Epoch(0)
	commits := uint64(0)
	if meta := rec.RecoveredMeta(); len(meta) > 0 {
		d := types.NewDecoder(meta)
		if window := int(d.U32()); window != n.dedup.Window() {
			return fmt.Errorf(
				"node: durable state was written under nonce window %d, node configured %d — recovery under a different window would diverge from the committee",
				window, n.dedup.Window())
		}
		epoch = types.Epoch(d.U64())
		commits = d.U64()
		if err := n.dedup.DecodeState(d); err != nil {
			return fmt.Errorf("node: corrupt durable meta: %w", err)
		}
		votes := d.U32()
		for i := uint32(0); i < votes && d.Err() == nil; i++ {
			n.recoverVote(types.Round(d.U64()), types.ReplicaID(d.U32()), d.Digest())
		}
		if err := d.Finish(); err != nil {
			return fmt.Errorf("node: corrupt durable meta: %w", err)
		}
	}
	for _, note := range rec.RecoveredNotes() {
		d := types.NewDecoder(note)
		switch kind := d.U8(); kind {
		case walNoteMarks:
			for pass := 0; pass < 2; pass++ {
				cnt := d.U32()
				for i := uint32(0); i < cnt && d.Err() == nil; i++ {
					n.dedup.MarkSession(d.U64(), d.U64())
					if pass == 0 {
						commits++
					}
				}
			}
		case walNoteTransition:
			// Adopt the epoch. Votes belonged to the discarded epoch's
			// DAG; drop them.
			epoch = types.Epoch(d.U64())
			n.table.reset(false, 0)
		case walNoteRestore:
			// Mirror the live install: a same-epoch (mid-epoch) install
			// keeps the votes — the slots are still this epoch's — while
			// a cross-epoch jump discards them with the old DAG.
			re := types.Epoch(d.U64())
			if re != epoch {
				n.table.reset(false, 0)
			}
			epoch = re
			commits = d.U64()
			if err := n.dedup.DecodeState(d); err != nil {
				return fmt.Errorf("node: corrupt durable restore note: %w", err)
			}
		case walNoteVote:
			// Re-arm the anti-equivocation guard: only votes cast in the
			// epoch this replica resumes in matter (earlier epochs' DAGs
			// are gone; the transition/restore cases above clear them).
			ve := types.Epoch(d.U64())
			r, p, dig := types.Round(d.U64()), types.ReplicaID(d.U32()), d.Digest()
			if ve == epoch {
				n.recoverVote(r, p, dig)
			}
		default:
			return fmt.Errorf("node: unknown durable note kind %d", kind)
		}
		if err := d.Err(); err != nil {
			return fmt.Errorf("node: corrupt durable note: %w", err)
		}
	}
	rec.ReleaseRecovered() // sidecar consumed; free the buffers
	n.clogMu.Lock()
	n.clogStart = commits
	n.clogMu.Unlock()
	// Absolute sets: the restarted replica resumes its committed
	// position from the sidecar instead of re-counting from zero.
	n.nm.committedTxs.Store(commits)
	n.nm.epoch.Set(int64(epoch))
	n.epoch = epoch
	return nil
}

// recoverVote records a journaled vote read back from the sidecar.
func (n *Node) recoverVote(r types.Round, p types.ReplicaID, d types.Digest) {
	if int(p) < n.n {
		n.table.slot(voteKey{round: r, proposer: p}).vote = d
	}
}
