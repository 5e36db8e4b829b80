package node

import (
	"fmt"

	"thunderbolt/internal/storage"
	"thunderbolt/internal/types"
)

// Restart-from-disk recovery (the durable storage backend's node
// side). The store alone is not enough to restart a replica: the
// commit path's dedup state (per-client nonce floors and windows)
// must sit at exactly the same committed position as the store,
// or the node would re-apply — or wrongly skip — blocks during
// in-epoch catch-up. The durable backend therefore persists a sidecar
// in lockstep with the state:
//
//   - every commit-path apply carries a note describing the dedup
//     mutations the node performs right after it (resolved identities,
//     epoch transitions, snapshot-jump restores), and
//   - every checkpoint captures a meta blob with the full dedup
//     state, the commit counter, and the epoch as of the records
//     already applied.
//
// Reopening replays meta + notes alongside the store, after which the
// replica resumes in its last durable epoch with a bit-identical
// dedup — re-derived waves below its commit position validate as
// duplicates (no double application), and the lost group-commit
// suffix, if any, re-applies through normal in-epoch catch-up.
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

// newMarkNote returns a collector when the backend is durable, nil
// otherwise (all methods tolerate the nil receiver, so call sites
// stay unconditional).
func (n *Node) newMarkNote() *markNote {
	if n.durable == nil {
		return nil
	}
	return &markNote{}
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
// about to sign and the digest it signs. Journaled before the first
// vote per slot leaves the replica (handleBlock), it closes the
// crash-window equivocation hazard: without it, a replica that voted,
// crashed, and restarted had an empty voted map and could be induced
// into signing a conflicting digest for an already-voted slot — and
// two certificates for one slot let commit sequences diverge. Written
// even when the backend later drops it (noteOnly filters); the
// allocation only happens once per (round, proposer) slot.
func voteNote(epoch types.Epoch, k voteKey, d types.Digest) []byte {
	e := types.NewEncoder()
	e.U8(walNoteVote)
	e.U64(uint64(epoch))
	e.U64(uint64(k.round))
	e.U32(uint32(k.proposer))
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
// counter, full dedup state, and the current epoch's voted slots as of
// the records already applied. The votes must ride the meta, not just
// their notes: a checkpoint truncates earlier notes, and losing
// pre-checkpoint vote records would reopen the equivocation window
// they exist to close. Runs synchronously on the applying goroutine
// (the event loop), so the reads are safe.
func (n *Node) walMeta() []byte {
	e := types.NewEncoder()
	e.U32(uint32(n.dedup.Window()))
	e.U64(uint64(n.epoch))
	e.U64(n.Stats().CommittedTxs)
	n.dedup.EncodeState(e)
	e.U32(uint32(len(n.voted)))
	for k, d := range n.voted {
		e.U64(uint64(k.round))
		e.U32(uint32(k.proposer))
		e.Digest(d)
	}
	return e.Sum()
}

// recoverFromBackend rebuilds commit-path state from the durable
// backend's sidecar: checkpoint meta first, then the replayed record
// notes in apply order. Returns the epoch to resume in.
func (n *Node) recoverFromBackend(rec storage.Recoverable) (types.Epoch, error) {
	epoch := types.Epoch(0)
	commits := uint64(0)
	if meta := rec.RecoveredMeta(); len(meta) > 0 {
		d := types.NewDecoder(meta)
		if window := int(d.U32()); window != n.dedup.Window() {
			return 0, fmt.Errorf(
				"node: durable state was written under nonce window %d, node configured %d — recovery under a different window would diverge from the committee",
				window, n.dedup.Window())
		}
		epoch = types.Epoch(d.U64())
		commits = d.U64()
		if err := n.dedup.DecodeState(d); err != nil {
			return 0, fmt.Errorf("node: corrupt durable meta: %w", err)
		}
		votes := d.U32()
		for i := uint32(0); i < votes && d.Err() == nil; i++ {
			k := voteKey{round: types.Round(d.U64()), proposer: types.ReplicaID(d.U32())}
			dig := d.Digest()
			if n.recoveredVotes == nil {
				n.recoveredVotes = make(map[voteKey]types.Digest)
			}
			n.recoveredVotes[k] = dig
		}
		if err := d.Finish(); err != nil {
			return 0, fmt.Errorf("node: corrupt durable meta: %w", err)
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
			n.recoveredVotes = nil
		case walNoteRestore:
			// Mirror the live install: a same-epoch (mid-epoch) install
			// keeps the vote map — the slots are still this epoch's —
			// while a cross-epoch jump discards it with the old DAG.
			re := types.Epoch(d.U64())
			if re != epoch {
				n.recoveredVotes = nil
			}
			epoch = re
			commits = d.U64()
			if err := n.dedup.DecodeState(d); err != nil {
				return 0, fmt.Errorf("node: corrupt durable restore note: %w", err)
			}
		case walNoteVote:
			// Re-arm the anti-equivocation guard: only votes cast in the
			// epoch this replica resumes in matter (earlier epochs' DAGs
			// are gone; the transition/restore cases above clear them).
			ve := types.Epoch(d.U64())
			k := voteKey{round: types.Round(d.U64()), proposer: types.ReplicaID(d.U32())}
			dig := d.Digest()
			if ve == epoch {
				if n.recoveredVotes == nil {
					n.recoveredVotes = make(map[voteKey]types.Digest)
				}
				n.recoveredVotes[k] = dig
			}
		default:
			return 0, fmt.Errorf("node: unknown durable note kind %d", kind)
		}
		if err := d.Err(); err != nil {
			return 0, fmt.Errorf("node: corrupt durable note: %w", err)
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
	return epoch, nil
}
