package gateway

import "thunderbolt/internal/types"

// Scratch is a copy-on-touch view over a Dedup: Resolved answers
// exactly as the Dedup would after every Mark made through the view,
// and the Dedup itself is never written. It is how the commit path asks
// "what would dedup say at this point of the wave" before anything is
// installed — while running a wave that has not been applied yet, and
// while running one ahead of its commit on top of other such waves —
// under the one rule (session floors, forced eviction, ring eviction)
// that Mark itself implements.
//
// A Scratch's marks are valid only while its Dedup is not mutated —
// Reset it after the Dedup changes — and it is owned by one goroutine,
// like the Dedup.
type Scratch struct {
	d *Dedup
	// clients holds the sessions marked through the view: copied from
	// the Dedup on first touch, then evolved by nonceWindow.mark. free
	// recycles the copies across Resets: the commit path takes a view
	// per wave, and a window copy per transaction would otherwise be
	// its largest allocation.
	clients map[uint64]*nonceWindow
	free    []*nonceWindow
	// Legacy ring, as a delta: order lists the digests marked through
	// the view, added the ones still resolved, and evicted the Dedup's
	// own ring entries those marks pushed out (nEvicted counts both
	// kinds of eviction; the ring evicts oldest first, the Dedup's
	// entries before the view's).
	order    []types.Digest
	added    map[types.Digest]struct{}
	evicted  map[types.Digest]struct{}
	nEvicted int
}

// Scratch returns an empty view over d.
func (d *Dedup) Scratch() *Scratch {
	return &Scratch{
		d:       d,
		clients: make(map[uint64]*nonceWindow),
		added:   make(map[types.Digest]struct{}),
		evicted: make(map[types.Digest]struct{}),
	}
}

// Reset forgets every mark made through the view, which then shows the
// Dedup as it is now, and returns the view for chaining.
func (s *Scratch) Reset() *Scratch {
	for c, w := range s.clients {
		s.free = append(s.free, w)
		delete(s.clients, c)
	}
	s.order = s.order[:0]
	clear(s.added)
	clear(s.evicted)
	s.nEvicted = 0
	return s
}

// Resolved is Dedup.Resolved as of the view.
func (s *Scratch) Resolved(tx *types.Transaction) bool {
	if !Sessioned(tx) {
		return s.resolvedLegacy(tx.ID())
	}
	w, ok := s.clients[tx.Client]
	if !ok {
		w = s.d.clients[tx.Client]
	}
	return w.admit(tx.Nonce, s.d.window) == AdmitResolved
}

// Mark is Dedup.Mark applied to the view only.
func (s *Scratch) Mark(tx *types.Transaction) {
	if !Sessioned(tx) {
		s.markLegacy(tx.ID())
		return
	}
	w, ok := s.clients[tx.Client]
	if !ok {
		if n := len(s.free); n > 0 {
			w, s.free = s.free[n-1], s.free[:n-1]
		} else {
			w = &nonceWindow{bits: make([]uint64, s.d.window/64)}
		}
		if base := s.d.clients[tx.Client]; base != nil {
			w.floor = base.floor
			copy(w.bits, base.bits)
		} else {
			w.floor = 0
			clear(w.bits)
		}
		s.clients[tx.Client] = w
	}
	w.mark(tx.Nonce, s.d.window)
}

func (s *Scratch) resolvedLegacy(id types.Digest) bool {
	if _, ok := s.added[id]; ok {
		return true
	}
	if _, ok := s.evicted[id]; ok {
		return false
	}
	_, ok := s.d.ringSet[id]
	return ok
}

func (s *Scratch) markLegacy(id types.Digest) {
	if s.resolvedLegacy(id) {
		return
	}
	s.order = append(s.order, id)
	s.added[id] = struct{}{}
	if s.d.ringN+len(s.order)-s.nEvicted <= s.d.legacyCap {
		return
	}
	// Over capacity: the oldest resolved digest leaves the window.
	if e := s.nEvicted; e < s.d.ringN {
		s.evicted[s.d.ring[(s.d.ringStart+e)%len(s.d.ring)]] = struct{}{}
	} else {
		delete(s.added, s.order[e-s.d.ringN])
	}
	s.nEvicted++
}
