package gateway

import "thunderbolt/internal/types"

// Scratch is a copy-on-touch view over a Dedup: Resolved answers
// exactly as the Dedup would after every Mark made through the view,
// and the Dedup itself is never written. It is how the commit path asks
// "what would dedup say at this point of the wave" before anything is
// installed — while running a wave that has not been applied yet, and
// while running one ahead of its commit on top of other such waves —
// under the one rule (session floors, forced eviction) that Mark itself
// implements.
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
}

// Scratch returns an empty view over d.
func (d *Dedup) Scratch() *Scratch {
	return &Scratch{d: d, clients: make(map[uint64]*nonceWindow)}
}

// Reset forgets every mark made through the view, which then shows the
// Dedup as it is now, and returns the view for chaining.
func (s *Scratch) Reset() *Scratch {
	for c, w := range s.clients {
		s.free = append(s.free, w)
		delete(s.clients, c)
	}
	return s
}

// Resolved is Dedup.Resolved as of the view.
func (s *Scratch) Resolved(tx *types.Transaction) bool {
	if !Sessioned(tx) {
		return true
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
