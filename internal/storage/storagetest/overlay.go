// Package storagetest provides the serial-replay fixture the executor,
// validator and workload tests check concurrent results against.
package storagetest

import (
	"thunderbolt/internal/storage"
	"thunderbolt/internal/types"
)

// Overlay is a write buffer layered over a base backend: reads see the
// overlay's own writes first, then the base, and Flush applies the
// buffer as one batch. It is a contract.State, so a contract runs
// straight against it, and it is not safe for concurrent use.
type Overlay struct {
	base   storage.Backend
	writes map[types.Key]types.Value
	order  []types.Key
}

// NewOverlay creates an empty overlay over base.
func NewOverlay(base storage.Backend) *Overlay {
	return &Overlay{base: base, writes: make(map[types.Key]types.Value)}
}

// Get reads k, preferring buffered writes.
func (o *Overlay) Get(k types.Key) (types.Value, bool) {
	if v, ok := o.writes[k]; ok {
		return v, true
	}
	return o.base.Get(k)
}

// Set buffers a write to k.
func (o *Overlay) Set(k types.Key, v types.Value) {
	if _, ok := o.writes[k]; !ok {
		o.order = append(o.order, k)
	}
	o.writes[k] = v.Clone()
}

// Read is Get as a contract.State read: a missing key reads as nil.
func (o *Overlay) Read(k types.Key) (types.Value, error) {
	v, _ := o.Get(k)
	return v, nil
}

// Write is Set as a contract.State write.
func (o *Overlay) Write(k types.Key, v types.Value) error {
	o.Set(k, v)
	return nil
}

// Writes returns the buffered writes in first-write order.
func (o *Overlay) Writes() []types.RWRecord {
	out := make([]types.RWRecord, 0, len(o.order))
	for _, k := range o.order {
		out = append(out, types.RWRecord{Key: k, Value: o.writes[k].Clone()})
	}
	return out
}

// Flush applies the buffered writes to the base backend atomically and
// clears the buffer. It returns the commit sequence number.
func (o *Overlay) Flush() uint64 {
	seq := o.base.Apply(o.Writes())
	o.Reset()
	return seq
}

// Reset discards buffered writes.
func (o *Overlay) Reset() {
	clear(o.writes)
	o.order = o.order[:0]
}
