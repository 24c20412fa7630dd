// Package pagedir provides Dir, a directory of atomic pointers indexed
// by page id. It is the shared substrate of the in-memory node store
// and the page lock table: both look a page up on every node visit, so
// a lookup must neither lock nor write shared memory.
//
// The directory is a slice of fixed-size chunks published behind one
// atomic pointer. A lookup is one atomic load of that pointer plus two
// indexes; growth, which is rare, copies only the chunk-pointer slice
// under a mutex and never moves a slot, so a slot pointer a caller
// holds stays valid for the directory's lifetime.
//
// Page ids must be dense, as node allocators hand them out: the
// directory covers every id from 0 to the largest one it has grown to.
package pagedir

import (
	"sync"
	"sync/atomic"

	"blinktree/internal/base"
)

// chunkBits sizes a chunk at 256 slots (2 KiB). Small chunks keep the
// directory of a small tree small: a sharded index holds one per shard
// for nodes and one for locks.
const chunkBits = 8

const chunkSize = 1 << chunkBits

type chunk[T any] [chunkSize]atomic.Pointer[T]

// Dir maps page ids to *T. The zero Dir is empty and ready to use.
type Dir[T any] struct {
	chunks atomic.Pointer[[]*chunk[T]]
	mu     sync.Mutex // serializes Grow
}

// Slot returns the slot of id, or nil when the directory has not grown
// to cover id.
func (d *Dir[T]) Slot(id base.PageID) *atomic.Pointer[T] {
	cs := d.chunks.Load()
	if cs == nil {
		return nil
	}
	c := uint64(id) >> chunkBits
	if c >= uint64(len(*cs)) {
		return nil
	}
	return &(*cs)[c][id&(chunkSize-1)]
}

// Grow extends the directory to cover id and returns id's slot.
func (d *Dir[T]) Grow(id base.PageID) *atomic.Pointer[T] {
	if s := d.Slot(id); s != nil {
		return s
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var cs []*chunk[T]
	if p := d.chunks.Load(); p != nil {
		cs = *p
	}
	// Appending may write into spare capacity shared with the slice a
	// reader loaded, but only beyond that reader's length, which it
	// never reads.
	for uint64(len(cs)) <= uint64(id)>>chunkBits {
		cs = append(cs, new(chunk[T]))
	}
	d.chunks.Store(&cs)
	return d.Slot(id)
}

// LoadOrNew returns the value in id's slot, first storing a new zero T
// there if the slot is empty. Values, once stored, stay for the
// directory's lifetime unless the caller clears them.
func (d *Dir[T]) LoadOrNew(id base.PageID) *T {
	s := d.Slot(id)
	if s == nil {
		s = d.Grow(id)
	}
	if v := s.Load(); v != nil {
		return v
	}
	v := new(T)
	if s.CompareAndSwap(nil, v) {
		return v
	}
	return s.Load()
}
