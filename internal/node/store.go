package node

import (
	"fmt"
	"sync"
	"sync/atomic"

	"blinktree/internal/base"
	"blinktree/internal/pagedir"
)

// Store provides the paper's get/put model over Nodes (§2.2): Get and
// Put of a single page are indivisible, Get never blocks (not even on a
// locked node — locks live in a separate table), and a Get concurrent
// with a Put returns a complete before- or after-image.
//
// Nodes returned by Get are immutable snapshots and must not be
// modified; Put publishes a new snapshot for the page named by n.ID.
type Store interface {
	// Get returns the current snapshot of the page.
	Get(id base.PageID) (*Node, error)
	// Put atomically replaces the snapshot of page n.ID.
	Put(n *Node) error
	// Allocate reserves a fresh page id.
	Allocate() (base.PageID, error)
	// Free returns a page to the allocator.
	Free(id base.PageID) error
	// ReadPrime returns the current prime block.
	ReadPrime() (Prime, error)
	// WritePrime atomically replaces the prime block.
	WritePrime(Prime) error
	// Pages returns the number of allocated node pages.
	Pages() int
	// Close releases resources.
	Close() error
}

// MemStore keeps node snapshots in memory behind atomic pointers. It is
// the fastest substrate and the reference implementation of the
// indivisibility contract: Put is a single pointer swap.
//
// Pages live in a pagedir.Dir, so Get is one atomic load of the
// directory plus one of the page's slot: no lock and no shared write,
// which is what lets lock-free searches scale with cores. A slot holds
// nil while its page is unallocated and the unwritten sentinel between
// Allocate and the first Put.
type MemStore struct {
	dir    pagedir.Dir[Node]
	mu     sync.Mutex // serializes Allocate and Free
	next   base.PageID
	free   []base.PageID
	pages  int
	prime  atomic.Pointer[Prime]
	closed atomic.Bool
}

// unwritten marks an allocated page that has never been Put.
var unwritten = &Node{}

// NewMemStore returns an empty in-memory node store with an empty prime
// block (no root).
func NewMemStore() *MemStore {
	s := &MemStore{}
	s.prime.Store(&Prime{})
	return s
}

func unallocated(id base.PageID) error {
	return fmt.Errorf("%w: page %d unallocated", base.ErrCorrupt, id)
}

// Get implements Store.
func (s *MemStore) Get(id base.PageID) (*Node, error) {
	if s.closed.Load() {
		return nil, base.ErrClosed
	}
	var n *Node
	if sl := s.dir.Slot(id); sl != nil {
		n = sl.Load()
	}
	switch n {
	case nil:
		return nil, unallocated(id)
	case unwritten:
		return nil, fmt.Errorf("%w: page %d never written", base.ErrCorrupt, id)
	}
	return n, nil
}

// Put implements Store. The swap is a compare-and-swap against the
// image it replaces, so a Put racing a Free of the same page either
// lands before the Free or is refused.
func (s *MemStore) Put(n *Node) error {
	if s.closed.Load() {
		return base.ErrClosed
	}
	if n.ID == base.NilPage {
		return fmt.Errorf("%w: Put of node with nil id", base.ErrCorrupt)
	}
	sl := s.dir.Slot(n.ID)
	if sl == nil {
		return unallocated(n.ID)
	}
	for {
		cur := sl.Load()
		if cur == nil {
			return unallocated(n.ID)
		}
		if sl.CompareAndSwap(cur, n) {
			return nil
		}
	}
}

// Allocate implements Store.
func (s *MemStore) Allocate() (base.PageID, error) {
	if s.closed.Load() {
		return base.NilPage, base.ErrClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var id base.PageID
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.next++
		id = s.next
	}
	s.dir.Grow(id).Store(unwritten)
	s.pages++
	return id, nil
}

// Free implements Store.
func (s *MemStore) Free(id base.PageID) error {
	if s.closed.Load() {
		return base.ErrClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sl := s.dir.Slot(id)
	if id == base.NilPage || sl == nil || sl.Load() == nil {
		return fmt.Errorf("%w: Free of unallocated page %d", base.ErrCorrupt, id)
	}
	sl.Store(nil)
	s.free = append(s.free, id)
	s.pages--
	return nil
}

// ReadPrime implements Store.
func (s *MemStore) ReadPrime() (Prime, error) {
	if s.closed.Load() {
		return Prime{}, base.ErrClosed
	}
	return *s.prime.Load(), nil
}

// WritePrime implements Store.
func (s *MemStore) WritePrime(p Prime) error {
	if s.closed.Load() {
		return base.ErrClosed
	}
	cp := p.Clone()
	s.prime.Store(&cp)
	return nil
}

// Pages implements Store.
func (s *MemStore) Pages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pages
}

// Close implements Store.
func (s *MemStore) Close() error {
	s.closed.Store(true)
	return nil
}
