package node

import (
	"fmt"
	"sync"
	"sync/atomic"

	"blinktree/internal/base"
	"blinktree/internal/storage"
)

// Prefetcher is the optional read-ahead surface of a Store: a scan that
// knows which page it will visit next can hint it so the page is
// resident by the time the hop happens. Prefetch is best-effort and
// asynchronous; it never blocks and its errors are swallowed.
type Prefetcher interface {
	Prefetch(id base.PageID)
}

// PagedStore implements Store over a storage.Store, serializing nodes
// with the page codec. It is the disk-resident substrate: combined with
// storage.FileStore (+ BufferPool, + Latency) it exercises the regime
// the paper was written for, where a node is a page of secondary
// storage. The first allocated page holds the prime block.
//
// Over a BufferPool the store works frame-native: Get pins the page's
// frame, reuses the decoded node cached on the frame when the bytes
// have not changed (the common warm-cache case — no page read, no
// decode, no allocation), and decodes in place under the frame latch
// otherwise; Put encodes into the frame in place and caches the node it
// just encoded. Nodes are immutable snapshots, so a cached node can be
// shared freely; the pin only spans the decode or encode, never the
// caller's use of the node, which is what lets the tree above stay
// lock-free while frames are evicted and reused underneath it (the
// §5.3 epoch rules gate the Free, the pool's write-back gates the frame
// reuse).
type PagedStore struct {
	under  storage.Store
	pool   *storage.BufferPool // non-nil when under is (or wraps) a pool
	prime  base.PageID
	closed atomic.Bool

	// primeCache keeps the decoded prime block behind an atomic pointer:
	// every descend starts with ReadPrime, and re-reading + re-decoding
	// a page per operation would dominate warm-cache serving. primeMu
	// orders WritePrime and cache fills so a stale fill can never
	// overwrite a newer write.
	primeMu    sync.Mutex
	primeCache atomic.Pointer[Prime]
}

// NewPagedStore initializes a paged node store on under, allocating and
// writing an empty prime block. When under is a *storage.BufferPool the
// store uses its pin/unpin surface for zero-copy node access.
func NewPagedStore(under storage.Store) (*PagedStore, error) {
	id, err := under.Allocate()
	if err != nil {
		return nil, fmt.Errorf("node: allocate prime page: %w", err)
	}
	s := &PagedStore{under: under, prime: id}
	if pool, ok := under.(*storage.BufferPool); ok {
		s.pool = pool
	}
	if err := s.WritePrime(Prime{}); err != nil {
		return nil, err
	}
	return s, nil
}

// MaxPairs returns the per-node pair capacity of this store's pages.
func (s *PagedStore) MaxPairs() int { return MaxPairs(s.under.PageSize()) }

// Pool returns the buffer pool beneath the store, or nil when the
// substrate is unpooled.
func (s *PagedStore) Pool() *storage.BufferPool { return s.pool }

// Get implements Store.
func (s *PagedStore) Get(id base.PageID) (*Node, error) {
	if s.closed.Load() {
		return nil, base.ErrClosed
	}
	if s.pool != nil {
		return s.getPooled(id)
	}
	buf := make([]byte, s.under.PageSize())
	if err := s.under.Read(id, buf); err != nil {
		return nil, err
	}
	return Decode(id, buf)
}

// getPooled reads a node through the pool's pin surface. The cached
// object is set only under the frame latch, so it always corresponds to
// the frame's current bytes; two racing readers may both decode and
// both cache, which is benign (equal content, immutable nodes).
func (s *PagedStore) getPooled(id base.PageID) (*Node, error) {
	fr, err := s.pool.Pin(id)
	if err != nil {
		return nil, err
	}
	if obj := fr.CachedObject(); obj != nil {
		s.pool.Unpin(fr)
		return obj.(*Node), nil
	}
	fr.RLock()
	n, err := Decode(id, fr.Data())
	if err == nil {
		fr.SetCachedObject(n)
	}
	fr.RUnlock()
	s.pool.Unpin(fr)
	return n, err
}

// Put implements Store.
func (s *PagedStore) Put(n *Node) error {
	if s.closed.Load() {
		return base.ErrClosed
	}
	if s.pool != nil {
		fr, err := s.pool.Pin(n.ID)
		if err != nil {
			return err
		}
		fr.Lock()
		err = Encode(n, fr.Data())
		if err == nil {
			fr.SetCachedObject(n)
			fr.MarkDirty()
		}
		fr.Unlock()
		s.pool.Unpin(fr)
		return err
	}
	buf := make([]byte, s.under.PageSize())
	if err := Encode(n, buf); err != nil {
		return err
	}
	return s.under.Write(n.ID, buf)
}

// Allocate implements Store.
func (s *PagedStore) Allocate() (base.PageID, error) {
	if s.closed.Load() {
		return base.NilPage, base.ErrClosed
	}
	return s.under.Allocate()
}

// Free implements Store.
func (s *PagedStore) Free(id base.PageID) error {
	if s.closed.Load() {
		return base.ErrClosed
	}
	return s.under.Free(id)
}

// Prefetch implements Prefetcher: it hints the pool to fault id in
// ahead of demand. No-op without a pool.
func (s *PagedStore) Prefetch(id base.PageID) {
	if s.pool != nil && !s.closed.Load() {
		s.pool.Prefetch(id)
	}
}

// ReadPrime implements Store.
func (s *PagedStore) ReadPrime() (Prime, error) {
	if s.closed.Load() {
		return Prime{}, base.ErrClosed
	}
	// Same sharing discipline as MemStore.ReadPrime: the returned value
	// shallow-copies the cached block, so callers must treat it as
	// read-only (they already must — MemStore shares identically).
	if p := s.primeCache.Load(); p != nil {
		return *p, nil
	}
	s.primeMu.Lock()
	defer s.primeMu.Unlock()
	if p := s.primeCache.Load(); p != nil {
		return *p, nil
	}
	buf := make([]byte, s.under.PageSize())
	if err := s.under.Read(s.prime, buf); err != nil {
		return Prime{}, err
	}
	p, err := DecodePrime(buf)
	if err != nil {
		return Prime{}, err
	}
	s.primeCache.Store(&p)
	return p, nil
}

// WritePrime implements Store.
func (s *PagedStore) WritePrime(p Prime) error {
	if s.closed.Load() {
		return base.ErrClosed
	}
	buf := make([]byte, s.under.PageSize())
	if err := EncodePrime(p, buf); err != nil {
		return err
	}
	s.primeMu.Lock()
	defer s.primeMu.Unlock()
	if err := s.under.Write(s.prime, buf); err != nil {
		return err
	}
	cp := p.Clone()
	s.primeCache.Store(&cp)
	return nil
}

// Pages implements Store (excludes the prime page).
func (s *PagedStore) Pages() int { return s.under.Pages() - 1 }

// Close implements Store.
func (s *PagedStore) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	return s.under.Close()
}
