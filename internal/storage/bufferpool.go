package storage

import (
	"container/list"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blinktree/internal/base"
)

// BufferPool is a bounded write-back page cache layered over another
// Store — the disk-native serving path. It keeps at most capacity page
// frames resident, evicts in LRU order skipping pinned frames, and
// writes dirty frames back to the underlying store before their frame
// is reused, so every page is always either resident or re-fetchable.
//
// Two access regimes share the pool:
//
//   - The Store methods (Read/Write) copy whole pages in and out,
//     preserving the per-page atomicity contract for callers that treat
//     the pool as just another Store.
//   - Pin/Unpin hands out *Frame handles for zero-copy access: the node
//     layer pins a frame, takes its latch, decodes or encodes in place,
//     and unpins. A pinned frame is never evicted, which is what makes
//     in-place access safe against frame reuse.
//
// See doc.go for the full pin/unpin + eviction contract and how it
// composes with the §5.3 reclamation epochs above.
type BufferPool struct {
	under    Store
	capacity int

	mu      sync.Mutex
	frames  map[base.PageID]*list.Element // -> *Frame
	lru     *list.List                    // front = most recent
	closed  bool
	crashed bool  // severed from under; see Crash
	freeErr error // first failure of a Free deferred past a pin

	hits, misses, evictions, writebacks uint64
	pinned                              int
	pinnedHighWater                     int

	prefetchCh    chan base.PageID
	prefetchQuit  chan struct{}
	prefetchDone  chan struct{}
	prefetches    atomic.Uint64
	prefetchLoads atomic.Uint64
}

// Frame is one resident page. The pool owns the frame's identity (id,
// pin count, dirty bit, LRU position); the holder of a pin owns access
// to its bytes through the latch: RLock to read or decode, Lock to
// mutate or encode. Latch only while pinned, and release the latch
// before Unpin — the pool takes latches during Flush and takes none
// during eviction (eviction requires a zero pin count, which already
// excludes latch holders).
type Frame struct {
	id     base.PageID
	data   []byte
	pins   int  // guarded by pool.mu
	doomed bool // guarded by pool.mu; Free arrived while pinned
	dirty  atomic.Bool
	latch  sync.RWMutex
	// obj caches the decoded object (a *node.Node above) for the bytes
	// in data. Set it only while holding the latch in either mode, so a
	// cached object can never outlive the page image it was decoded
	// from; a raw Write through the Store interface clears it.
	obj atomic.Pointer[any]
}

// ID returns the page this frame holds.
func (f *Frame) ID() base.PageID { return f.id }

// Data returns the frame's page image. Access it only while pinned and
// holding the latch (RLock to read, Lock to write).
func (f *Frame) Data() []byte { return f.data }

// Lock takes the frame latch exclusively (for in-place encodes).
func (f *Frame) Lock() { f.latch.Lock() }

// Unlock releases the exclusive latch.
func (f *Frame) Unlock() { f.latch.Unlock() }

// RLock takes the frame latch shared (for reads and decodes).
func (f *Frame) RLock() { f.latch.RLock() }

// RUnlock releases the shared latch.
func (f *Frame) RUnlock() { f.latch.RUnlock() }

// MarkDirty records that Data was mutated, scheduling write-back on
// eviction or Flush. Call while holding the exclusive latch.
func (f *Frame) MarkDirty() { f.dirty.Store(true) }

// CachedObject returns the decoded object cached for this frame's
// current content, or nil. Call while pinned.
func (f *Frame) CachedObject() any {
	if p := f.obj.Load(); p != nil {
		return *p
	}
	return nil
}

// SetCachedObject caches the decoded object for the frame's current
// content. Call only while pinned and holding the latch (either mode),
// immediately after decoding from or encoding into Data.
func (f *Frame) SetCachedObject(v any) { f.obj.Store(&v) }

// clearCachedObject drops the cached object (raw byte writes).
func (f *Frame) clearCachedObject() { f.obj.Store(nil) }

// NewBufferPool wraps under with a bounded pool of capacity page
// frames (minimum 4) and starts its read-ahead worker.
func NewBufferPool(under Store, capacity int) *BufferPool {
	if capacity < 4 {
		capacity = 4
	}
	p := &BufferPool{
		under:        under,
		capacity:     capacity,
		frames:       make(map[base.PageID]*list.Element, capacity),
		lru:          list.New(),
		prefetchCh:   make(chan base.PageID, 64),
		prefetchQuit: make(chan struct{}),
		prefetchDone: make(chan struct{}),
	}
	go p.prefetcher()
	return p
}

// PageSize implements Store.
func (p *BufferPool) PageSize() int { return p.under.PageSize() }

// Capacity returns the frame budget.
func (p *BufferPool) Capacity() int { return p.capacity }

// frameFor returns the frame for id, faulting it in (and possibly
// evicting an unpinned frame) on a miss. Caller holds p.mu.
func (p *BufferPool) frameFor(id base.PageID) (*Frame, error) {
	if el, ok := p.frames[id]; ok {
		p.hits++
		p.lru.MoveToFront(el)
		return el.Value.(*Frame), nil
	}
	p.misses++
	if p.crashed {
		return nil, fmt.Errorf("storage: buffer pool crashed: %w", base.ErrClosed)
	}
	if err := p.evictIfFull(); err != nil {
		return nil, err
	}
	fr := &Frame{id: id, data: make([]byte, p.under.PageSize())}
	if err := p.under.Read(id, fr.data); err != nil {
		return nil, err
	}
	p.frames[id] = p.lru.PushFront(fr)
	return fr, nil
}

// errExhausted reports a miss while every frame is pinned.
var errExhausted = errors.New("storage: buffer pool exhausted")

// evictIfFull writes back and drops least-recently-used unpinned
// frames until a frame slot is free. Pinned frames are skipped: a pin
// is the promise that someone is using the frame's bytes in place.
// Caller holds p.mu.
func (p *BufferPool) evictIfFull() error {
	for p.lru.Len() >= p.capacity {
		var victim *list.Element
		for el := p.lru.Back(); el != nil; el = el.Prev() {
			if el.Value.(*Frame).pins == 0 {
				victim = el
				break
			}
		}
		if victim == nil {
			return fmt.Errorf("%w: all %d frames pinned", errExhausted, p.capacity)
		}
		fr := victim.Value.(*Frame)
		// pins == 0 and we hold p.mu, so no latch holder exists and none
		// can appear: the frame's bytes are safe to write back directly.
		if fr.dirty.Load() && !p.crashed {
			if err := p.under.Write(fr.id, fr.data); err != nil {
				return fmt.Errorf("storage: writeback page %d: %w", fr.id, err)
			}
			fr.dirty.Store(false)
			p.writebacks++
		}
		p.lru.Remove(victim)
		delete(p.frames, fr.id)
		p.evictions++
	}
	return nil
}

// Pin returns the frame holding id, faulting it in on a miss, and
// guarantees the frame stays resident until the matching Unpin. Every
// Pin must be paired with exactly one Unpin.
func (p *BufferPool) Pin(id base.PageID) (*Frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, base.ErrClosed
	}
	fr, err := p.frameFor(id)
	if err != nil {
		return nil, err
	}
	if fr.pins == 0 {
		p.pinned++
		if p.pinned > p.pinnedHighWater {
			p.pinnedHighWater = p.pinned
		}
	}
	fr.pins++
	return fr, nil
}

// Unpin releases one pin on fr. Unpinning a frame that holds no pin —
// a double unpin, or an unpin that was never paired with a Pin — is a
// caller bug that would let the pool evict a frame still in use, so it
// panics rather than corrupting silently.
func (p *BufferPool) Unpin(fr *Frame) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if fr.pins <= 0 {
		panic(fmt.Sprintf("storage: unpin of page %d with no outstanding pin", fr.id))
	}
	fr.pins--
	if fr.pins == 0 {
		p.pinned--
		// A Free that raced this pin was deferred to us (see Free); run
		// the underlying free now that the last user is gone.
		if fr.doomed {
			fr.doomed = false
			if !p.crashed {
				if err := p.under.Free(fr.id); err != nil && p.freeErr == nil {
					p.freeErr = err
				}
			}
		}
	}
}

// Prefetch schedules a best-effort asynchronous fault-in of id, so a
// sequential scan's next leaf is resident by the time the scan hops to
// it. It never blocks: when the read-ahead queue is full the hint is
// dropped. Errors (e.g. a page freed between hint and fetch) are
// swallowed — the demand fetch will surface anything real.
func (p *BufferPool) Prefetch(id base.PageID) {
	p.prefetches.Add(1)
	select {
	case p.prefetchCh <- id:
	default:
	}
}

// prefetcher drains the read-ahead queue, faulting pages in unpinned.
func (p *BufferPool) prefetcher() {
	defer close(p.prefetchDone)
	for {
		select {
		case <-p.prefetchQuit:
			return
		case id := <-p.prefetchCh:
			p.mu.Lock()
			if !p.closed {
				if _, ok := p.frames[id]; !ok {
					if _, err := p.frameFor(id); err == nil {
						p.prefetchLoads.Add(1)
						// frameFor counted the fault as a demand miss;
						// a satisfied prefetch is the opposite of one.
						p.misses--
					}
				}
			}
			p.mu.Unlock()
		}
	}
}

// pinCopy pins id for Read or Write. Those hold a pin only for one
// page copy, so a pool whose frames are all pinned is most often full
// of other copies whose goroutines are parked on p.mu, waiting to
// unpin; it frees up as soon as they run. So a miss on a full pool
// yields and retries for a short while before reporting exhaustion.
// The bound keeps a pool pinned by long-lived holders (a caller that
// already holds pins, say) an error rather than a hang.
func (p *BufferPool) pinCopy(id base.PageID) (*Frame, error) {
	deadline := time.Now().Add(50 * time.Millisecond)
	for {
		fr, err := p.Pin(id)
		if !errors.Is(err, errExhausted) || time.Now().After(deadline) {
			return fr, err
		}
		runtime.Gosched()
	}
}

// Read implements Store.
func (p *BufferPool) Read(id base.PageID, buf []byte) error {
	if err := checkBuf(p.under.PageSize(), buf); err != nil {
		return err
	}
	fr, err := p.pinCopy(id)
	if err != nil {
		return err
	}
	fr.RLock()
	copy(buf, fr.data)
	fr.RUnlock()
	p.Unpin(fr)
	return nil
}

// Write implements Store.
func (p *BufferPool) Write(id base.PageID, buf []byte) error {
	if err := checkBuf(p.under.PageSize(), buf); err != nil {
		return err
	}
	// The miss path faults the page in even though we overwrite it
	// whole: the read validates that id is allocated underneath.
	fr, err := p.pinCopy(id)
	if err != nil {
		return err
	}
	fr.Lock()
	copy(fr.data, buf)
	fr.clearCachedObject()
	fr.MarkDirty()
	fr.Unlock()
	p.Unpin(fr)
	return nil
}

// Allocate implements Store.
func (p *BufferPool) Allocate() (base.PageID, error) {
	p.mu.Lock()
	if p.crashed {
		p.mu.Unlock()
		return 0, fmt.Errorf("storage: buffer pool crashed: %w", base.ErrClosed)
	}
	p.mu.Unlock()
	return p.under.Allocate()
}

// Crash severs the pool from its underlying store for crash-injection
// tests: no further write-back, fault-in, free, or allocation touches
// the store. Resident frames keep serving reads so in-flight
// operations on the abandoned index drain instead of panicking, but
// everything else fails. Without this, an abandoned in-process index
// would keep writing evicted pages into the file a recovered index has
// since reopened — a disk corruption no real kill can produce, since a
// dead process writes nothing.
func (p *BufferPool) Crash() {
	p.mu.Lock()
	p.crashed = true
	p.mu.Unlock()
}

// Free implements Store. The cached frame, if any, is dropped without
// write-back since the page's content is dead. Above the pool, the
// reclamation epochs (§5.3) delay Free past every tree operation that
// could still reach the page — but the read-ahead worker pins outside
// those epochs (a hint can outlive the page it names), so a Free that
// finds the frame pinned marks it doomed and defers the underlying
// free to the last Unpin instead of failing.
func (p *BufferPool) Free(id base.PageID) error {
	p.mu.Lock()
	if el, ok := p.frames[id]; ok {
		fr := el.Value.(*Frame)
		p.lru.Remove(el)
		delete(p.frames, id)
		fr.dirty.Store(false)
		fr.clearCachedObject()
		if fr.pins > 0 {
			fr.doomed = true
			p.mu.Unlock()
			return nil
		}
	}
	if p.crashed {
		p.mu.Unlock()
		return nil
	}
	p.mu.Unlock()
	return p.under.Free(id)
}

// Pages implements Store.
func (p *BufferPool) Pages() int { return p.under.Pages() }

// Flush writes every dirty frame back to the underlying store. Frames
// pinned by concurrent users are written under their latch, so an
// in-flight encode either lands wholly before or wholly after the
// flush of its frame.
func (p *BufferPool) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flushLocked()
}

func (p *BufferPool) flushLocked() error {
	if p.crashed {
		return fmt.Errorf("storage: buffer pool crashed: %w", base.ErrClosed)
	}
	for el := p.lru.Front(); el != nil; el = el.Next() {
		fr := el.Value.(*Frame)
		fr.RLock()
		// Swap-before-write keeps a dirty mark set after our copy: a
		// later mutator re-dirties and a later flush rewrites.
		if fr.dirty.Swap(false) {
			if err := p.under.Write(fr.id, fr.data); err != nil {
				fr.dirty.Store(true)
				fr.RUnlock()
				return err
			}
			p.writebacks++
		}
		fr.RUnlock()
	}
	return nil
}

// Close stops read-ahead, flushes dirty frames, closes the underlying
// store, and reports leaked pins: any frame still pinned at Close
// means some caller lost track of a Pin, the accounting bug that would
// eventually wedge eviction.
func (p *BufferPool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	var leaked []base.PageID
	for el := p.lru.Front(); el != nil; el = el.Next() {
		if fr := el.Value.(*Frame); fr.pins > 0 {
			leaked = append(leaked, fr.id)
		}
	}
	ferr := p.flushLocked()
	deferredErr := p.freeErr
	p.mu.Unlock()
	close(p.prefetchQuit)
	<-p.prefetchDone
	if err := p.under.Close(); err != nil {
		return err
	}
	if ferr != nil {
		return ferr
	}
	if deferredErr != nil {
		return fmt.Errorf("storage: deferred free failed: %w", deferredErr)
	}
	if len(leaked) > 0 {
		sort.Slice(leaked, func(i, j int) bool { return leaked[i] < leaked[j] })
		return fmt.Errorf("storage: %d pin(s) leaked at close: pages %v", len(leaked), leaked)
	}
	return nil
}

// PoolStats is a snapshot of cache behaviour. Hits/Misses count demand
// lookups (a satisfied prefetch later re-counted as a hit); Prefetches
// counts hints issued and PrefetchLoads the pages actually faulted in
// by read-ahead; Pinned/PinnedHighWater track the pin discipline.
type PoolStats struct {
	Hits, Misses, Evictions, Writebacks uint64
	Prefetches, PrefetchLoads           uint64
	Resident                            int
	Capacity                            int
	Pinned                              int
	PinnedHighWater                     int
}

// Stats returns a snapshot of the pool counters.
func (p *BufferPool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Hits: p.hits, Misses: p.misses,
		Evictions: p.evictions, Writebacks: p.writebacks,
		Prefetches:      p.prefetches.Load(),
		PrefetchLoads:   p.prefetchLoads.Load(),
		Resident:        p.lru.Len(),
		Capacity:        p.capacity,
		Pinned:          p.pinned,
		PinnedHighWater: p.pinnedHighWater,
	}
}

// Merge folds o into s for cross-shard aggregation: counters, resident
// frames and capacities sum; pin high-waters take the maximum.
func (s *PoolStats) Merge(o PoolStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Writebacks += o.Writebacks
	s.Prefetches += o.Prefetches
	s.PrefetchLoads += o.PrefetchLoads
	s.Resident += o.Resident
	s.Capacity += o.Capacity
	s.Pinned += o.Pinned
	if o.PinnedHighWater > s.PinnedHighWater {
		s.PinnedHighWater = o.PinnedHighWater
	}
}
