package verify

import (
	"sync"
	"sync/atomic"
	"time"
)

// ScanFunc visits every pair with lo ≤ key ≤ hi in ascending key
// order — the engine supplies its tree's Range so the overlay never
// has to import it.
type ScanFunc func(lo, hi uint64, fn func(k, v uint64) bool) error

// Overlay maintains one shard's leaf hashes incrementally: mutations
// mark the touched bucket dirty (an atomic bit, off the hot path's
// critical section cost), and Rehash — called by the background hasher
// and by any root reader — re-scans only dirty buckets. The ordering
// that keeps this sound: Rehash clears a bucket's dirty flag *before*
// scanning it, and mutators mark *after* their tree change is applied,
// so a change that races a scan either lands in the scan or re-dirties
// the bucket for the next pass. Nothing is ever lost.
type Overlay struct {
	nb    int
	scan  ScanFunc
	dirty []atomic.Bool

	// rehashMu serializes Rehash passes. Without it a root reader could
	// find a bucket clean whose hash a concurrent pass (the background
	// hasher) has cleared but not yet stored, and fold the old leaf; or
	// a slow pass could store a hash older than a faster one's.
	rehashMu sync.Mutex

	mu     sync.Mutex // guards leaves
	leaves []Hash

	// Rehashed counts buckets re-hashed since open — the /metrics and
	// E17 visibility into maintenance work.
	Rehashed atomic.Uint64
}

// NewOverlay builds an overlay of nb buckets (a valid bucket count)
// over scan, with every bucket dirty so the first Rehash builds the
// full tree.
func NewOverlay(nb int, scan ScanFunc) *Overlay {
	o := &Overlay{nb: nb, scan: scan, dirty: make([]atomic.Bool, nb), leaves: make([]Hash, nb)}
	for i := range o.leaves {
		o.leaves[i] = EmptyLeaf()
	}
	o.MarkAll()
	return o
}

// Buckets returns nb.
func (o *Overlay) Buckets() int { return o.nb }

// MarkKey flags the key's bucket for re-hashing. Call it after the
// mutation is applied to the tree (see the ordering note on Overlay).
func (o *Overlay) MarkKey(k uint64) {
	o.dirty[BucketOf(k, o.nb)].Store(true)
}

// MarkAll flags every bucket — the bulk-load / recovery / wipe path.
func (o *Overlay) MarkAll() {
	for i := range o.dirty {
		o.dirty[i].Store(true)
	}
}

// Rehash re-hashes every currently dirty bucket and reports how many
// it did. Safe to call concurrently with mutators and with itself
// (concurrent calls run one after the other).
func (o *Overlay) Rehash() (int, error) {
	o.rehashMu.Lock()
	defer o.rehashMu.Unlock()
	done := 0
	for b := range o.dirty {
		if !o.dirty[b].CompareAndSwap(true, false) {
			continue
		}
		lo, hi := BucketSpan(b, o.nb)
		var leaf LeafHasher
		if err := o.scan(lo, hi, func(k, v uint64) bool {
			leaf.Add(k, v)
			return true
		}); err != nil {
			o.dirty[b].Store(true) // not hashed; keep it pending
			return done, err
		}
		h := leaf.Sum()
		o.mu.Lock()
		o.leaves[b] = h
		o.mu.Unlock()
		done++
	}
	o.Rehashed.Add(uint64(done))
	return done, nil
}

// Root re-hashes whatever is dirty and folds the leaves into the
// shard root. Concurrent mutations make the result a fuzzy (but
// recent) root; quiesced, it is exact and deterministic.
func (o *Overlay) Root() (Hash, error) {
	if _, err := o.Rehash(); err != nil {
		return Hash{}, err
	}
	o.mu.Lock()
	scratch := make([]Hash, o.nb)
	copy(scratch, o.leaves)
	o.mu.Unlock()
	return FoldLeaves(scratch), nil
}

// LeafPath returns, for bucket b, the sibling hashes of its fold path
// (bottom-up) computed from the current leaves, with the leaf slot b
// itself *excluded* — the caller pairs it with a leaf it computed from
// a pair list, which keeps a proof self-consistent even if the bucket
// moves between the list scan and this call.
func (o *Overlay) LeafPath(b int) []Hash {
	o.mu.Lock()
	scratch := make([]Hash, o.nb)
	copy(scratch, o.leaves)
	o.mu.Unlock()
	depth := Depth(o.nb)
	sibs := make([]Hash, 0, depth)
	idx := b
	n := o.nb
	for n > 1 {
		sibs = append(sibs, scratch[idx^1])
		for i := 0; i < n; i += 2 {
			scratch[i/2] = Combine(scratch[i], scratch[i+1])
		}
		n /= 2
		idx >>= 1
	}
	return sibs
}

// Hasher is the decoupled maintenance worker, same shape as the
// compression worker pool (internal/compress): Start launches a
// background goroutine that periodically re-hashes dirty buckets so a
// fresh root is a fold away instead of a full rescan; Stop quiesces
// it. Root readers do not depend on it for correctness — they rehash
// whatever is still dirty themselves — it just keeps the pending set
// small.
type Hasher struct {
	o     *Overlay
	every time.Duration
	stop  chan struct{}
	wg    sync.WaitGroup
}

// DefaultRehashInterval is the background re-hash cadence when the
// engine does not configure one.
const DefaultRehashInterval = 25 * time.Millisecond

// NewHasher builds a worker over o. every ≤ 0 selects the default.
func NewHasher(o *Overlay, every time.Duration) *Hasher {
	if every <= 0 {
		every = DefaultRehashInterval
	}
	return &Hasher{o: o, every: every, stop: make(chan struct{})}
}

// Start launches the background worker.
func (h *Hasher) Start() {
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(h.every)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				_, _ = h.o.Rehash() // scan errors resurface on Root
			}
		}
	}()
}

// Stop quiesces and waits for the worker.
func (h *Hasher) Stop() {
	close(h.stop)
	h.wg.Wait()
}
