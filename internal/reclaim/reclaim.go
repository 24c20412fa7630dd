// Package reclaim implements epoch-based reclamation of deleted pages.
//
// The paper (§5.3) observes that a node emptied by compression cannot be
// handed back to the allocator immediately: concurrently running
// searches may still hold its address and must be able to read its
// deletion bit and outlink. The paper's release rule — "a node that
// becomes empty at time t can be released when all active searches,
// insertions, and deletions have started after time t" — is exactly
// epoch-based reclamation, which this package provides:
//
//   - every logical operation brackets itself with Enter/Exit;
//   - Retire(id) parks a dead page in a limbo list stamped with the
//     current epoch;
//   - Collect frees every limbo page whose epoch precedes the oldest
//     live operation.
package reclaim

import (
	"math"
	"sync"
	"sync/atomic"

	"blinktree/internal/base"
	"blinktree/internal/stripe"
)

// slots is the number of striped activity slots. More slots than
// expected concurrent operations keeps Enter wait-free in practice.
const slots = 128

// homeSpacing separates the home slots of consecutive Ps (16 Ps before
// homes wrap), leaving room to probe past a slot held by a goroutine
// that was descheduled mid-operation.
const homeSpacing = 8

// FreeFunc returns a page to the allocator.
type FreeFunc func(base.PageID) error

// Reclaimer tracks live operations and limbo pages. All methods are safe
// for concurrent use.
type Reclaimer struct {
	free FreeFunc

	epoch atomic.Uint64 // current global epoch, starts at 1
	slot  [slots]paddedSlot

	mu      sync.Mutex
	limbo   []retired
	retired atomic.Uint64 // lifetime count of Retire calls
	freed   atomic.Uint64 // lifetime count of pages handed to free
}

type paddedSlot struct {
	epoch atomic.Uint64 // 0 = inactive, else the epoch the op entered at
	_     [7]uint64     // avoid false sharing between adjacent slots
}

type retired struct {
	id    base.PageID
	epoch uint64
}

// New returns a Reclaimer that frees pages through free.
func New(free FreeFunc) *Reclaimer {
	r := &Reclaimer{free: free}
	r.epoch.Store(1)
	return r
}

// Guard is an open Enter bracket. The zero Guard is invalid.
type Guard struct {
	slot  int
	epoch uint64
}

// Epoch returns the epoch the bracket entered at. Two brackets with the
// same epoch saw no Collect start between their Enters, so a page id
// read in the earlier one has not been freed since.
func (g Guard) Epoch() uint64 { return g.epoch }

// Enter marks the start of a logical operation and returns its Guard.
// Every Enter must be paired with exactly one Exit.
//
// Slot choice matters on the hot path: Enter brackets every read as
// well as every write. Each P has a home slot, spaced so neighbouring
// Ps' homes sit several slots apart, and Enter probes linearly from
// the caller's home; a slot is then almost always claimed and released
// by one core, and its cache line stays there.
//
// After claiming a slot Enter re-reads the epoch and retries if a
// Collect advanced it meanwhile. Without that re-check a Collect could
// scan the slots between the epoch load and the claim, miss this
// operation, and free a page it is about to reach.
func (r *Reclaimer) Enter() Guard {
	i := stripe.Proc() * homeSpacing % slots
	for {
		e := r.epoch.Load()
		if !r.slot[i].epoch.CompareAndSwap(0, e) {
			if i++; i == slots {
				i = 0
			}
			continue
		}
		for {
			cur := r.epoch.Load()
			if cur == e {
				return Guard{slot: i + 1, epoch: e}
			}
			e = cur
			r.slot[i].epoch.Store(e)
		}
	}
}

// Exit closes the bracket opened by Enter.
func (r *Reclaimer) Exit(g Guard) {
	if g.slot == 0 {
		panic("reclaim: Exit with zero Guard")
	}
	r.slot[g.slot-1].epoch.Store(0)
}

// Retire parks a dead page; it will be freed by a later Collect once no
// operation that might still reference it remains live.
func (r *Reclaimer) Retire(id base.PageID) {
	e := r.epoch.Load()
	r.mu.Lock()
	r.limbo = append(r.limbo, retired{id: id, epoch: e})
	r.mu.Unlock()
	r.retired.Add(1)
}

// minActive returns the oldest epoch of any live operation, or MaxUint64
// if none are live.
func (r *Reclaimer) minActive() uint64 {
	min := uint64(math.MaxUint64)
	for i := range r.slot {
		if e := r.slot[i].epoch.Load(); e != 0 && e < min {
			min = e
		}
	}
	return min
}

// Collect advances the epoch and frees every limbo page retired before
// the oldest live operation entered and before this Collect began, so a
// page retired while the slots were being scanned waits for the next
// Collect (Guard.Epoch relies on that). It returns the number of pages
// freed and the first free error encountered, if any.
func (r *Reclaimer) Collect() (int, error) {
	min := r.epoch.Add(1)
	if a := r.minActive(); a < min {
		min = a
	}

	r.mu.Lock()
	var keep, release []retired
	for _, it := range r.limbo {
		if it.epoch < min {
			release = append(release, it)
		} else {
			keep = append(keep, it)
		}
	}
	r.limbo = keep
	r.mu.Unlock()

	var firstErr error
	n := 0
	for _, it := range release {
		if err := r.free(it.id); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		n++
	}
	r.freed.Add(uint64(n))
	return n, firstErr
}

// ReclaimStats is a snapshot of lifetime counters.
type ReclaimStats struct {
	Retired uint64 // pages ever retired
	Freed   uint64 // pages handed back to the allocator
	Limbo   int    // pages currently parked
}

// Stats returns the current counters.
func (r *Reclaimer) Stats() ReclaimStats {
	r.mu.Lock()
	l := len(r.limbo)
	r.mu.Unlock()
	return ReclaimStats{
		Retired: r.retired.Load(),
		Freed:   r.freed.Load(),
		Limbo:   l,
	}
}
