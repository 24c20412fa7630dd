package compress

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"blinktree/internal/base"
	"blinktree/internal/blink"
	"blinktree/internal/locks"
	"blinktree/internal/node"
	"blinktree/internal/reclaim"
)

// Compressor implements the queue-driven compression of §5.4: deletion
// processes enqueue nodes that fall under k pairs, and one or more
// worker processes drain the queue, each locking parent + two adjacent
// children to merge or redistribute. All three deployment shapes of the
// paper map onto it:
//
//   - §5.4 mode 1 (single process, one queue): Start(1)
//   - §5.4 mode 2 (worker pool, shared queue):  Start(n)
//   - §5.4 mode 3 (per-deletion processes):     DrainOnce from the
//     deleting goroutine, or short-lived Start/Stop pairs
type Compressor struct {
	st  node.Store
	lt  locks.Locker
	k   int
	rec *reclaim.Reclaimer

	queue *Queue
	wg    sync.WaitGroup

	// gate lets Pause quiesce the background workers: each worker holds
	// it shared around one compression, Pause takes it exclusively — so
	// Pause returns only once no rearrangement is in flight and blocks
	// new ones until Resume. Durable checkpoints need this: a fuzzy
	// snapshot scan must not race pair movement to the left, which only
	// compression produces.
	gate sync.RWMutex

	stats CompressorStats
}

// CompressorStats counts worker activity.
type CompressorStats struct {
	Merges, Redistributions, Skips atomic.Uint64
	Requeues, Discards             atomic.Uint64
	RootCollapses                  atomic.Uint64
	Footprint                      locks.FootprintStats
}

// NewCompressor builds a Compressor over the tree's substrate with its
// own queue. rec may be nil.
func NewCompressor(st node.Store, lt locks.Locker, minPairs int, rec *reclaim.Reclaimer) *Compressor {
	return &Compressor{st: st, lt: lt, k: minPairs, rec: rec, queue: NewQueue()}
}

// Queue returns the compressor's queue.
func (c *Compressor) Queue() *Queue { return c.queue }

// Stats exposes the counters.
func (c *Compressor) Stats() *CompressorStats { return &c.stats }

// Attach installs the compressor as tr's underfull handler, so every
// deletion that leaves a leaf under k pairs enqueues it (§5.4: the
// deletion process holds the node's lock while putting it on the
// queue, which Offer's update=true relies on).
func (c *Compressor) Attach(tr *blink.Tree) {
	tr.SetUnderfullHandler(func(ev blink.UnderfullEvent) {
		c.queue.Offer(ev, true)
	})
}

// collectBatch is how many retired pages background workers let build
// up in limbo before they run a Collect: enough to amortize its scan of
// the epoch slots, few enough that limbo stays a rounding error.
const collectBatch = 64

// Start launches n background workers that block on the queue. After
// each compression a worker frees retired pages once collectBatch of
// them wait in limbo (§5.3: a page is released once every operation
// older than its deletion has finished), so a long-running tree needs
// no caller to collect garbage.
func (c *Compressor) Start(n int) {
	for i := 0; i < n; i++ {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			for {
				ev, ok := c.queue.Pop()
				if !ok {
					return
				}
				c.gate.RLock()
				_ = c.compressOne(ev) // errors are counted, not fatal
				c.collectIfDue()
				c.gate.RUnlock()
			}
		}()
	}
}

// Stop closes the queue and waits for the workers to exit.
func (c *Compressor) Stop() {
	c.queue.Close()
	c.wg.Wait()
}

// Pause blocks until no background compression is in flight and keeps
// the workers from starting more until Resume. Deletions keep
// enqueueing underfull nodes meanwhile — nothing is lost, repair just
// waits. Pause/Resume pairs must not be nested.
func (c *Compressor) Pause() { c.gate.Lock() }

// Resume lets the background workers drain the queue again.
func (c *Compressor) Resume() { c.gate.Unlock() }

// DrainOnce synchronously processes queue entries until the queue is
// empty or no further progress is possible (entries that only requeue
// are abandoned after a bounded number of attempts). It is the
// quiesced-compaction entry point used by tests and benchmarks.
func (c *Compressor) DrainOnce() error {
	attempts := make(map[base.PageID]int)
	for {
		ev, ok := c.queue.TryPop()
		if !ok {
			return nil
		}
		if attempts[ev.ID]++; attempts[ev.ID] > 8 {
			c.stats.Discards.Add(1)
			continue
		}
		if err := c.compressOne(ev); err != nil {
			return err
		}
	}
}

// compressOne handles one dequeued node per the §5.4 case analysis.
func (c *Compressor) compressOne(ev blink.UnderfullEvent) error {
	if c.rec != nil {
		g := c.rec.Enter()
		defer c.rec.Exit(g)
	}
	h := locks.NewHolder(c.lt)
	defer func() {
		h.UnlockAll()
		c.stats.Footprint.Record(h)
	}()

	f, ok, err := c.locateParent(h, ev)
	if err != nil {
		return err
	}
	if !ok {
		// The node's level has become the root level (§5.4: "nothing
		// has to be done about A").
		c.stats.Discards.Add(1)
		return nil
	}

	j := f.FindChild(ev.ID)
	if j < 0 || !f.SeparatorAfter(j).Equal(ev.High) {
		// F does not have the pair (p, v) — including the "p and v both
		// appear but not adjacent" subcase (§5.4 footnote 14).
		h.Unlock(f.ID)
		cur, err := c.st.Get(ev.ID)
		if errors.Is(err, base.ErrClosed) {
			return err
		}
		if err != nil || cur.Deleted || !cur.High.Equal(ev.High) {
			// A was split, compressed or even freed since it was
			// queued: whoever changed it requeued it if it still needs
			// work; discard.
			c.stats.Discards.Add(1)
			return nil
		}
		// High unchanged but the pointer is missing: the separator
		// insertion is still in flight; reconsider later. F may have
		// come from a stacked page that was freed and reused, so the
		// next attempt finds the parent from the root.
		ev.Stack = nil
		c.requeue(ev)
		return nil
	}

	if len(f.Children) == 1 {
		return c.singlePointerParent(h, f, ev)
	}
	if j < len(f.Children)-1 {
		return c.rearrangeWithRight(h, f, j, ev)
	}
	return c.rearrangeWithLeft(h, f, j, ev)
}

// rearrangeWithRight is §5.4 case (1): A is not the rightmost child, so
// pair it with its right sibling.
func (c *Compressor) rearrangeWithRight(h *locks.Holder, f *node.Node, j int, ev blink.UnderfullEvent) error {
	aID := f.Children[j]
	h.Lock(aID)
	a, err := c.st.Get(aID)
	if err != nil {
		return err
	}
	if a.Deleted {
		h.Unlock(aID)
		h.Unlock(f.ID)
		c.stats.Discards.Add(1)
		return nil
	}
	twoID := a.Link
	if twoID == base.NilPage || twoID != f.Children[j+1] {
		// A split since it was queued (its link now points at a node
		// whose pointer is not yet in F): put A back for later.
		h.Unlock(aID)
		h.Unlock(f.ID)
		c.requeue(ev)
		return nil
	}
	h.Lock(twoID)
	b, err := c.st.Get(twoID)
	if err != nil {
		return err
	}
	res, err := rearrange(c.st, h, f, j, a, b, c.k)
	if err != nil {
		return err
	}
	c.afterRearrange(res, ev.Level, ev.Stack)
	return nil
}

// rearrangeWithLeft is §5.4 case (2): A is the rightmost child, so pair
// it with the left neighbour named by the preceding pointer in F. The
// deleted node is then A itself.
func (c *Compressor) rearrangeWithLeft(h *locks.Holder, f *node.Node, j int, ev blink.UnderfullEvent) error {
	leftID := f.Children[j-1]
	h.Lock(leftID)
	left, err := c.st.Get(leftID)
	if err != nil {
		return err
	}
	if left.Deleted || left.Link != ev.ID {
		// The left neighbour's link does not point to A (e.g. it split
		// in between): unlock and requeue A — this is the one requeue
		// the paper notes happens without holding A's lock, so the
		// queued info must not be overwritten (update=false).
		h.Unlock(leftID)
		h.Unlock(f.ID)
		c.requeue(ev)
		return nil
	}
	h.Lock(ev.ID)
	a, err := c.st.Get(ev.ID)
	if err != nil {
		return err
	}
	if a.Deleted {
		h.UnlockAll()
		c.stats.Discards.Add(1)
		return nil
	}
	res, err := rearrange(c.st, h, f, j-1, left, a, c.k)
	if err != nil {
		return err
	}
	c.afterRearrange(res, ev.Level, ev.Stack)
	return nil
}

// afterRearrange performs the §5.4 bookkeeping: retire and dequeue the
// deleted node, requeue the survivor or parent if they are now
// underfull.
func (c *Compressor) afterRearrange(res rearrangeResult, level int, stack []base.PageID) {
	switch res.outcome {
	case outcomeMerged:
		c.stats.Merges.Add(1)
		c.queue.Remove(res.deleted)
		if c.rec != nil {
			c.rec.Retire(res.deleted)
		}
	case outcomeRedistributed:
		c.stats.Redistributions.Add(1)
	default:
		c.stats.Skips.Add(1)
		return
	}
	if s := res.survivor; s.Pairs() < c.k && !s.Root {
		c.queue.Offer(blink.UnderfullEvent{
			ID: s.ID, Level: level, High: s.High,
			Stack: append([]base.PageID(nil), stack...),
		}, false)
	}
	if p := res.parent; p.Pairs() < c.k && !p.Root {
		parentStack := stack
		if len(parentStack) > 0 {
			parentStack = parentStack[:len(parentStack)-1]
		}
		c.queue.Offer(blink.UnderfullEvent{
			ID: p.ID, Level: level + 1, High: p.High,
			Stack: append([]base.PageID(nil), parentStack...),
		}, false)
	}
}

// singlePointerParent handles the two special cases of §5.4 where F has
// exactly one pointer: if F is the root, collapse the tree height; if
// not, F itself must be compressed first, so enqueue F and requeue A.
func (c *Compressor) singlePointerParent(h *locks.Holder, f *node.Node, ev blink.UnderfullEvent) error {
	if f.Root {
		h.Unlock(f.ID)
		// Collapse through a Scanner-equivalent single step; the
		// collapse relocks root and child in order.
		s := &Scanner{st: c.st, lt: c.lt, k: c.k, rec: c.rec}
		for {
			collapsed, err := s.collapseRootOnce()
			if err != nil {
				return err
			}
			if !collapsed {
				break
			}
			c.stats.RootCollapses.Add(1)
		}
		// A may now be the root or have a different parent; requeue so
		// the normal path re-evaluates it (it is discarded if its level
		// became the root level).
		c.requeue(ev)
		return nil
	}
	// F has one pointer and is not the root: it is itself underfull
	// (zero separators), and A cannot be compressed until F gains a
	// neighbour pointer for it (§5.4: "F is also on the queue and must
	// be compressed before A"). We hold F's lock, so update=true.
	parentStack := ev.Stack
	if len(parentStack) > 0 {
		parentStack = parentStack[:len(parentStack)-1]
	}
	c.queue.Offer(blink.UnderfullEvent{
		ID: f.ID, Level: ev.Level + 1, High: f.High,
		Stack: append([]base.PageID(nil), parentStack...),
	}, true)
	h.Unlock(f.ID)
	c.requeue(ev)
	return nil
}

func (c *Compressor) requeue(ev blink.UnderfullEvent) {
	c.stats.Requeues.Add(1)
	c.queue.Offer(ev, false)
}

// collectIfDue runs a Collect when collectBatch pages wait in limbo. A
// background worker calls it outside any epoch of its own, so its own
// work never holds a page back.
func (c *Compressor) collectIfDue() {
	if c.rec == nil || c.rec.Stats().Limbo < collectBatch {
		return
	}
	// A free error means the allocator refused a page it handed out;
	// the page stays unusable either way, and the worker must go on
	// compressing, so like compression errors it is not fatal.
	_, _ = c.rec.Collect()
}

// CollectGarbage frees retired pages that no live operation can still
// reference. It is a no-op without a reclaimer.
func (c *Compressor) CollectGarbage() (int, error) {
	if c.rec == nil {
		return 0, nil
	}
	return c.rec.Collect()
}

// locateParent finds and locks the node at ev.Level+1 that should
// contain A's high value, starting from the stack top when possible and
// restarting from the root otherwise (§5.4). It returns ok=false when
// A's level has become the root level.
func (c *Compressor) locateParent(h *locks.Holder, ev blink.UnderfullEvent) (*node.Node, bool, error) {
	target := ev.Level + 1
	v := ev.High

	for attempt := 0; ; attempt++ {
		p, err := c.st.ReadPrime()
		if err != nil {
			return nil, false, err
		}
		if p.Levels <= target {
			return nil, false, nil // whole parent level is gone
		}
		var cur base.PageID
		fromStack := attempt == 0 && len(ev.Stack) > 0
		if fromStack {
			cur = ev.Stack[len(ev.Stack)-1]
		} else {
			cur, err = c.descendToLevelBound(p, v, target)
			if err != nil {
				return nil, false, err
			}
			if cur == base.NilPage {
				return nil, false, nil
			}
		}
		f, ok, err := c.chaseAndLock(h, cur, v)
		if err != nil && !fromStack {
			return nil, false, err
		}
		if err == nil && ok {
			return f, true, nil
		}
		// Stale entry point (a stacked page may even have been freed
		// since A was queued); retry from the root.
	}
}

// chaseAndLock moves right from cur to the node whose range admits v,
// then locks it and re-reads to confirm (the lock-validate protocol of
// §5.4). ok=false means the walk hit a dead end and the caller should
// restart from the root.
func (c *Compressor) chaseAndLock(h *locks.Holder, cur base.PageID, v base.Bound) (*node.Node, bool, error) {
	for hops := 0; hops < 1<<16; hops++ {
		n, err := c.st.Get(cur)
		if err != nil {
			return nil, false, err
		}
		if n.Deleted {
			if n.OutLink == base.NilPage {
				return nil, false, nil
			}
			cur = n.OutLink
			continue
		}
		if !n.Low.LessBound(v) {
			return nil, false, nil // overshot: v belongs to the left
		}
		if n.High.LessBound(v) {
			if n.Link == base.NilPage {
				return nil, false, nil
			}
			cur = n.Link
			continue
		}
		// Candidate: lock, re-read, re-validate.
		h.Lock(cur)
		n2, err := c.st.Get(cur)
		if err != nil {
			h.Unlock(cur)
			return nil, false, err
		}
		if n2.Deleted || !n2.Low.LessBound(v) {
			h.Unlock(cur)
			return nil, false, nil
		}
		if n2.High.LessBound(v) {
			h.Unlock(cur)
			cur = n2.Link
			if cur == base.NilPage {
				return nil, false, nil
			}
			continue
		}
		return n2, true, nil
	}
	return nil, false, nil
}

// descendToLevelBound walks from the root to the target level chasing
// the bound v (which may be +∞ for rightmost nodes).
func (c *Compressor) descendToLevelBound(p node.Prime, v base.Bound, target int) (base.PageID, error) {
	cur := p.Root
	lvl := p.Levels - 1
	for lvl > target {
		n, err := c.st.Get(cur)
		if err != nil {
			return base.NilPage, err
		}
		switch {
		case n.Deleted:
			if n.OutLink == base.NilPage {
				return p.Leftmost[target], nil
			}
			cur = n.OutLink
		case !n.Low.LessBound(v):
			return p.Leftmost[target], nil
		case n.High.LessBound(v):
			if n.Link == base.NilPage {
				return p.Leftmost[target], nil
			}
			cur = n.Link
		case n.Leaf:
			return base.NilPage, base.ErrCorrupt
		default:
			cur = childForBound(n, v)
			lvl--
		}
	}
	return cur, nil
}

// childForBound returns the child of n whose separator interval admits
// v; v must satisfy Low < v ≤ High.
func childForBound(n *node.Node, v base.Bound) base.PageID {
	i := sort.Search(len(n.Keys), func(i int) bool {
		return !base.FiniteBound(n.Keys[i]).LessBound(v)
	})
	return n.Children[i]
}
