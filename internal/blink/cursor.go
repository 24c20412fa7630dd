package blink

import (
	"blinktree/internal/base"
	"blinktree/internal/node"
)

// Cursor iterates the tree in ascending key order by walking the leaf
// chain — the sequential-access pattern the right links were originally
// introduced for (§2.1 footnote 3). A Cursor holds no locks; it reads
// leaf snapshots and is therefore safe to keep open indefinitely while
// the tree mutates, with the same monotonic semantics as Range: keys
// come back strictly ascending, each at-most-once, and concurrent
// insertions or deletions may or may not be observed.
//
// A Next that reads pages runs inside its own reclamation epoch, so an
// idle cursor never holds back page reclamation; a Next served from the
// current leaf snapshot reads no page and enters no epoch. The price is
// that a leaf snapshot from an earlier Next may link to a page freed
// since, so the cursor follows a leaf's link only while no Collect has
// run since the leaf was read, and otherwise re-seeks from the next
// key.
//
// A Cursor is not safe for concurrent use by multiple goroutines.
type Cursor struct {
	t     *Tree
	leaf  *node.Node
	epoch uint64 // epoch of the Next that read leaf
	idx   int
	// next is the smallest key not yet returned; it makes sibling hops
	// and restarts idempotent.
	next    base.Key
	started bool
	done    bool
	err     error
}

// NewCursor returns a cursor positioned before the smallest key ≥ start.
func (t *Tree) NewCursor(start base.Key) *Cursor {
	return &Cursor{t: t, next: start}
}

// Err returns the error that terminated iteration, if any.
func (c *Cursor) Err() error { return c.err }

// Next advances to the following pair, returning false at the end of
// the tree or on error (check Err).
func (c *Cursor) Next() (base.Key, base.Value, bool) {
	if c.done || c.err != nil {
		return 0, 0, false
	}
	if c.leaf != nil {
		if k, v, ok := c.take(); ok {
			return k, v, true
		}
	}
	g, withEpoch := c.t.enter()
	defer c.t.exit(g, withEpoch)
	fresh := g.Epoch() == c.epoch
	c.epoch = g.Epoch()
	for attempt := 0; attempt < maxRestarts; attempt++ {
		k, v, ok, err := c.step(fresh)
		if err == nil {
			if !ok {
				c.done = true
				return 0, 0, false
			}
			return k, v, true
		}
		if !isRestart(err) {
			c.err = err
			return 0, 0, false
		}
		c.t.stats.restarts.Add(1)
		c.leaf = nil // re-seek from the root
	}
	c.err = ErrLivelock
	return 0, 0, false
}

// take returns the next pair ≥ c.next left in the current leaf
// snapshot.
func (c *Cursor) take() (base.Key, base.Value, bool) {
	for c.idx < len(c.leaf.Keys) {
		i := c.idx
		c.idx++
		k := c.leaf.Keys[i]
		if k < c.next {
			continue
		}
		if k == base.Key(^uint64(0)) {
			c.done = true // maximum key: nothing can follow
		} else {
			c.next = k + 1
		}
		return k, c.leaf.Vals[i], true
	}
	return 0, 0, false
}

// step yields the next pair ≥ c.next, seeking when unpositioned. fresh
// reports whether the current leaf was read in the caller's epoch; only
// then may its link be followed.
func (c *Cursor) step(fresh bool) (base.Key, base.Value, bool, error) {
	if c.leaf == nil {
		if err := c.seek(); err != nil {
			return 0, 0, false, err
		}
		fresh = true
	}
	for {
		if k, v, ok := c.take(); ok {
			return k, v, true, nil
		}
		// Advance past this leaf's range so later redistributions
		// cannot replay pairs.
		if c.leaf.High.Kind == base.PosInf || c.leaf.Link == base.NilPage {
			return 0, 0, false, nil
		}
		if c.leaf.High.K >= c.next {
			c.next = c.leaf.High.K + 1
		}
		if !fresh {
			// The link was read in an earlier epoch and may name a
			// page freed and reused since.
			if err := c.seek(); err != nil {
				return 0, 0, false, err
			}
			fresh = true
			continue
		}
		n, err := c.t.step(c.leaf.Link, c.next)
		if err != nil {
			return 0, 0, false, err
		}
		c.leaf = n
		c.idx = 0
		c.t.prefetchLink(n)
	}
}

// seek positions the cursor at the leaf that may contain c.next.
func (c *Cursor) seek() error {
	id, n, err := c.t.descend(c.next, nil)
	if err != nil {
		return err
	}
	if _, n, err = c.t.moveright(id, n, c.next); err != nil {
		return err
	}
	c.leaf = n
	c.idx = 0
	c.started = true
	c.t.prefetchLink(n)
	return nil
}

// Seek repositions the cursor before the smallest key ≥ k. Seeking
// backwards is allowed.
func (c *Cursor) Seek(k base.Key) {
	c.next = k
	c.leaf = nil
	c.idx = 0
	c.done = false
	c.err = nil
}
