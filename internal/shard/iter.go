package shard

import (
	"iter"

	"blinktree/internal/base"
)

// Range-over-func iteration over the whole fleet: ascending sequences
// walk the owning shards' tree cursors left to right, descending ones
// right to left. Partitions are contiguous, so chaining keeps global
// key order, and each shard keeps its tree cursor's no-locks,
// at-most-once, may-or-may-not-observe-concurrent-mutation semantics.
// A sequence that hits an internal error simply stops; use the cursor
// API directly when that distinction matters.

// All returns an iterator over every pair in ascending key order.
func (r *Router) All() iter.Seq2[base.Key, base.Value] {
	return r.Ascend(0, base.Key(^uint64(0)))
}

// Ascend returns an iterator over the pairs with lo ≤ key ≤ hi in
// ascending key order. An inverted range (hi < lo) is empty.
func (r *Router) Ascend(lo, hi base.Key) iter.Seq2[base.Key, base.Value] {
	return func(yield func(base.Key, base.Value) bool) {
		if hi < lo {
			return
		}
		for i := r.shardFor(lo); i <= r.shardFor(hi); i++ {
			c := r.engines[i].Tree.NewCursor(max(lo, r.lowKey(i)))
			for {
				k, v, ok := c.Next()
				if !ok || k > hi {
					break
				}
				if !yield(k, v) {
					return
				}
			}
		}
	}
}

// Descend returns an iterator over the pairs with lo ≤ key ≤ hi in
// descending key order, from hi down to lo. An inverted range
// (hi < lo) is empty.
func (r *Router) Descend(hi, lo base.Key) iter.Seq2[base.Key, base.Value] {
	return func(yield func(base.Key, base.Value) bool) {
		if hi < lo {
			return
		}
		for i := r.shardFor(hi); i >= r.shardFor(lo); i-- {
			c := r.engines[i].Tree.NewReverseCursor(min(hi, r.highKey(i)))
			for {
				k, v, ok := c.Next()
				if !ok || k < lo {
					break
				}
				if !yield(k, v) {
					return
				}
			}
		}
	}
}
