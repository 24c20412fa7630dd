package blink

import (
	"sync/atomic"

	"blinktree/internal/locks"
	"blinktree/internal/stripe"
)

// Stats holds the tree's operation counters. All fields are updated
// atomically; Snapshot returns a consistent-enough copy for reporting.
// The per-operation counters are striped by processor, so bumping them
// writes no cache line another core is writing; the rest count slow
// paths and stay plain atomics.
type Stats struct {
	searches stripe.Counter
	inserts  stripe.Counter
	deletes  stripe.Counter
	scans    stripe.Counter

	upserts stripe.Counter // Upsert + GetOrInsert
	updates stripe.Counter // Update
	cas     stripe.Counter // CompareAndSwap + CompareAndDelete attempts

	splits     atomic.Uint64 // node splits, including root splits
	rootSplits atomic.Uint64 // new roots created

	linkHops    atomic.Uint64 // right-link follows (the B-link overhead)
	outlinkHops atomic.Uint64 // deleted-node forwards (§5.2 case 1)
	restarts    atomic.Uint64 // wrong-node restarts (§5.2 case 2)
	backtracks  atomic.Uint64 // restart attempts resumed from the stack
	levelWaits  atomic.Uint64 // §3.3 waits for a level to appear

	underfullEvents atomic.Uint64 // underfull hook firings

	insertFP locks.FootprintStats
	deleteFP locks.FootprintStats
	condFP   locks.FootprintStats
}

// StatsSnapshot is a point-in-time copy of the counters.
type StatsSnapshot struct {
	Searches, Inserts, Deletes, Scans uint64

	// Upserts counts Upsert + GetOrInsert, Updates counts Update, and
	// Cas counts CompareAndSwap + CompareAndDelete attempts (successful
	// or not).
	Upserts, Updates, Cas uint64

	Splits, RootSplits uint64

	LinkHops, OutlinkHops, Restarts, Backtracks, LevelWaits uint64

	UnderfullEvents uint64

	// InsertLocks, DeleteLocks and CondLocks summarize the lock
	// footprint of updates (CondLocks covers the conditional writes).
	// Searches take no locks by construction.
	InsertLocks locks.Footprint
	DeleteLocks locks.Footprint
	CondLocks   locks.Footprint
}

// Stats returns a snapshot of the counters.
func (t *Tree) Stats() StatsSnapshot {
	return StatsSnapshot{
		Searches:        t.stats.searches.Load(),
		Inserts:         t.stats.inserts.Load(),
		Deletes:         t.stats.deletes.Load(),
		Scans:           t.stats.scans.Load(),
		Upserts:         t.stats.upserts.Load(),
		Updates:         t.stats.updates.Load(),
		Cas:             t.stats.cas.Load(),
		Splits:          t.stats.splits.Load(),
		RootSplits:      t.stats.rootSplits.Load(),
		LinkHops:        t.stats.linkHops.Load(),
		OutlinkHops:     t.stats.outlinkHops.Load(),
		Restarts:        t.stats.restarts.Load(),
		Backtracks:      t.stats.backtracks.Load(),
		LevelWaits:      t.stats.levelWaits.Load(),
		UnderfullEvents: t.stats.underfullEvents.Load(),
		InsertLocks:     t.stats.insertFP.Snapshot(),
		DeleteLocks:     t.stats.deleteFP.Snapshot(),
		CondLocks:       t.stats.condFP.Snapshot(),
	}
}

// ResetStats zeroes every counter.
func (t *Tree) ResetStats() {
	t.stats.searches.Reset()
	t.stats.inserts.Reset()
	t.stats.deletes.Reset()
	t.stats.scans.Reset()
	t.stats.upserts.Reset()
	t.stats.updates.Reset()
	t.stats.cas.Reset()
	t.stats.splits.Store(0)
	t.stats.rootSplits.Store(0)
	t.stats.linkHops.Store(0)
	t.stats.outlinkHops.Store(0)
	t.stats.restarts.Store(0)
	t.stats.backtracks.Store(0)
	t.stats.levelWaits.Store(0)
	t.stats.underfullEvents.Store(0)
	t.stats.insertFP.Reset()
	t.stats.deleteFP.Reset()
	t.stats.condFP.Reset()
}
