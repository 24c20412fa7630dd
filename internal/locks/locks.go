// Package locks implements the lock substrate of the paper's model
// (§2.2): a single lock type per node that excludes other lockers but
// not readers. It also provides
//
//   - Holder: per-operation accounting of how many locks are held
//     simultaneously, which is the unit of the paper's headline claim
//     (Sagiv insertions hold 1, Lehman–Yao up to 3, lock coupling ≥ 2);
//   - RWTable: read/write locks for the lock-coupling baseline;
//   - Detector: a wait-for-graph deadlock detector used as a test oracle
//     for Theorem 2's deadlock-freedom proof.
package locks

import (
	"sync"

	"blinktree/internal/base"
	"blinktree/internal/pagedir"
)

// Locker is a per-page mutual-exclusion service. Lock blocks until the
// page lock is available. Locks are not reentrant.
type Locker interface {
	Lock(id base.PageID)
	Unlock(id base.PageID)
}

// Table is the standard Locker: per-page mutexes in a directory
// indexed by page id, created on a page's first Lock and kept for the
// table's lifetime. Finding a page's mutex is an atomic load and an
// index, with no table-wide lock and no shared write.
type Table struct {
	dir pagedir.Dir[sync.Mutex]
}

// NewTable returns an empty lock table.
func NewTable() *Table { return &Table{} }

// Lock implements Locker.
func (t *Table) Lock(id base.PageID) { t.dir.LoadOrNew(id).Lock() }

// Unlock implements Locker.
func (t *Table) Unlock(id base.PageID) { t.dir.LoadOrNew(id).Unlock() }

// RWTable provides per-page read/write locks for algorithms (the
// lock-coupling baseline) that, unlike the paper's, make readers lock.
type RWTable struct {
	dir pagedir.Dir[sync.RWMutex]
}

// NewRWTable returns an empty read/write lock table.
func NewRWTable() *RWTable { return &RWTable{} }

// RLock takes the page lock in shared mode.
func (t *RWTable) RLock(id base.PageID) { t.dir.LoadOrNew(id).RLock() }

// RUnlock releases a shared hold.
func (t *RWTable) RUnlock(id base.PageID) { t.dir.LoadOrNew(id).RUnlock() }

// Lock takes the page lock exclusively.
func (t *RWTable) Lock(id base.PageID) { t.dir.LoadOrNew(id).Lock() }

// Unlock releases an exclusive hold.
func (t *RWTable) Unlock(id base.PageID) { t.dir.LoadOrNew(id).Unlock() }
