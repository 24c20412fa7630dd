package locks

import (
	"sync"
	"testing"
	"time"

	"blinktree/internal/base"
)

func TestTableMutualExclusion(t *testing.T) {
	tab := NewTable()
	const page = base.PageID(7)
	var inside, maxInside int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tab.Lock(page)
				mu.Lock()
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				mu.Unlock()
				mu.Lock()
				inside--
				mu.Unlock()
				tab.Unlock(page)
			}
		}()
	}
	wg.Wait()
	if maxInside != 1 {
		t.Fatalf("critical section had %d goroutines", maxInside)
	}
}

func TestTableDistinctPagesIndependent(t *testing.T) {
	tab := NewTable()
	tab.Lock(1)
	done := make(chan struct{})
	go func() {
		tab.Lock(2) // must not block on page 1's lock
		tab.Unlock(2)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("lock on a different page blocked")
	}
	tab.Unlock(1)
}

func TestHolderAccounting(t *testing.T) {
	h := NewHolder(NewTable())
	h.Lock(1)
	h.Lock(2)
	h.Lock(3)
	if h.Held() != 3 || h.MaxHeld() != 3 {
		t.Fatalf("held=%d max=%d, want 3/3", h.Held(), h.MaxHeld())
	}
	h.Unlock(2)
	if h.Held() != 2 || h.MaxHeld() != 3 {
		t.Fatalf("held=%d max=%d after one unlock, want 2/3", h.Held(), h.MaxHeld())
	}
	h.Lock(4)
	h.Unlock(1)
	h.Unlock(3)
	h.Unlock(4)
	if h.Held() != 0 {
		t.Fatal("locks leaked")
	}
	if h.Locks() != 4 {
		t.Fatalf("total acquisitions = %d, want 4", h.Locks())
	}
	h.Reset()
	if h.MaxHeld() != 0 || h.Locks() != 0 {
		t.Fatal("Reset did not clear counters")
	}
}

func TestHolderPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	h := NewHolder(NewTable())
	h.Lock(1)
	mustPanic("re-lock", func() { h.Lock(1) })
	mustPanic("reset while held", func() { h.Reset() })
	h.Unlock(1)
	mustPanic("unlock not held", func() { h.Unlock(9) })
}

func TestHolderUnlockAll(t *testing.T) {
	tab := NewTable()
	h := NewHolder(tab)
	h.Lock(1)
	h.Lock(2)
	h.UnlockAll()
	if h.Held() != 0 {
		t.Fatal("UnlockAll left locks")
	}
	// Pages must actually be free again.
	tab.Lock(1)
	tab.Unlock(1)
	tab.Lock(2)
	tab.Unlock(2)
}

func TestFootprintStats(t *testing.T) {
	tab := NewTable()
	var fs FootprintStats

	h := NewHolder(tab)
	h.Lock(1)
	h.Lock(2)
	h.Unlock(1)
	h.Unlock(2)
	fs.Record(h)
	h.Reset()

	h.Lock(3)
	h.Unlock(3)
	fs.Record(h)
	h.Reset()

	snap := fs.Snapshot()
	if snap.Ops != 2 || snap.Acquires != 3 || snap.MaxHeld != 2 {
		t.Fatalf("unexpected snapshot: %+v", snap)
	}
	if snap.MeanMaxHeld != 1.5 || snap.MeanLocks != 1.5 {
		t.Fatalf("unexpected means: %+v", snap)
	}
	fs.Reset()
	if s := fs.Snapshot(); s.Ops != 0 || s.MaxHeld != 0 {
		t.Fatalf("Reset did not zero: %+v", s)
	}
}

func TestFootprintStatsConcurrent(t *testing.T) {
	tab := NewTable()
	var fs FootprintStats
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := NewHolder(tab)
			for i := 0; i < 50; i++ {
				id := base.PageID(w*1000 + i)
				h.Lock(id)
				h.Unlock(id)
				fs.Record(h)
				h.Reset()
			}
		}(w)
	}
	wg.Wait()
	snap := fs.Snapshot()
	if snap.Ops != 200 || snap.Acquires != 200 || snap.MaxHeld != 1 {
		t.Fatalf("unexpected snapshot: %+v", snap)
	}
}

func TestRWTableSharedReaders(t *testing.T) {
	tab := NewRWTable()
	tab.RLock(5)
	done := make(chan struct{})
	go func() {
		tab.RLock(5) // shared with the other reader
		tab.RUnlock(5)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("second reader blocked")
	}
	tab.RUnlock(5)
}

func TestRWTableWriterExcludesReader(t *testing.T) {
	tab := NewRWTable()
	tab.Lock(5)
	acquired := make(chan struct{})
	go func() {
		tab.RLock(5)
		tab.RUnlock(5)
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("reader acquired while writer held")
	case <-time.After(50 * time.Millisecond):
	}
	tab.Unlock(5)
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("reader starved after writer release")
	}
}

func TestDetectorNoCycleOnCleanUse(t *testing.T) {
	d := NewDetector(NewTable())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := d.NewAgent()
			for i := 0; i < 100; i++ {
				// Parent-then-children order, as compression does.
				a.Lock(1)
				a.Lock(2)
				a.Lock(3)
				a.Unlock(3)
				a.Unlock(2)
				a.Unlock(1)
			}
		}()
	}
	wg.Wait()
	if d.Cycles() != 0 {
		t.Fatalf("clean ordered locking reported %d cycles", d.Cycles())
	}
}

func TestDetectorFindsCycle(t *testing.T) {
	d := NewDetector(NewTable())
	a1, a2 := d.NewAgent(), d.NewAgent()

	a1.Lock(1)
	a2.Lock(2)

	go func() { a1.Lock(2); a1.Unlock(2); a1.Unlock(1) }()
	// Give a1 time to block on page 2 so the wait edge is registered.
	time.Sleep(20 * time.Millisecond)
	go func() { a2.Lock(1); a2.Unlock(1); a2.Unlock(2) }()
	time.Sleep(50 * time.Millisecond)

	if d.Cycles() == 0 {
		t.Fatal("detector missed a genuine wait-for cycle")
	}
	// The two goroutines are genuinely deadlocked by construction; they
	// are deliberately abandoned (process exit reaps them). This is the
	// one test that must create a real cycle to validate the oracle.
}

// TestTableGrowsUnderConcurrentLocking: goroutines lock ever larger
// page ids, growing the table across many chunk boundaries, while
// others keep locking a small set of low pages. Run it under -race:
// each page's lock must still exclude, so the guarded counters end
// exact.
func TestTableGrowsUnderConcurrentLocking(t *testing.T) {
	tab := NewTable()
	const hot = 8
	var counts [hot]int
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if w%2 == 0 {
					id := base.PageID(1 + i%hot)
					tab.Lock(id)
					counts[id-1]++
					tab.Unlock(id)
				} else {
					id := base.PageID(1 + w*5000 + i*3)
					tab.Lock(id)
					tab.Unlock(id)
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 2*2000 {
		t.Fatalf("guarded increments = %d, want %d", total, 2*2000)
	}
}
