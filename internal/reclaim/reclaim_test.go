package reclaim

import (
	"errors"
	"sync"
	"testing"

	"blinktree/internal/base"
)

// collectFreed runs Collect and returns the ids freed so far via the
// recording free function.
type recorder struct {
	mu    sync.Mutex
	freed []base.PageID
	fail  bool
}

func (rec *recorder) free(id base.PageID) error {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.fail {
		return errors.New("boom")
	}
	rec.freed = append(rec.freed, id)
	return nil
}

func (rec *recorder) ids() []base.PageID {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return append([]base.PageID(nil), rec.freed...)
}

func TestRetireFreedWhenQuiet(t *testing.T) {
	rec := &recorder{}
	r := New(rec.free)
	r.Retire(42)
	n, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("freed %d pages, want 1", n)
	}
	if ids := rec.ids(); len(ids) != 1 || ids[0] != 42 {
		t.Fatalf("freed ids = %v", ids)
	}
}

func TestRetireHeldWhileOpLive(t *testing.T) {
	rec := &recorder{}
	r := New(rec.free)

	g := r.Enter() // an old operation is live
	r.Retire(7)    // page retired while the op might reference it

	if n, _ := r.Collect(); n != 0 {
		t.Fatalf("page freed under a live older operation (n=%d)", n)
	}
	if st := r.Stats(); st.Limbo != 1 || st.Retired != 1 || st.Freed != 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}

	r.Exit(g)
	if n, _ := r.Collect(); n != 1 {
		t.Fatal("page not freed after the old operation exited")
	}
	if st := r.Stats(); st.Limbo != 0 || st.Freed != 1 {
		t.Fatalf("unexpected stats after free: %+v", st)
	}
}

func TestYoungOpDoesNotBlockOldRetire(t *testing.T) {
	rec := &recorder{}
	r := New(rec.free)

	r.Retire(9)
	// Advance the epoch so a subsequent Enter is strictly younger than
	// the retirement.
	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	// Page 9 freed already (nothing was live). Retire another while a
	// young op is live but entered after retirement epoch advanced.
	r.Retire(10)
	_, _ = r.Collect() // bumps epoch; 10 may or may not free depending on live ops — none live, frees
	g := r.Enter()
	r.Retire(11)
	// g entered at the current epoch; 11 was retired at the same epoch,
	// so it must be held.
	if n, _ := r.Collect(); n != 0 {
		t.Fatalf("page 11 freed while same-epoch op live (n=%d)", n)
	}
	r.Exit(g)
	if n, _ := r.Collect(); n != 1 {
		t.Fatal("page 11 not freed after exit")
	}
}

func TestCollectError(t *testing.T) {
	rec := &recorder{fail: true}
	r := New(rec.free)
	r.Retire(1)
	n, err := r.Collect()
	if err == nil {
		t.Fatal("expected free error to propagate")
	}
	if n != 0 {
		t.Fatalf("n = %d with failing free", n)
	}
}

func TestExitZeroGuardPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(func(base.PageID) error { return nil }).Exit(Guard{})
}

func TestEnterExitManyConcurrent(t *testing.T) {
	rec := &recorder{}
	r := New(rec.free)
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g := r.Enter()
				if i%10 == 0 {
					r.Retire(base.PageID(w*1000 + i + 1))
				}
				r.Exit(g)
			}
		}(w)
	}
	wg.Wait()
	// Everything is quiet now; a single collect must free all limbo.
	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Limbo != 0 {
		t.Fatalf("limbo not drained: %+v", st)
	}
	if st.Retired != st.Freed {
		t.Fatalf("retired %d != freed %d", st.Retired, st.Freed)
	}
}

func TestSlotExhaustionDoesNotDeadlock(t *testing.T) {
	r := New(func(base.PageID) error { return nil })
	// Occupy many slots simultaneously, then release; Enter must always
	// eventually find a slot.
	guards := make([]Guard, 100)
	for i := range guards {
		guards[i] = r.Enter()
	}
	for _, g := range guards {
		r.Exit(g)
	}
	g := r.Enter()
	r.Exit(g)
}

// TestGuardEpochChangesOnlyWithCollect: brackets entered with no
// Collect in between share an epoch, so a page id read in the first is
// still safe in the second; a Collect in between changes the epoch.
func TestGuardEpochChangesOnlyWithCollect(t *testing.T) {
	r := New((&recorder{}).free)
	g1 := r.Enter()
	r.Exit(g1)
	g2 := r.Enter()
	r.Exit(g2)
	if g1.Epoch() != g2.Epoch() {
		t.Fatalf("epochs %d and %d differ with no Collect between", g1.Epoch(), g2.Epoch())
	}
	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	g3 := r.Enter()
	r.Exit(g3)
	if g3.Epoch() == g2.Epoch() {
		t.Fatal("epoch unchanged across a Collect")
	}
}
