package pagedir

import (
	"sync"
	"testing"

	"blinktree/internal/base"
)

func TestSlotBeyondDirectoryIsNil(t *testing.T) {
	var d Dir[int]
	if d.Slot(1) != nil {
		t.Fatal("empty directory returned a slot")
	}
	d.Grow(chunkSize - 1)
	if d.Slot(chunkSize-1) == nil {
		t.Fatal("grown id has no slot")
	}
	if d.Slot(chunkSize) != nil {
		t.Fatal("slot past the last chunk")
	}
}

// TestGrowKeepsSlots: growth copies only chunk pointers, so a slot
// taken before the directory grew is the same slot afterwards, still
// holding what was stored in it.
func TestGrowKeepsSlots(t *testing.T) {
	var d Dir[int]
	v := 42
	s := d.Grow(3)
	s.Store(&v)
	d.Grow(10 * chunkSize)
	if d.Slot(3) != s || *d.Slot(3).Load() != 42 {
		t.Fatal("slot moved or lost its value across growth")
	}
}

// TestLoadOrNewConcurrent: goroutines racing LoadOrNew on the same ids
// while others grow the directory all get the same value per id. Run
// it under -race.
func TestLoadOrNewConcurrent(t *testing.T) {
	var d Dir[int]
	const ids = 4 * chunkSize
	got := make([][ids]*int, 4)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ids; i++ {
				id := base.PageID(i)
				if w%2 == 1 {
					id = base.PageID(ids - 1 - i) // grow from the top down
				}
				got[w][id] = d.LoadOrNew(id)
			}
		}(w)
	}
	wg.Wait()
	for id := 0; id < ids; id++ {
		for w := 1; w < len(got); w++ {
			if got[w][id] != got[0][id] {
				t.Fatalf("id %d: goroutines got different values", id)
			}
		}
	}
}
