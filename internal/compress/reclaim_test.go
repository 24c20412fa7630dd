package compress

import (
	"slices"
	"testing"

	"blinktree/internal/base"
	"blinktree/internal/blink"
	"blinktree/internal/locks"
	"blinktree/internal/node"
	"blinktree/internal/reclaim"
)

// TestParkedCursorSkipsFreedNeighbour parks a cursor inside the first
// leaf, merges that leaf's right neighbour away, frees it and hands its
// id out again with unrelated content. The cursor's leaf snapshot still
// links to the reused id; Next must re-seek instead of following it,
// and return exactly the remaining keys.
func TestParkedCursorSkipsFreedNeighbour(t *testing.T) {
	const k = 2
	st := node.NewMemStore()
	lt := locks.NewTable()
	rec := reclaim.New(st.Free)
	tr, err := blink.New(blink.Config{Store: st, Locks: lt, MinPairs: k, Reclaimer: rec})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCompressor(st, lt, k, rec)
	c.Attach(tr)
	for i := 0; i < 64; i++ {
		if err := tr.Insert(base.Key(i), base.Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	p, err := st.ReadPrime()
	if err != nil {
		t.Fatal(err)
	}
	first, err := st.Get(p.Leftmost[0])
	if err != nil {
		t.Fatal(err)
	}
	right := first.Link
	consumed := first.Keys[:len(first.Keys)-1]

	// Park the cursor on the first leaf's last key.
	cur := tr.NewCursor(0)
	for _, want := range consumed {
		if got, _, ok := cur.Next(); !ok || got != want {
			t.Fatalf("Next = %d, %v; want %d", got, ok, want)
		}
	}

	// Empty the first leaf below k so compression merges its right
	// neighbour into it, then free that neighbour and reuse its id.
	for _, key := range consumed {
		if err := tr.Delete(key); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.DrainOnce(); err != nil {
		t.Fatal(err)
	}
	if n, err := st.Get(right); err != nil || !n.Deleted {
		t.Fatalf("precondition: right neighbour %d not merged away (%v)", right, err)
	}
	freed, err := rec.Collect()
	if err != nil {
		t.Fatal(err)
	}
	reused := false
	for i := 0; i < freed && !reused; i++ {
		id, err := st.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		// A leaf claiming the whole key space: a cursor that followed
		// the stale link would return its key and stop.
		if err := st.Put(&node.Node{
			ID: id, Leaf: true, Low: base.NegInfBound(), High: base.PosInfBound(),
			Keys: []base.Key{1 << 40}, Vals: []base.Value{0},
		}); err != nil {
			t.Fatal(err)
		}
		reused = id == right
	}
	if !reused {
		t.Fatalf("the %d pages Collect freed did not include %d", freed, right)
	}

	var got, want []base.Key
	for {
		key, _, ok := cur.Next()
		if !ok {
			break
		}
		got = append(got, key)
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("cursor: %v", err)
	}
	for i := first.Keys[len(first.Keys)-1]; i < 64; i++ {
		want = append(want, i)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("cursor returned %v, want %v", got, want)
	}
}
