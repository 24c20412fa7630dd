package blinktree_test

import (
	"errors"
	"fmt"
	"log"

	"blinktree"
)

// The basic lifecycle: open, insert, search, delete.
func Example() {
	t, err := blinktree.Open(blinktree.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer t.Close()

	_ = t.Insert(42, 420)
	v, _ := t.Search(42)
	fmt.Println(v)

	if _, err := t.Search(7); errors.Is(err, blinktree.ErrNotFound) {
		fmt.Println("7 not found")
	}
	// Output:
	// 420
	// 7 not found
}

// Upsert and friends are atomic read-modify-write operations: one
// descent, with the present/absent decision taken under the single
// held leaf lock — no racy Search+Insert pairs.
func ExampleTree_Upsert() {
	t, _ := blinktree.Open(blinktree.Options{})
	defer t.Close()

	old, existed, _ := t.Upsert(1, 100)
	fmt.Println(old, existed)
	old, existed, _ = t.Upsert(1, 200)
	fmt.Println(old, existed)

	v, _ := t.Update(1, func(v blinktree.Value) blinktree.Value { return v + 5 })
	fmt.Println(v)

	swapped, _ := t.CompareAndSwap(1, 205, 300)
	fmt.Println(swapped)
	deleted, _ := t.CompareAndDelete(1, 999) // stale expectation
	fmt.Println(deleted)
	// Output:
	// 0 false
	// 100 true
	// 205
	// true
	// false
}

// All, Ascend and Descend are range-over-func iterators (Go 1.23).
func ExampleTree_All() {
	t, _ := blinktree.Open(blinktree.Options{})
	defer t.Close()
	for _, k := range []blinktree.Key{5, 1, 9, 3} {
		_ = t.Insert(k, blinktree.Value(k*10))
	}
	for k, v := range t.All() {
		fmt.Println(k, v)
	}
	// Output:
	// 1 10
	// 3 30
	// 5 50
	// 9 90
}

// Descend walks a window in reverse key order.
func ExampleTree_Descend() {
	t, _ := blinktree.Open(blinktree.Options{})
	defer t.Close()
	for i := 0; i < 10; i++ {
		_ = t.Insert(blinktree.Key(i), blinktree.Value(i))
	}
	for k := range t.Descend(7, 4) {
		fmt.Println(k)
	}
	// Output:
	// 7
	// 6
	// 5
	// 4
}

// GetOrInsert is the cache idiom: one atomic lookup-or-fill.
func ExampleTree_GetOrInsert() {
	s := blinktree.NewSharded(4)
	defer s.Close()

	v, loaded, _ := s.GetOrInsert(42, 420)
	fmt.Println(v, loaded)
	v, loaded, _ = s.GetOrInsert(42, 999)
	fmt.Println(v, loaded)
	// Output:
	// 420 false
	// 420 true
}

// Range scans pairs in ascending key order through the leaf links.
func ExampleTree_Range() {
	t, _ := blinktree.Open(blinktree.Options{})
	defer t.Close()
	for _, k := range []blinktree.Key{5, 1, 9, 3, 7} {
		_ = t.Insert(k, blinktree.Value(k*100))
	}
	_ = t.Range(3, 7, func(k blinktree.Key, v blinktree.Value) bool {
		fmt.Println(k, v)
		return true
	})
	// Output:
	// 3 300
	// 5 500
	// 7 700
}

// Cursors iterate incrementally and can reposition with Seek.
func ExampleTree_NewCursor() {
	t, _ := blinktree.Open(blinktree.Options{})
	defer t.Close()
	for i := 0; i < 10; i++ {
		_ = t.Insert(blinktree.Key(i*10), blinktree.Value(i))
	}
	c := t.NewCursor(35)
	for i := 0; i < 3; i++ {
		k, _, ok := c.Next()
		if !ok {
			break
		}
		fmt.Println(k)
	}
	// Output:
	// 40
	// 50
	// 60
}

// BulkLoad builds a packed tree from sorted input far faster than
// repeated Insert.
func ExampleTree_BulkLoad() {
	t, _ := blinktree.Open(blinktree.Options{MinPairs: 4})
	defer t.Close()
	i := 0
	_ = t.BulkLoad(func() (blinktree.Key, blinktree.Value, bool) {
		if i >= 1000 {
			return 0, 0, false
		}
		k := blinktree.Key(i * 2)
		i++
		return k, blinktree.Value(k), true
	}, 0) // 0 = fully packed
	fmt.Println(t.Len())
	v, _ := t.Search(500)
	fmt.Println(v)
	// Output:
	// 1000
	// 500
}

// Compact repairs occupancy after heavy deletion — the paper's §5.
func ExampleTree_Compact() {
	t, _ := blinktree.Open(blinktree.Options{MinPairs: 4, Compression: blinktree.CompressionManual})
	defer t.Close()
	for i := 0; i < 1000; i++ {
		_ = t.Insert(blinktree.Key(i), 0)
	}
	for i := 0; i < 1000; i++ {
		if i%10 != 0 {
			_ = t.Delete(blinktree.Key(i))
		}
	}
	_ = t.Compact()
	st, _ := t.Stats()
	fmt.Println("underfull nodes:", st.Occupancy.Underfull)
	fmt.Println("invariants:", t.Check() == nil)
	// Output:
	// underfull nodes: 0
	// invariants: true
}

// A Tree of several shards serves the same operations as one of a
// single shard, partitioning the keyspace across independent trees.
func ExampleNewSharded() {
	s := blinktree.NewSharded(4)
	defer s.Close()

	// Keys spread over the full uint64 range land on different shards.
	stride := ^uint64(0)/8 + 1
	for i := uint64(0); i < 8; i++ {
		_ = s.Insert(blinktree.Key(i*stride), blinktree.Value(i))
	}
	fmt.Println("pairs:", s.Len())

	// Ordered scans cross shard boundaries transparently.
	_ = s.Range(0, blinktree.Key(^uint64(0)), func(k blinktree.Key, v blinktree.Value) bool {
		fmt.Println(v)
		return true
	})

	// Batches group by destination shard and run shard-parallel.
	res := s.ApplyBatch([]blinktree.BatchOp{
		{Kind: blinktree.BatchSearch, Key: blinktree.Key(3 * stride)},
		{Kind: blinktree.BatchDelete, Key: blinktree.Key(7 * stride)},
	})
	fmt.Println("search hit:", res[0].Value, "delete ok:", res[1].Err == nil)
	// Output:
	// pairs: 8
	// 0
	// 1
	// 2
	// 3
	// 4
	// 5
	// 6
	// 7
	// search hit: 3 delete ok: true
}
