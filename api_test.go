package blinktree

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
)

// Facade-level coverage of conditional writes and range-over-func
// iteration, on one shard and on four so routing and shard stitching
// can never change an answer.

// buildBoth returns a one-shard tree and a four-shard tree preloaded
// with the same random population, plus the sorted key list.
func buildBoth(t *testing.T, n int) (*Tree, *Tree, []Key) {
	t.Helper()
	tree := NewTree()
	shrd := NewSharded(4)
	t.Cleanup(func() { tree.Close(); shrd.Close() })
	rng := rand.New(rand.NewSource(99))
	seen := map[Key]bool{}
	var keys []Key
	for len(keys) < n {
		k := Key(rng.Uint64())
		if seen[k] {
			continue
		}
		seen[k] = true
		keys = append(keys, k)
		for _, idx := range []*Tree{tree, shrd} {
			if err := idx.Insert(k, Value(k)%1000); err != nil {
				t.Fatal(err)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return tree, shrd, keys
}

func TestConditionalWritesBothFrontEnds(t *testing.T) {
	tree, shrd, keys := buildBoth(t, 500)
	for name, idx := range map[string]*Tree{"tree": tree, "sharded": shrd} {
		t.Run(name, func(t *testing.T) {
			k := keys[17]
			old, existed, err := idx.Upsert(k, 5000)
			if err != nil || !existed || old != Value(k)%1000 {
				t.Fatalf("Upsert = (%d, %v, %v)", old, existed, err)
			}
			if v, loaded, err := idx.GetOrInsert(k, 1); err != nil || !loaded || v != 5000 {
				t.Fatalf("GetOrInsert = (%d, %v, %v)", v, loaded, err)
			}
			if v, err := idx.Update(k, func(v Value) Value { return v + 1 }); err != nil || v != 5001 {
				t.Fatalf("Update = (%d, %v)", v, err)
			}
			if ok, err := idx.CompareAndSwap(k, 5001, 5002); err != nil || !ok {
				t.Fatalf("CAS = (%v, %v)", ok, err)
			}
			if ok, err := idx.CompareAndSwap(k, 5001, 5003); err != nil || ok {
				t.Fatalf("stale CAS = (%v, %v)", ok, err)
			}
			if ok, err := idx.CompareAndDelete(k, 5002); err != nil || !ok {
				t.Fatalf("CAD = (%v, %v)", ok, err)
			}
			if _, err := idx.Search(k); !errors.Is(err, ErrNotFound) {
				t.Fatalf("key survived CAD: %v", err)
			}
			// Fresh-key upsert via the interface restores parity for the
			// iteration tests below.
			if _, existed, err := idx.Upsert(k, Value(k)%1000); err != nil || existed {
				t.Fatalf("re-Upsert = (%v, %v)", existed, err)
			}
			if _, err := idx.Update(99998, func(v Value) Value { return v }); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Update absent = %v", err)
			}
		})
	}
}

// TestIterationMatchesRangeBothFrontEnds is the acceptance criterion:
// All/Ascend agree exactly with callback Range, and Descend is its
// exact reversal, on one shard and on four, over random windows.
func TestIterationMatchesRangeBothFrontEnds(t *testing.T) {
	tree, shrd, keys := buildBoth(t, 2000)
	rng := rand.New(rand.NewSource(5))
	for name, idx := range map[string]*Tree{"tree": tree, "sharded": shrd} {
		t.Run(name, func(t *testing.T) {
			windows := [][2]Key{{0, Key(^uint64(0))}}
			for i := 0; i < 20; i++ {
				lo, hi := keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]
				if hi < lo {
					lo, hi = hi, lo
				}
				windows = append(windows, [2]Key{lo, hi})
			}
			for _, w := range windows {
				lo, hi := w[0], w[1]
				var want []Key
				if err := idx.Range(lo, hi, func(k Key, v Value) bool {
					if v != Value(k)%1000 {
						t.Fatalf("Range pair (%d, %d)", k, v)
					}
					want = append(want, k)
					return true
				}); err != nil {
					t.Fatal(err)
				}
				var asc []Key
				for k, v := range idx.Ascend(lo, hi) {
					if v != Value(k)%1000 {
						t.Fatalf("Ascend pair (%d, %d)", k, v)
					}
					asc = append(asc, k)
				}
				var desc []Key
				for k, v := range idx.Descend(hi, lo) {
					if v != Value(k)%1000 {
						t.Fatalf("Descend pair (%d, %d)", k, v)
					}
					desc = append(desc, k)
				}
				if len(asc) != len(want) || len(desc) != len(want) {
					t.Fatalf("window [%d, %d]: Range %d, Ascend %d, Descend %d",
						lo, hi, len(want), len(asc), len(desc))
				}
				for i := range want {
					if asc[i] != want[i] {
						t.Fatalf("Ascend[%d] = %d, want %d", i, asc[i], want[i])
					}
					if desc[len(desc)-1-i] != want[i] {
						t.Fatalf("Descend mismatch at %d", i)
					}
				}
			}
			// All covers everything.
			n := 0
			var prev Key
			for k := range idx.All() {
				if n > 0 && k <= prev {
					t.Fatalf("All not ascending: %d after %d", k, prev)
				}
				prev = k
				n++
			}
			if n != len(keys) {
				t.Fatalf("All saw %d of %d keys", n, len(keys))
			}
		})
	}
}

func TestReverseCursorsPublicAPI(t *testing.T) {
	tree, shrd, keys := buildBoth(t, 300)
	top := Key(^uint64(0))
	tc := tree.NewReverseCursor(top)
	sc := shrd.NewReverseCursor(top)
	for i := len(keys) - 1; i >= 0; i-- {
		tk, _, tok := tc.Next()
		sk, _, sok := sc.Next()
		if !tok || !sok || tk != keys[i] || sk != keys[i] {
			t.Fatalf("reverse[%d]: tree (%d, %v), sharded (%d, %v), want %d",
				i, tk, tok, sk, sok, keys[i])
		}
	}
	if _, _, ok := tc.Next(); ok {
		t.Fatal("tree reverse cursor ran past the start")
	}
	if _, _, ok := sc.Next(); ok {
		t.Fatal("sharded reverse cursor ran past the start")
	}
}

func TestBatchConditionalPublicAPI(t *testing.T) {
	s := NewSharded(4)
	defer s.Close()
	keys := spreadKeys(8)
	res := s.ApplyBatch([]BatchOp{
		{Kind: BatchUpsert, Key: keys[0], Value: 10},
		{Kind: BatchGetOrInsert, Key: keys[0], Value: 99},
		{Kind: BatchCompareAndSwap, Key: keys[0], Old: 10, Value: 11},
		{Kind: BatchCompareAndDelete, Key: keys[0], Old: 11},
	})
	if res[0].Err != nil || res[0].OK {
		t.Fatalf("BatchUpsert = %+v", res[0])
	}
	if res[1].Err != nil || !res[1].OK || res[1].Value != 10 {
		t.Fatalf("BatchGetOrInsert = %+v", res[1])
	}
	if res[2].Err != nil || !res[2].OK {
		t.Fatalf("BatchCompareAndSwap = %+v", res[2])
	}
	if res[3].Err != nil || !res[3].OK {
		t.Fatalf("BatchCompareAndDelete = %+v", res[3])
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
}
