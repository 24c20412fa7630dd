package blinktree

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// spreadKeys returns m keys evenly spaced over the full uint64 range.
func spreadKeys(m int) []Key {
	ks := make([]Key, m)
	stride := ^uint64(0)/uint64(m) + 1
	for i := range ks {
		ks[i] = Key(uint64(i) * stride)
	}
	return ks
}

func TestShardedBasics(t *testing.T) {
	s := NewSharded(4)
	defer s.Close()
	if s.Shards() != 4 {
		t.Fatalf("Shards = %d", s.Shards())
	}
	keys := spreadKeys(100)
	for _, k := range keys {
		if err := s.Insert(k, Value(k)+7); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		if v, err := s.Search(k); err != nil || v != Value(k)+7 {
			t.Fatalf("Search(%d) = (%d, %v)", k, v, err)
		}
	}
	if _, err := s.Search(12345); !errors.Is(err, ErrNotFound) {
		t.Fatalf("miss = %v", err)
	}
	if err := s.Insert(keys[3], 0); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("dup = %v", err)
	}
	if k, _, _ := s.Min(); k != keys[0] {
		t.Fatalf("Min = %d", k)
	}
	if k, _, _ := s.Max(); k != keys[99] {
		t.Fatalf("Max = %d", k)
	}
	if s.Len() != 100 || s.Height() < 1 {
		t.Fatalf("Len=%d Height=%d", s.Len(), s.Height())
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

// One shard and four behave identically.
func TestIndexInterfaceParity(t *testing.T) {
	make_ := map[string]func() *Tree{
		"tree":    NewTree,
		"sharded": func() *Tree { return NewSharded(4) },
	}
	keys := spreadKeys(60)
	for name, mk := range make_ {
		t.Run(name, func(t *testing.T) {
			idx := mk()
			defer idx.Close()
			for _, k := range keys {
				if err := idx.Insert(k, Value(k)); err != nil {
					t.Fatal(err)
				}
			}
			// Ordered iteration through a cursor.
			it := idx.NewCursor(0)
			for i, want := range keys {
				k, _, ok := it.Next()
				if !ok || k != want {
					t.Fatalf("iterator[%d] = (%d, %v), want %d", i, k, ok, want)
				}
			}
			if _, _, ok := it.Next(); ok || it.Err() != nil {
				t.Fatalf("iterator end: ok=%v err=%v", ok, it.Err())
			}
			it.Seek(keys[30])
			if k, _, ok := it.Next(); !ok || k != keys[30] {
				t.Fatalf("after Seek: (%d, %v)", k, ok)
			}
			// Range window and early stop.
			var got []Key
			if err := idx.Range(keys[10], keys[20], func(k Key, _ Value) bool {
				got = append(got, k)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != 11 || got[0] != keys[10] || got[10] != keys[20] {
				t.Fatalf("window = %v", got)
			}
			// Delete half, compact, validate.
			for i, k := range keys {
				if i%2 == 0 {
					if err := idx.Delete(k); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := idx.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := idx.Check(); err != nil {
				t.Fatal(err)
			}
			st, err := idx.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.Tree.InsertLocks.MaxHeld > 1 {
				t.Fatalf("insert footprint %d", st.Tree.InsertLocks.MaxHeld)
			}
			if idx.Len() != 30 {
				t.Fatalf("Len = %d", idx.Len())
			}
		})
	}
}

// Snapshots move between shard counts.
func TestSnapshotAcrossFrontEnds(t *testing.T) {
	src := NewSharded(4)
	defer src.Close()
	keys := spreadKeys(500)
	for _, k := range keys {
		if err := src.Insert(k, Value(k)*2); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	for name, dst := range map[string]*Tree{
		"tree":      NewTree(),
		"resharded": NewSharded(7),
	} {
		t.Run(name, func(t *testing.T) {
			defer dst.Close()
			if err := dst.Restore(bytes.NewReader(snap)); err != nil {
				t.Fatal(err)
			}
			if dst.Len() != len(keys) {
				t.Fatalf("restored Len = %d", dst.Len())
			}
			for _, k := range []Key{keys[0], keys[250], keys[499]} {
				if v, err := dst.Search(k); err != nil || v != Value(k)*2 {
					t.Fatalf("restored Search(%d) = (%d, %v)", k, v, err)
				}
			}
			if err := dst.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestShardedBatchPublicAPI(t *testing.T) {
	s := NewSharded(3)
	defer s.Close()
	keys := spreadKeys(30)
	ops := make([]BatchOp, 0, len(keys)+2)
	for _, k := range keys {
		ops = append(ops, BatchOp{Kind: BatchInsert, Key: k, Value: Value(k)})
	}
	ops = append(ops,
		BatchOp{Kind: BatchSearch, Key: keys[5]},
		BatchOp{Kind: BatchDelete, Key: keys[6]},
	)
	res := s.ApplyBatch(ops)
	for i := 0; i < len(keys); i++ {
		if res[i].Err != nil {
			t.Fatalf("op %d: %v", i, res[i].Err)
		}
	}
	if res[len(keys)].Value != Value(keys[5]) || res[len(keys)].Err != nil {
		t.Fatalf("batch search = %+v", res[len(keys)])
	}
	if res[len(keys)+1].Err != nil {
		t.Fatalf("batch delete = %v", res[len(keys)+1].Err)
	}
	if s.Len() != 29 {
		t.Fatalf("Len = %d", s.Len())
	}
	// ShardStats exposes routing balance.
	var total uint64
	for _, st := range s.ShardStats() {
		total += st.BatchOps
	}
	if total != uint64(len(ops)) {
		t.Fatalf("batch ops recorded = %d, want %d", total, len(ops))
	}
}

func TestShardedConcurrentPublicAPI(t *testing.T) {
	s, err := OpenSharded(4, Options{MinPairs: 3, CompressorWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := spreadKeys(2048)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := keys[(i*7+w*131)%len(keys)]
				switch (i + w) % 3 {
				case 0:
					if err := s.Insert(k, Value(k)); err != nil && !errors.Is(err, ErrDuplicate) {
						t.Errorf("insert: %v", err)
						return
					}
				case 1:
					if err := s.Delete(k); err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("delete: %v", err)
						return
					}
				default:
					if v, err := s.Search(k); err == nil && v != Value(k) {
						t.Errorf("foreign value %d under %d", v, k)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Tree.InsertLocks.MaxHeld > 1 || st.Tree.DeleteLocks.MaxHeld > 1 {
		t.Fatalf("update footprint exceeded 1: %+v", st.Tree)
	}
}

func TestShardedCloseStopsEverything(t *testing.T) {
	s := NewSharded(2)
	for _, k := range spreadKeys(100) {
		_ = s.Insert(k, 0)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(1, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("insert after close = %v", err)
	}
}

func TestNewShardedPanicsOnBadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSharded(0) did not panic")
		}
	}()
	NewSharded(0)
}

func TestShardedOnDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.db")
	s, err := OpenSharded(3, Options{Path: path, MinPairs: 4, PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := spreadKeys(300)
	for _, k := range keys {
		if err := s.Insert(k, Value(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := os.Stat(fmt.Sprintf("%s.shard%d", path, i)); err != nil {
			t.Fatalf("shard file %d: %v", i, err)
		}
	}
	for _, k := range []Key{keys[0], keys[150], keys[299]} {
		if v, err := s.Search(k); err != nil || v != Value(k) {
			t.Fatalf("Search(%d) = (%d, %v)", k, v, err)
		}
	}
}
