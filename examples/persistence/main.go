// Persistence: run the tree on a file-backed page store through the
// LRU buffer pool (the disk-resident regime the paper was written
// for), and move logical data between trees with Snapshot/Restore.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
)

import "blinktree"

func main() {
	dir, err := os.MkdirTemp("", "blinktree-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// A tree whose nodes live as 4 KiB pages in a file, cached by a
	// 256-page buffer pool.
	dbPath := filepath.Join(dir, "index.db")
	tr, err := blinktree.Open(blinktree.Options{
		Path:       dbPath,
		MinPairs:   32,
		CachePages: 256,
	})
	if err != nil {
		log.Fatal(err)
	}

	const n = 50000
	for i := 0; i < n; i++ {
		if err := tr.Insert(blinktree.Key(i*3), blinktree.Value(i)); err != nil {
			log.Fatal(err)
		}
	}
	// Shard i of a tree pages to "<Path>.shard<i>"; this tree has one.
	fi, err := os.Stat(dbPath + ".shard0")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("paged tree: %d keys, height %d, db file %d KiB\n", tr.Len(), tr.Height(), fi.Size()/1024)

	v, err := tr.Search(blinktree.Key(3 * 12345))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lookup through buffer pool: key %d -> %d\n", 3*12345, v)

	// Snapshot the logical data to a stream...
	snapPath := filepath.Join(dir, "snapshot.blts")
	f, err := os.Create(snapPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := tr.Snapshot(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	sfi, err := os.Stat(snapPath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot written: %d KiB\n", sfi.Size()/1024)
	if err := tr.Close(); err != nil {
		log.Fatal(err)
	}

	// ...and restore it into a fresh in-memory tree.
	mem, err := blinktree.Open(blinktree.Options{MinPairs: 16})
	if err != nil {
		log.Fatal(err)
	}
	defer mem.Close()
	rf, err := os.Open(snapPath)
	if err != nil {
		log.Fatal(err)
	}
	defer rf.Close()
	if err := mem.Restore(rf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored into memory: %d keys, height %d\n", mem.Len(), mem.Height())
	if got, err := mem.Search(blinktree.Key(3 * 12345)); err != nil || got != v {
		log.Fatalf("restored value mismatch: (%d, %v)", got, err)
	}
	if err := mem.Check(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("restored tree verified: OK")
}
