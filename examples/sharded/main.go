// Sharded: scale the Sagiv tree past one lock table by
// range-partitioning the keyspace across independent trees. Point
// operations route to one shard, ordered scans stitch shards in key
// order, and batches run shard-parallel — the same blinktree.Tree
// type and calls as a one-shard tree.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"blinktree"
)

func main() {
	// Four independent trees, each with its own lock table, compression
	// queue and reclamation epoch. blinktree.NewTree() would serve the
	// same calls from one tree.
	idx := blinktree.NewSharded(4)
	defer idx.Close()

	// Spread keys over the full uint64 range so every shard gets some.
	// (Range partitioning is static: shard i owns [i·2^64/4, (i+1)·2^64/4).)
	rng := rand.New(rand.NewSource(42))
	const n = 10000
	keys := make([]blinktree.Key, 0, n)
	for i := 0; i < n; i++ {
		k := blinktree.Key(rng.Uint64())
		if err := idx.Insert(k, blinktree.Value(i)); err != nil {
			log.Fatal(err)
		}
		keys = append(keys, k)
	}
	fmt.Printf("inserted %d pairs, height %d\n", idx.Len(), idx.Height())

	// Ordered iteration crosses shard boundaries transparently.
	it := idx.NewCursor(0)
	count := 0
	var prev blinktree.Key
	for {
		k, _, ok := it.Next()
		if !ok {
			break
		}
		if count > 0 && k <= prev {
			log.Fatalf("order violated: %d after %d", k, prev)
		}
		prev = k
		count++
	}
	if err := it.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("iterator visited %d pairs in global key order\n", count)

	// Batched dispatch: operations are grouped by destination shard and
	// each group runs on its own goroutine.
	batch := make([]blinktree.BatchOp, 0, 1000)
	for i := 0; i < 1000; i++ {
		k := keys[rng.Intn(len(keys))] // stored key: a hit
		if i%4 == 0 {
			k = blinktree.Key(rng.Uint64()) // random key: almost surely a miss
		}
		batch = append(batch, blinktree.BatchOp{Kind: blinktree.BatchSearch, Key: k})
	}
	hits := 0
	for _, res := range idx.ApplyBatch(batch) {
		if res.Err == nil {
			hits++
		}
	}
	fmt.Printf("batch of %d searches: %d hits\n", len(batch), hits)

	// Per-shard balance: random uint64 keys should split ~evenly.
	fmt.Println("shard balance:")
	for _, st := range idx.ShardStats() {
		fmt.Printf("  shard %d: %5d pairs, %5d ops executed\n",
			st.Shard, st.Len, st.Searches+st.Inserts+st.Deletes)
	}

	if err := idx.Check(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("invariants OK in every shard")
}
