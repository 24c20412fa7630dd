// Example netserver walks the network front-end end to end: start a
// durable sharded server in-process, drive it with the client package
// — point ops, conditional writes, pipelined concurrent traffic, a
// shard-parallel batch, paged scans, a checkpoint over the wire —
// then crash-recover by reopening the same directory.
//
// The same server is available as a standalone binary:
//
//	go run ./cmd/blinkserver -addr 127.0.0.1:4640 -http 127.0.0.1:4641 \
//	    -shards 8 -durable -dir /tmp/blink
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"sync"

	"blinktree"
	"blinktree/client"
	"blinktree/internal/server"
	"blinktree/internal/shard"
)

func main() {
	dir, err := os.MkdirTemp("", "netserver-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()

	// --- Serve: 4 durable shards on an ephemeral port, with the
	// health/metrics sidecar.
	open := func() (*shard.Router, *server.Server) {
		r, err := shard.NewRouter(4, shard.Options{Durable: true, Dir: dir})
		if err != nil {
			log.Fatal(err)
		}
		s := server.New(r, server.Config{Addr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0"})
		if err := s.Start(); err != nil {
			log.Fatal(err)
		}
		return r, s
	}
	r, s := open()
	fmt.Printf("serving 4 durable shards on %s (http %s)\n", s.Addr(), s.HTTPAddr())

	// --- Connect. The pool pipelines concurrent calls automatically.
	c, err := client.Dial(s.Addr().String(), client.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Point ops and conditional writes behave exactly like the local
	// API — sentinel errors included.
	if err := c.Insert(ctx, 42, 420); err != nil {
		log.Fatal(err)
	}
	old, existed, _ := c.Upsert(ctx, 42, 421)
	fmt.Printf("upsert 42: old=%d existed=%v\n", old, existed)
	if _, err := c.Search(ctx, 7); errors.Is(err, blinktree.ErrNotFound) {
		fmt.Println("search 7: ErrNotFound survives the wire")
	}

	// 32 goroutines over one pool: the client multiplexes them onto
	// pipelined bursts, and each server poll executes whatever frames
	// have arrived as one shard-parallel ApplyBatch (and one WAL group
	// commit per shard). No timer: the batch is what queued up while
	// the previous one ran.
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := client.Key(uint64(w*100+i) * 0x9E3779B97F4A7C15)
				if _, _, err := c.Upsert(ctx, k, client.Value(i)); err != nil {
					log.Fatal(err)
				}
			}
		}(w)
	}
	wg.Wait()
	n, _ := c.Len(ctx)
	fmt.Printf("after pipelined load: %d pairs\n", n)
	fmt.Printf("server batching: %d requests in %d polls\n",
		s.Metrics.Requests.Load(), s.Metrics.Polls.Load())

	// An explicit batch: one request frame, executed shard-parallel.
	results, err := c.Batch(ctx, []client.Op{
		{Kind: client.OpSearch, Key: 42},
		{Kind: client.OpCompareAndSwap, Key: 42, Old: 421, Value: 1000},
		{Kind: client.OpDelete, Key: 42},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch: search=%d cas=%v delete-err=%v\n",
		results[0].Value, results[1].OK, results[2].Err)

	// Paged scans stitch all shards in key order.
	count := 0
	_ = c.Range(ctx, 0, client.Key(^uint64(0)), 500, func(client.Key, client.Value) bool {
		count++
		return true
	})
	fmt.Printf("scanned %d pairs in pages of 500\n", count)

	// Checkpoint over the wire: durable snapshot + WAL truncation.
	if err := c.Checkpoint(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("checkpointed over the wire")

	// --- Recover: shut everything down, reopen the same directory.
	c.Close()
	s.Close()
	r.Close()
	r2, s2 := open()
	defer func() { s2.Close(); r2.Close() }()
	c2, err := client.Dial(s2.Addr().String(), client.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer c2.Close()
	n2, _ := c2.Len(ctx)
	fmt.Printf("recovered: %d pairs back after restart\n", n2)
}
