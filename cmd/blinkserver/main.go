// Command blinkserver serves a blinktree index — single tree or
// sharded fleet, volatile or WAL-backed — over the wire protocol of
// docs/protocol.md, with an HTTP /healthz + /metrics sidecar.
//
// Usage:
//
//	blinkserver [-addr 127.0.0.1:4640] [-http 127.0.0.1:4641]
//	            [-shards 8] [-k 16] [-compressors 1]
//	            [-durable] [-dir /data/idx]
//	            [-disk-native] [-cache-bytes 67108864]
//	            [-max-batch 1024] [-max-inflight 1048576]
//	            [-follow primary:4640]
//	            [-verified] [-verify-buckets 4096] [-root-every 1s]
//
// With -durable, every acknowledged mutation is on disk (group-commit
// WAL under -dir, one segment set per shard) before its response is
// sent, and restarting the server on the same -dir recovers
// "checkpoint + log suffix". Clients can force a checkpoint over the
// wire (client.Checkpoint); a periodic checkpoint loop is enabled with
// -checkpoint-every.
//
// With -disk-native, every shard serves its tree through a bounded
// buffer pool (at most -cache-bytes resident per shard) over a page
// file, so the index can be much larger than RAM. Composes with
// -durable: the page file lives beside the WAL but stays scratch —
// recovery is still "checkpoint + log suffix". Pool behaviour
// (hits, misses, evictions, read-ahead, pinned high-water) is exposed
// per shard on /metrics as blinkpool_*.
//
// With -follow, the server runs as an asynchronous read replica of the
// named primary: it streams the primary's WAL, applies it locally
// (into its own WAL when also -durable, which is what makes it
// promotable), serves reads, and refuses writes with the read-only
// status until a client sends Promote. The shard counts of primary and
// follower must match, and the primary must be durable.
//
// With -verified, the server maintains an incremental Merkle state
// root over its contents (docs/protocol.md §integrity): OpRoot
// and OpProve are served, checkpoints carry a state root that recovery
// recomputes and compares, and — when both sides of a -follow pair run
// verified — the follower independently recomputes every root the
// primary publishes (-root-every, default 1s per shard) and refuses to
// continue on divergence.
//
// Shutdown is graceful: SIGINT/SIGTERM stop accepting, let in-flight
// polls finish, then close the index (flushing the WAL).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"blinktree/client"
	"blinktree/internal/cluster"
	"blinktree/internal/repl"
	"blinktree/internal/server"
	"blinktree/internal/shard"
)

// runMigrate is the -migrate admin mode: "RANGE=TARGET" asks the
// cluster member at addr (or whichever member currently owns the
// range) to hand it to TARGET, waits for the handoff to commit, and
// prints the resulting map.
func runMigrate(addr, spec string) error {
	rangeStr, target, ok := strings.Cut(spec, "=")
	if !ok || target == "" {
		return fmt.Errorf("want RANGE=TARGET, got %q", spec)
	}
	sh, err := strconv.Atoi(strings.TrimSpace(rangeStr))
	if err != nil {
		return fmt.Errorf("bad range %q: %v", rangeStr, err)
	}
	cl, err := client.DialCluster(addr, client.Options{})
	if err != nil {
		return err
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	if err := cl.Migrate(ctx, sh, strings.TrimSpace(target)); err != nil {
		return err
	}
	m := cl.Map()
	fmt.Printf("migrated range %d to %s; map v%d:\n", sh, target, m.Version)
	for i, o := range m.Owners {
		fmt.Printf("  range %d: %s\n", i, o)
	}
	return nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:4640", "TCP listen address for the wire protocol")
	httpAddr := flag.String("http", "", "HTTP listen address for /healthz and /metrics (empty = off)")
	shards := flag.Int("shards", 8, "range partitions (1 = single tree)")
	k := flag.Int("k", 16, "minimum pairs per node")
	compressors := flag.Int("compressors", 1, "background compression workers per shard")
	durable := flag.Bool("durable", false, "group-commit WAL + crash recovery under -dir")
	dir := flag.String("dir", "", "durability directory (required with -durable)")
	diskNative := flag.Bool("disk-native", false, "serve through a bounded buffer pool over per-shard page files (larger-than-RAM mode)")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "with -disk-native: buffer pool budget per shard")
	maxBatch := flag.Int("max-batch", 1024, "max requests gathered per poll")
	maxInflight := flag.Int("max-inflight", 1<<20, "per-connection in-flight request bytes (backpressure)")
	ckptEvery := flag.Duration("checkpoint-every", 0, "periodic checkpoint interval (0 = only on demand)")
	follow := flag.String("follow", "", "run as a read-only replica of this primary address (promote over the wire)")
	verified := flag.Bool("verified", false, "maintain a Merkle state root: OpRoot/OpProve, checkpoint root verification, verified replication")
	verifyBuckets := flag.Int("verify-buckets", 0, "with -verified: leaf buckets per shard in the hash tree (power of two, default 4096)")
	rootEvery := flag.Duration("root-every", 0, "with -verified: how often each follower feed publishes a sealed state root (default 1s)")
	clusterAdvertise := flag.String("cluster-advertise", "", "serve as a cluster member advertising this address to peers and clients (requires -durable)")
	clusterInitial := flag.String("cluster-initial", "", "with -cluster-advertise: address owning every range on a fresh -dir (default: this node)")
	migrate := flag.String("migrate", "", "admin mode RANGE=TARGET: ask the cluster at -addr to migrate the range, print the new map, exit")
	flag.Parse()

	if *migrate != "" {
		if err := runMigrate(*addr, *migrate); err != nil {
			log.Fatalf("blinkserver: migrate: %v", err)
		}
		return
	}
	if *durable && *dir == "" {
		log.Fatal("blinkserver: -durable requires -dir")
	}
	if *verifyBuckets != 0 && !*verified {
		log.Fatal("blinkserver: -verify-buckets requires -verified")
	}
	if *rootEvery != 0 && !*verified {
		log.Fatal("blinkserver: -root-every requires -verified")
	}
	opts := shard.Options{
		MinPairs:          *k,
		CompressorWorkers: *compressors,
		Durable:           *durable,
		Dir:               *dir,
		DiskNative:        *diskNative,
		CacheBytes:        *cacheBytes,
		Verified:          *verified,
		VerifyBuckets:     *verifyBuckets,
	}
	r, err := shard.NewRouter(*shards, opts)
	if err != nil {
		log.Fatalf("blinkserver: open index: %v", err)
	}
	cfg := server.Config{
		Addr:        *addr,
		HTTPAddr:    *httpAddr,
		MaxBatch:    *maxBatch,
		MaxInflight: *maxInflight,
		RootEvery:   *rootEvery,
	}
	var node *cluster.Node
	if *clusterAdvertise != "" {
		if !*durable {
			log.Fatal("blinkserver: -cluster-advertise requires -durable (crash-safe handoff needs a WAL)")
		}
		if *follow != "" {
			log.Fatal("blinkserver: -cluster-advertise is incompatible with -follow")
		}
		if *verified {
			// A cluster member's shards migrate between nodes, so no
			// single node can bind one root to the whole keyspace.
			log.Fatal("blinkserver: -cluster-advertise is incompatible with -verified")
		}
		node, err = cluster.NewNode(cluster.NodeConfig{
			Self:         *clusterAdvertise,
			Shards:       *shards,
			InitialOwner: *clusterInitial,
			Dir:          *dir,
			Logf:         log.Printf,
		})
		if err != nil {
			log.Fatalf("blinkserver: cluster: %v", err)
		}
		if err := node.ReclaimRemote(r); err != nil {
			log.Fatalf("blinkserver: cluster: %v", err)
		}
		node.ResolveFences(r)
		cfg.Cluster = node
	}
	var follower *repl.Follower
	if *follow != "" {
		fdir := ""
		if *durable {
			fdir = *dir
		}
		follower, err = repl.NewFollower(r, repl.FollowerConfig{
			Primary: *follow,
			Dir:     fdir,
			Logf:    log.Printf,
		})
		if err != nil {
			log.Fatalf("blinkserver: follower: %v", err)
		}
		cfg.ReadOnly = true
		cfg.OnPromote = follower.Stop
	}
	s := server.New(r, cfg)
	if err := s.Start(); err != nil {
		log.Fatalf("blinkserver: listen: %v", err)
	}
	if follower != nil {
		follower.Start()
	}
	fmt.Printf("blinkserver: serving %d shard(s) on %s", *shards, s.Addr())
	if *httpAddr != "" {
		fmt.Printf(", http on %s", s.HTTPAddr())
	}
	if *durable {
		fmt.Printf(", durable in %s (%d pairs recovered)", *dir, r.Len())
	}
	if *diskNative {
		fmt.Printf(", disk-native (%d KiB cache per shard)", *cacheBytes>>10)
	}
	if *follow != "" {
		fmt.Printf(", following %s (read-only until promoted)", *follow)
	}
	if *verified {
		root, err := r.Root()
		if err != nil {
			log.Fatalf("blinkserver: state root: %v", err)
		}
		fmt.Printf(", verified (root %x)", root[:8])
	}
	if node != nil {
		cs := node.ClusterStats()
		fmt.Printf(", cluster member %s (map v%d, owns %d/%d ranges)",
			*clusterAdvertise, cs.Version, cs.Owned, *shards)
	}
	fmt.Println()

	stopCkpt := make(chan struct{})
	if *ckptEvery > 0 {
		go func() {
			tick := time.NewTicker(*ckptEvery)
			defer tick.Stop()
			for {
				select {
				case <-stopCkpt:
					return
				case <-tick.C:
					if err := r.Checkpoint(); err != nil {
						log.Printf("blinkserver: checkpoint: %v", err)
					}
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("blinkserver: draining...")
	close(stopCkpt)
	if follower != nil {
		if err := follower.Stop(); err != nil {
			log.Printf("blinkserver: stop follower: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		log.Printf("blinkserver: close listener: %v", err)
	}
	if err := r.Close(); err != nil {
		log.Printf("blinkserver: close index: %v", err)
	}
	m := &s.Metrics
	fmt.Printf("blinkserver: served %d requests over %d polls (%.1f req/poll), %d connections\n",
		m.Requests.Load(), m.Polls.Load(),
		float64(m.Requests.Load())/float64(max(m.Polls.Load(), 1)),
		m.Accepted.Load())
}
