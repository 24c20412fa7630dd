// Command blinkstress hammers a Sagiv tree — or a sharded fleet of
// them — with a concurrent mix of searches, insertions, deletions and
// background compression for a fixed duration, then validates every
// structural invariant: an executable form of Theorems 1 and 2. A
// non-zero exit means a bug.
//
// Usage:
//
//	blinkstress [-duration 10s] [-workers 8] [-compressors 2]
//	            [-k 4] [-keys 100000] [-mix balanced] [-shards 1]
//	            [-durable] [-dir path] [-net] [-addr host:port] [-repl]
//	            [-disk] [-cache-ratio 0.10]
//
// With -shards N > 1 the keyspace is range-partitioned across N
// independent trees (each with its own compression workers) and the
// stress keys are spread over the full uint64 range so every shard
// receives traffic; the report then includes per-shard balance.
//
// With -durable the workload runs against a WAL-backed index in -dir
// (a temp dir by default): workers mutate disjoint key sets while
// recording every acknowledged operation in an oracle, checkpoints run
// concurrently, and halfway through the run the log committer is
// killed at a random torn-write offset. The index is then recovered
// from disk and every surviving key is checked against the oracle —
// acknowledged operations must all be present, and nothing may appear
// that was never issued. The recovered index then takes more traffic
// and a final invariant check.
//
// With -net the stress runs over TCP: blinkstress spawns a real
// server process (itself, re-executed in a hidden serve mode, so the
// parent can kill -9 it), drives it through the client package with
// per-worker exact oracles, and verifies every read against the
// oracle plus a final full-scan phantom check. -net -durable adds the
// crash: the server process is SIGKILLed mid-run, restarted on the
// same directory, and recovery is verified over the wire — every
// acknowledged write present, zero phantoms. -addr targets an
// already-running server instead of spawning one (volatile mode
// only).
//
// With -disk the stress runs the full disk-native campaign: a real
// spawned server process serving through the bounded buffer pool over
// page files, with the pool budget set to -cache-ratio of the expected
// dataset (default 10%, so ~90% of pages live only on disk). Workers
// drive an exact per-key oracle plus range scans (read-ahead), the
// server is kill -9'd mid-run, restarted on the same directory, and
// recovery is verified over the wire; a final local reopen checks the
// structural invariants and asserts the pool actually churned
// (evictions > 0). See cmd/blinkstress/disk.go for the precise claim.
//
// With -repl the stress exercises asynchronous replication end to
// end: a durable primary and a durable follower (both real spawned
// processes), an exact oracle, a convergence barrier with exact
// verification of the follower, then a kill -9 of the primary, a
// promotion of the follower over the wire, and per-key
// prefix-consistency verification of the promoted follower (see
// cmd/blinkstress/repl.go for the precise claim).
//
// With -cluster the stress exercises live shard migration end to end:
// two durable cluster members (real spawned processes on fixed ports),
// a cluster-aware client with an exact per-worker oracle, half the
// ranges migrated from one member to the other while writes flow, a
// kill -9 of the migration target mid-stream and later of the source
// mid-stream — each followed by a restart on the same address and
// directory and a re-triggered migration — then a settle pass and full
// verification: every acknowledged write present on the member the map
// names, zero phantoms anywhere (see cmd/blinkstress/cluster.go for
// the precise claim).
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"blinktree"
	"blinktree/internal/base"
	"blinktree/internal/shard"
	"blinktree/internal/workload"
)

func main() {
	dur := flag.Duration("duration", 10*time.Second, "stress duration")
	workers := flag.Int("workers", 8, "mutator goroutines")
	compressors := flag.Int("compressors", 2, "background compression workers per tree")
	k := flag.Int("k", 4, "minimum pairs per node")
	keys := flag.Uint64("keys", 100000, "key population size")
	mixName := flag.String("mix", "balanced", "read-only|read-mostly|balanced|insert-heavy|delete-heavy|write-only|upsert-heavy|rmw")
	shards := flag.Int("shards", 1, "range partitions (1 = single tree)")
	durable := flag.Bool("durable", false, "WAL-backed run with mid-run kill, recovery and oracle verification")
	dirFlag := flag.String("dir", "", "durability directory for -durable (default: a temp dir)")
	netMode := flag.Bool("net", false, "stress a spawned blinkserver over TCP (with -durable: kill -9 + recovery)")
	addrFlag := flag.String("addr", "", "with -net: target this already-running server instead of spawning one")
	netServe := flag.Bool("net-serve", false, "internal: run as the spawned server child of a -net parent")
	replMode := flag.Bool("repl", false, "primary + follower pair: converge, kill -9 the primary, promote, verify")
	followFlag := flag.String("follow", "", "internal: with -net-serve, follow this primary address")
	diskMode := flag.Bool("disk", false, "disk-native campaign: buffer-pool-backed server, exact oracle, kill -9 + recovery")
	cacheRatio := flag.Float64("cache-ratio", 0.10, "with -disk: pool budget as a fraction of the expected dataset")
	diskNative := flag.Bool("disk-native", false, "internal: with -net-serve, serve through a buffer pool")
	cacheBytes := flag.Int64("cache-bytes", 0, "internal: with -net-serve -disk-native, pool budget per shard")
	pageSize := flag.Int("page-size", 0, "internal: with -net-serve -disk-native, page size in bytes")
	clusterMode := flag.Bool("cluster", false, "two-node cluster: live range migration under load, kill -9 of either node mid-migration, exact oracle")
	auditMode := flag.Bool("audit", false, "verified replication audit: tamper with the follower's checkpoint and WAL (CRCs fixed), every injection must be detected, zero false alarms")
	verifiedFlag := flag.Bool("verified", false, "internal: with -net-serve, maintain a Merkle state root")
	serveAddr := flag.String("serve-addr", "", "internal: with -net-serve, explicit TCP listen address")
	clusterAdvertise := flag.String("cluster-advertise", "", "internal: with -net-serve, serve as a cluster member at this address")
	clusterInitial := flag.String("cluster-initial", "", "internal: with -net-serve, initial owner of every range")
	flag.Parse()

	if *netServe {
		runNetServe(*shards, *k, *compressors, *durable, *dirFlag, *followFlag, *diskNative, *cacheBytes, *pageSize, *serveAddr, *clusterAdvertise, *clusterInitial, *verifiedFlag)
		return
	}
	if *auditMode {
		runAudit(*shards, *k, *compressors, *dirFlag)
		return
	}
	if *clusterMode {
		runCluster(*dur, *workers, *shards, *k, *compressors, *dirFlag)
		return
	}
	if *diskMode {
		runDisk(*dur, *workers, *shards, *k, *compressors, *dirFlag, *cacheRatio)
		return
	}
	if *replMode {
		runRepl(*dur, *workers, *shards, *k, *compressors, *dirFlag)
		return
	}
	if *netMode {
		runNet(*dur, *workers, *shards, *k, *compressors, *durable, *dirFlag, *addrFlag)
		return
	}
	if *durable {
		runDurable(*dur, *workers, *shards, *k, *compressors, *dirFlag)
		return
	}

	mixes := map[string]workload.Mix{
		"read-only":    workload.ReadOnly,
		"read-mostly":  workload.ReadMostly,
		"balanced":     workload.Balanced,
		"insert-heavy": workload.InsertHeavy,
		"delete-heavy": workload.DeleteHeavy,
		"write-only":   workload.WriteOnly,
		"upsert-heavy": workload.UpsertHeavy,
		"rmw":          workload.RMW,
	}
	mix, ok := mixes[*mixName]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown mix %q\n", *mixName)
		os.Exit(2)
	}
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "-shards %d: need at least 1\n", *shards)
		os.Exit(2)
	}

	opts := blinktree.Options{
		MinPairs:          *k,
		CompressorWorkers: *compressors,
	}
	tr, err := blinktree.OpenSharded(*shards, opts)
	if err != nil {
		fatal("open", err)
	}
	defer tr.Close()

	// Stretch the key population over the full uint64 range so all
	// shards see traffic (harmless for the single tree).
	stride := ^uint64(0) / *keys + 1
	dist := workload.Stretch{Base: workload.Uniform{N: *keys}, Stride: stride}

	// Preload half the key population so deletes find targets
	// immediately.
	for i := uint64(0); i < *keys; i += 2 {
		if err := tr.Insert(blinktree.Key(i*stride), blinktree.Value(i*stride)); err != nil {
			fatal("preload", err)
		}
	}

	fmt.Printf("blinkstress: %d workers, %d compressors, mix=%s, k=%d, keys=%d, shards=%d, %v\n",
		*workers, *compressors, *mixName, *k, *keys, *shards, *dur)

	var ops, failures atomic.Uint64
	var kindOps [workload.NumOpKinds]atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen, err := workload.NewGenerator(int64(w)*977, dist, mix)
			if err != nil {
				failures.Add(1)
				fmt.Fprintln(os.Stderr, "generator:", err)
				return
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				op := gen.Next()
				if _, err := workload.Apply(tr, op); err != nil {
					failures.Add(1)
					fmt.Fprintf(os.Stderr, "worker %d: %v on %+v\n", w, err, op)
					return
				}
				ops.Add(1)
				kindOps[op.Kind].Add(1)
			}
		}(w)
	}
	// Watchdog: ops must keep flowing; a stall means deadlock/livelock.
	deadline := time.After(*dur)
	lastOps := uint64(0)
	stalled := false
	tick := time.NewTicker(2 * time.Second)
loop:
	for {
		select {
		case <-deadline:
			break loop
		case <-tick.C:
			cur := ops.Load()
			if cur == lastOps && failures.Load() == 0 {
				stalled = true
				break loop
			}
			lastOps = cur
		}
	}
	tick.Stop()
	close(stop)
	wg.Wait()

	if stalled {
		fatal("watchdog", fmt.Errorf("no progress for 2s — possible deadlock"))
	}
	if failures.Load() > 0 {
		fatal("workload", fmt.Errorf("%d operation failures", failures.Load()))
	}

	// Settle and validate.
	if err := tr.Compact(); err != nil {
		fatal("compact", err)
	}
	if err := tr.Check(); err != nil {
		fatal("check", err)
	}
	st, err := tr.Stats()
	if err != nil {
		fatal("stats", err)
	}
	if st.Tree.InsertLocks.MaxHeld > 1 || st.Tree.DeleteLocks.MaxHeld > 1 || st.Tree.CondLocks.MaxHeld > 1 {
		fatal("locks", fmt.Errorf("update footprint exceeded 1: %+v", st.Tree))
	}
	if st.CompressorMaxLocks > 3 {
		fatal("locks", fmt.Errorf("compressor footprint %d > 3", st.CompressorMaxLocks))
	}

	rate := float64(ops.Load()) / dur.Seconds()
	fmt.Printf("PASS: %d ops (%.0f ops/s), %d restarts, %d link hops, %d merges, %d redistributions\n",
		ops.Load(), rate, st.Tree.Restarts, st.Tree.LinkHops, st.Merges, st.Redist)
	fmt.Printf("      occupancy: %d nodes, height %d, %d underfull, mean fill %.2f; pages freed %d\n",
		st.Occupancy.Nodes, st.Occupancy.Height, st.Occupancy.Underfull,
		st.Occupancy.MeanFill, st.Reclaim.Freed)
	fmt.Println("      per-op-kind throughput:")
	for kind := workload.OpKind(0); kind < workload.NumOpKinds; kind++ {
		n := kindOps[kind].Load()
		if n == 0 {
			continue
		}
		fmt.Printf("        %-7s %12d ops  %12.0f ops/s\n", kind, n, float64(n)/dur.Seconds())
	}
	if *shards > 1 {
		fmt.Println("      shard balance (executed ops / pairs / height):")
		for _, ss := range tr.ShardStats() {
			executed := ss.Searches + ss.Inserts + ss.Deletes + ss.Upserts +
				ss.Updates + ss.Cas + ss.Scans
			fmt.Printf("        shard %2d: %9d ops  %7d pairs  height %d\n",
				ss.Shard, executed, ss.Len, ss.Height)
		}
	}
}

func fatal(what string, err error) {
	fmt.Fprintf(os.Stderr, "FAIL (%s): %v\n", what, err)
	os.Exit(1)
}

// runDurable is the -durable mode: a WAL-backed mixed workload with an
// oracle, a mid-run committer kill at a random torn-write offset,
// recovery, and verification that recovery is prefix-consistent —
// every acknowledged op present, no phantoms.
func runDurable(dur time.Duration, workers, shards, k, compressors int, dir string) {
	if shards < 1 {
		fatal("durable", fmt.Errorf("-shards %d: need at least 1", shards))
	}
	if dir == "" {
		d, err := os.MkdirTemp("", "blinkstress-wal")
		if err != nil {
			fatal("tmpdir", err)
		}
		defer os.RemoveAll(d)
		dir = d
	}
	opts := shard.Options{MinPairs: k, CompressorWorkers: compressors, Durable: true, Dir: dir}
	open := func() *shard.Router {
		r, err := shard.NewRouter(shards, opts)
		if err != nil {
			fatal("open", err)
		}
		return r
	}
	r := open()
	fmt.Printf("blinkstress durable: %d workers, shards=%d, k=%d, dir=%s, %v\n",
		workers, shards, k, dir, dur)

	// Each worker owns a disjoint key slice, so per-key histories are
	// sequential and the oracle is exact: lastAcked is the state after
	// the newest acknowledged op; attempt is the single in-flight op a
	// crash may or may not have persisted.
	const keysPer = 512
	type state struct {
		val     base.Value
		present bool
	}
	lastAcked := make([]map[uint64]state, workers)
	attempt := make([]map[uint64]state, workers)
	stride := ^uint64(0)/uint64(workers*keysPer) + 1
	key := func(raw uint64) base.Key { return base.Key(raw * stride) }

	var ops atomic.Uint64
	var killed atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lastAcked[w] = make(map[uint64]state)
		attempt[w] = make(map[uint64]state)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				raw := uint64(w*keysPer) + uint64(rng.Intn(keysPer))
				cur := lastAcked[w][raw]
				var next state
				var err error
				switch {
				case cur.present && rng.Intn(4) == 0:
					next = state{}
					err = r.Delete(key(raw))
				case cur.present && rng.Intn(3) == 0:
					next = state{val: cur.val + 1, present: true}
					_, err = r.Update(key(raw), func(v base.Value) base.Value { return v + 1 })
				default:
					next = state{val: base.Value(rng.Uint64() | 1), present: true}
					_, _, err = r.Upsert(key(raw), next.val)
				}
				if err != nil {
					if !killed.Load() {
						fatal("durable workload", err)
					}
					attempt[w][raw] = next
					return
				}
				lastAcked[w][raw] = next
				ops.Add(1)
			}
		}(w)
	}
	// Checkpoint under load: the fuzzy snapshot + idempotent log suffix
	// must hold up while the kill can land at any moment.
	ckpts := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		period := dur / 8
		if period < 100*time.Millisecond {
			period = 100 * time.Millisecond
		}
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if err := r.Checkpoint(); err != nil {
					if !killed.Load() {
						fatal("checkpoint", err)
					}
					return
				}
				ckpts++
			}
		}
	}()

	time.Sleep(dur / 2)
	partial := rand.Intn(64)
	killed.Store(true)
	r.CrashWAL(partial)
	close(stop)
	wg.Wait()
	ackedOps := ops.Load()
	fmt.Printf("      killed committer mid-group (torn write: %d bytes) after %d acked ops, %d checkpoints\n",
		partial, ackedOps, ckpts)
	if pre, err := r.Stats(); err == nil {
		fmt.Printf("      pre-crash wal: %d records / %d syncs (mean group %.1f, max %d)\n",
			pre.WAL.Records, pre.WAL.Syncs, pre.WAL.MeanGroup(), pre.WAL.MaxGroup)
	}

	// Recover from disk and verify against the oracle.
	r2 := open()
	defer r2.Close()
	verified := 0
	for w := 0; w < workers; w++ {
		for raw, want := range lastAcked[w] {
			v, err := r2.Search(key(raw))
			if err != nil && !errors.Is(err, blinktree.ErrNotFound) {
				fatal("verify", err)
			}
			got := state{val: v, present: err == nil}
			if got == want {
				verified++
				continue
			}
			if alt, ok := attempt[w][raw]; ok && got == alt {
				verified++ // the in-flight op's record survived the tear
				continue
			}
			fatal("verify", fmt.Errorf("key %d: recovered %+v, acked %+v, attempt %+v",
				raw, got, want, attempt[w][raw]))
		}
	}
	// No phantoms: every recovered pair must map back to an oracle entry.
	phantoms := 0
	err := r2.Range(0, base.Key(^uint64(0)), func(kk base.Key, v base.Value) bool {
		raw := uint64(kk) / stride
		w := int(raw) / keysPer
		if w < 0 || w >= workers || uint64(kk)%stride != 0 {
			phantoms++
			return false
		}
		got := state{val: v, present: true}
		if got != lastAcked[w][raw] {
			if alt, ok := attempt[w][raw]; !ok || got != alt {
				phantoms++
				return false
			}
		}
		return true
	})
	if err != nil {
		fatal("verify scan", err)
	}
	if phantoms > 0 {
		fatal("verify", fmt.Errorf("%d phantom pairs survived recovery", phantoms))
	}

	// The recovered index must be fully live: more traffic, then the
	// structural invariants.
	for i := uint64(0); i < 5000; i++ {
		raw := i % uint64(workers*keysPer)
		if _, _, err := r2.Upsert(key(raw), base.Value(i)); err != nil {
			fatal("post-recovery traffic", err)
		}
	}
	if err := r2.Checkpoint(); err != nil {
		fatal("post-recovery checkpoint", err)
	}
	if err := r2.Check(); err != nil {
		fatal("post-recovery check", err)
	}
	st, err := r2.Stats()
	if err != nil {
		fatal("stats", err)
	}
	fmt.Printf("PASS: %d oracle keys verified, 0 phantoms; recovery replayed %d records\n",
		verified, st.WAL.Replayed)
	fmt.Printf("      wal: %d records / %d syncs (mean group %.1f, max %d), %d bytes, %d rotations, %d checkpoints\n",
		st.WAL.Records, st.WAL.Syncs, st.WAL.MeanGroup(), st.WAL.MaxGroup,
		st.WAL.Bytes, st.WAL.Rotations, st.Checkpoints)
}
