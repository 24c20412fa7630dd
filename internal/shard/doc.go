// Package shard scales the Sagiv B-link tree horizontally: it
// range-partitions the uint64 keyspace across N fully independent
// Engines, each a complete instance of the paper's machinery — a
// blink.Tree (§2–§4), its own lock table (§2.2), its own compression
// queue and workers (§5.4), and its own reclamation epoch (§5.3).
//
// The paper's concurrency guarantees are per tree: searches lock
// nothing, updates lock at most one node (Theorem 1), compressors lock
// at most three and never deadlock (Theorem 2). Sharding multiplies
// those guarantees rather than weakening them — a Router never holds
// locks of two shards for one point operation, because every key maps
// to exactly one shard. Contention (lock-table traffic, compression
// queues, root splits, reclamation epochs) is confined to a 1/N slice
// of the keyspace, which is what lets throughput scale with cores
// beyond what a single tree's upper levels allow.
//
// Layout of the package:
//
//   - engine.go: Engine, the bundle of one tree plus its compression
//     and reclamation lifecycle, assembled by OpenEngine.
//   - router.go: Router, the range partitioner. Point operations —
//     including the conditional writes Upsert, GetOrInsert, Update,
//     CompareAndSwap and CompareAndDelete, which stay atomic because
//     each key lives in exactly one shard — route by key; ordered
//     operations (Range, Min, Max) visit shards in partition order,
//     which is key order.
//   - cursor.go: Cursor and ReverseCursor stitch per-shard cursors
//     into one ascending (or descending) iterator with the same
//     at-most-once, no-locks semantics as a single tree's cursor
//     (§2.1 footnote 3, §5.2), skipping empty shards without paying
//     a descent to probe them.
//   - iter.go: All/Ascend/Descend, Go 1.23 range-over-func iteration
//     that walks the owning shards' tree cursors in key order.
//   - batch.go: ApplyBatch groups operations by destination shard and
//     dispatches each group on its own goroutine — amortizing routing
//     and letting disjoint shards proceed truly in parallel. Every
//     logical operation except Update (it carries a function) can be
//     batched. On a durable engine a shard group appends all its log
//     records first and waits for one group commit, so a batch pays
//     ~one fsync per touched shard, not one per operation.
//   - ops.go: the Engine operation surface the Router calls. Each
//     operation is written once (exec, plus Update for the closure):
//     lock takes the key's stripe only on a durable engine (Options.
//     Durable + Dir), and logged marks the verify bucket and appends
//     the put/del record of the resolved outcome only on a durable
//     engine, which then waits for its group commit. The stripes
//     remain: they make apply and append one step per key, so racing
//     same-key mutations log in apply order and a log position cuts
//     the applied state exactly — which Checkpoint, SealedRoot (it
//     holds every stripe) and the cluster fence rely on. Removing
//     them needs a replacement cut designed first. Recovery
//     (openDurable) and Checkpoint live in engine.go; the log itself
//     is internal/wal. Checkpoint's fuzzy scan runs concurrently with
//     searches and updates but pauses background compression
//     (Compressor.Pause/Resume) and serializes with Compact and
//     DrainCompression — a leftward merge could move an acknowledged
//     pair behind the scan cursor, and truncation would then drop its
//     only durable record.
//
// Durability is per shard: each engine logs to its own segment set
// under Dir/shard<i> and checkpoints independently, so group commit
// never coordinates across shards — the same independence the locks,
// queues and epochs already have.
//
// The partition is static: shard i owns keys [i·stride, (i+1)·stride)
// with stride = ceil(2^64 / N). Static ranges keep routing a single
// integer division and make cross-shard order trivial (all keys of
// shard i precede all keys of shard i+1); the cost is that skewed
// workloads can load shards unevenly — per-shard metrics (Router.
// ShardStats) expose that imbalance.
//
// Above the Router sit two callers: the public blinktree facade
// (in-process; blinktree.Tree is a thin wrapper over a Router, the
// single tree being the one-shard case) and internal/server, the TCP front-end, which
// coalesces each burst of pipelined network requests into one
// ApplyBatch. The Router is the integration point deliberately: both
// callers get shard parallelism and per-shard group commit from the
// same code path. See ARCHITECTURE.md for the full layer map.
package shard
