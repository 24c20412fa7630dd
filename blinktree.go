// Package blinktree is a concurrent B-link tree with compression,
// implementing Yehoshua Sagiv's "Concurrent Operations on B*-Trees with
// Overtaking" (PODS 1985 / JCSS 33, 1986).
//
// The tree supports any number of concurrent searches, insertions and
// deletions. Searches take no locks; insertions and deletions lock at
// most one node at any instant (the paper's improvement over
// Lehman–Yao); and optional compression processes — running
// concurrently with everything else — merge or redistribute underfull
// nodes so that deletions do not degrade space utilization or height.
//
// One front-end, Tree, serves every configuration. A Tree is N ≥ 1
// independent B-link trees (shards) range-partitioned over the
// keyspace, each with its own lock table, compression queue and
// reclamation epoch:
//
//   - NewTree / Open: one shard, the paper-faithful configuration.
//   - NewSharded / OpenSharded: N shards — the scaled configuration
//     for write-heavy multicore workloads.
//
// Point operations route to the one shard owning the key; ordered
// operations stitch shards in key order; ApplyBatch runs disjoint
// shards in parallel.
//
// Quick start:
//
//	t, err := blinktree.Open(blinktree.Options{})
//	if err != nil { ... }
//	defer t.Close()
//	_ = t.Insert(42, 420)
//	v, err := t.Search(42)
//	for k, v := range t.All() {
//		fmt.Println(k, v)
//	}
//
// Beyond the paper's Search/Insert/Delete, Tree exposes atomic
// conditional writes — the read-modify-write shapes serving
// workloads are made of — implemented inside the same protocol (one
// descent, the decision under the single held leaf lock):
//
//	old, existed, _ := t.Upsert(42, 421)              // put, returning what was there
//	v, loaded, _ := t.GetOrInsert(7, 70)              // the cache idiom
//	v, _ = t.Update(42, func(v Value) Value { return v + 1 })
//	swapped, _ := t.CompareAndSwap(42, v, 1000)
//	deleted, _ := t.CompareAndDelete(7, 70)
//
// Iteration is Go 1.23 range-over-func: All, Ascend(lo, hi) and
// Descend(hi, lo), plus explicit Cursor / ReverseCursor types; the
// callback Range remains.
//
// Durability is opt-in: Options{Durable: true, Dir: "..."} gives a
// Tree a group-commit write-ahead log and crash recovery — every
// mutation is acknowledged only after its log record is fsynced
// (batched across concurrent writers into one sync), opening the same
// Dir with the same shard count recovers "checkpoint + log suffix",
// and Checkpoint() truncates the log without blocking readers or
// writers:
//
//	t, _ := blinktree.Open(blinktree.Options{Durable: true, Dir: "/data/idx"})
//	_ = t.Insert(42, 420)   // returns after the record is on disk
//	_ = t.Checkpoint()      // snapshot + log truncation
//	_ = t.Close()
//	t, _ = blinktree.Open(blinktree.Options{Durable: true, Dir: "/data/idx"})
//	// state is back, including after a crash instead of Close
//
// By default compression runs in the background: deletions that leave a
// leaf underfull enqueue it, and worker goroutines compress it
// concurrently (§5.4 of the paper). Use CompressionManual and Compact
// for explicit control, or CompressionOff for the bare Lehman–Yao-style
// deletion regime.
//
// To serve an index over the network instead of in-process, run
// cmd/blinkserver and connect with the client package — the same
// operation surface, sentinel errors included, over a pipelined
// binary protocol (docs/protocol.md). See ARCHITECTURE.md for how
// the layers fit together.
package blinktree

import (
	"iter"

	"blinktree/internal/base"
	"blinktree/internal/shard"
)

// Key is a 64-bit search key; the full range is usable.
type Key = base.Key

// Value is the 64-bit payload stored with each key (the paper's
// "pointer to the record").
type Value = base.Value

// Sentinel errors returned by tree operations.
var (
	ErrNotFound  = base.ErrNotFound
	ErrDuplicate = base.ErrDuplicate
	ErrClosed    = base.ErrClosed
	ErrCorrupt   = base.ErrCorrupt
)

// CompressionMode selects how underfull nodes are repaired. See the
// mode constants for the three regimes.
type CompressionMode = shard.CompressionMode

// Compression modes.
const (
	// CompressionBackground runs worker goroutines that drain the
	// underfull queue concurrently with other operations (§5.4). The
	// default.
	CompressionBackground = shard.CompressionBackground
	// CompressionManual enqueues underfull nodes but compresses only
	// when Compact or DrainCompression is called.
	CompressionManual = shard.CompressionManual
	// CompressionOff never rebalances after deletions, exactly the
	// Lehman–Yao regime the paper improves on ([8], §4).
	CompressionOff = shard.CompressionOff
)

// Options configures Open and OpenSharded. The zero value is a usable
// in-memory tree with background compression. Aliased (like
// CompressionMode and Stats) so the facade cannot drift from the
// engine: see shard.Options for the field docs.
type Options = shard.Options

// Compile-time check that Tree satisfies the internal baseline
// contract, so it can run in mixed fleets beside the baselines.
var _ base.Tree = (*Tree)(nil)

// Tree is a concurrent B-link tree range-partitioned into N ≥ 1
// independent shards (shard i owns keys [i·2^64/N, (i+1)·2^64/N)).
// Point operations route to one shard; ordered operations stitch
// shards in key order; each shard has its own lock table, compression
// queue and reclamation epoch, so contention stays within a shard. All
// methods are safe for concurrent use by any number of goroutines.
type Tree struct {
	r *shard.Router
}

// Open creates a one-shard Tree per opts; it is OpenSharded(1, opts).
func Open(opts Options) (*Tree, error) { return OpenSharded(1, opts) }

// NewTree returns a default in-memory one-shard Tree (background
// compression, k = 16). It panics on failure, which the default
// configuration cannot produce; use Open to handle errors or set
// options.
func NewTree() *Tree { return NewSharded(1) }

// OpenSharded creates a Tree of n ≥ 1 shards, each configured per
// opts. With a non-empty Path, shard i persists to "<path>.shard<i>".
// With Options.Durable, shard i logs and recovers independently under
// "<dir>/shard<i>" — one WAL segment set per shard, so shards
// group-commit without cross-shard coordination — recovering any state
// previously logged there (newest checkpoint plus the surviving log
// suffix) before returning. The shard count must match across
// reopenings of the same Dir (the on-disk layout records it).
func OpenSharded(n int, opts Options) (*Tree, error) {
	r, err := shard.NewRouter(n, opts)
	if err != nil {
		return nil, err
	}
	return &Tree{r: r}, nil
}

// NewSharded returns a default in-memory Tree of n shards (background
// compression, k = 16 per shard). It panics when n < 1; use
// OpenSharded to handle errors or set options.
func NewSharded(n int) *Tree {
	t, err := OpenSharded(n, Options{})
	if err != nil {
		panic(err)
	}
	return t
}

// Shards returns the number of partitions.
func (t *Tree) Shards() int { return t.r.Shards() }

// Insert stores v under k; ErrDuplicate if k is present.
func (t *Tree) Insert(k Key, v Value) error { return t.r.Insert(k, v) }

// Search returns the value stored under k, or ErrNotFound.
func (t *Tree) Search(k Key) (Value, error) { return t.r.Search(k) }

// Delete removes k, or returns ErrNotFound.
func (t *Tree) Delete(k Key) error { return t.r.Delete(k) }

// Upsert stores v under k unconditionally, returning the previous
// value and whether one existed. It is atomic under the paper's
// protocol — one descent, the present/absent decision taken while the
// single leaf lock is held — unlike a Search+Insert emulation.
func (t *Tree) Upsert(k Key, v Value) (Value, bool, error) { return t.r.Upsert(k, v) }

// GetOrInsert returns the value under k, inserting v first when k is
// absent; loaded reports whether it was already present.
func (t *Tree) GetOrInsert(k Key, v Value) (Value, bool, error) { return t.r.GetOrInsert(k, v) }

// Update atomically replaces the value under k with fn(current) and
// returns the new value, or ErrNotFound. fn runs under the held leaf
// lock and may be re-invoked after internal restarts; keep it fast and
// side-effect free.
func (t *Tree) Update(k Key, fn func(Value) Value) (Value, error) { return t.r.Update(k, fn) }

// CompareAndSwap replaces k's value with new only when it equals old.
// A missing key is ErrNotFound; a mismatch is (false, nil).
func (t *Tree) CompareAndSwap(k Key, old, new Value) (bool, error) {
	return t.r.CompareAndSwap(k, old, new)
}

// CompareAndDelete removes k only when its value equals old, with the
// same convention as CompareAndSwap.
func (t *Tree) CompareAndDelete(k Key, old Value) (bool, error) {
	return t.r.CompareAndDelete(k, old)
}

// Range calls fn for each pair with lo ≤ key ≤ hi in ascending order,
// stopping early if fn returns false.
func (t *Tree) Range(lo, hi Key, fn func(Key, Value) bool) error { return t.r.Range(lo, hi, fn) }

// All returns a range-over-func iterator over every pair in ascending
// key order. It holds no locks; see NewCursor for the semantics under
// concurrent mutation.
func (t *Tree) All() iter.Seq2[Key, Value] { return t.r.All() }

// Ascend returns an iterator over the pairs with lo ≤ key ≤ hi in
// ascending key order, crossing shard boundaries transparently.
func (t *Tree) Ascend(lo, hi Key) iter.Seq2[Key, Value] { return t.r.Ascend(lo, hi) }

// Descend returns an iterator over the pairs with lo ≤ key ≤ hi in
// descending key order, from hi down to lo. Reverse order has no link
// chain to ride (splits only ever create right links), so each leaf
// hop costs one O(height) descent; see NewReverseCursor.
func (t *Tree) Descend(hi, lo Key) iter.Seq2[Key, Value] { return t.r.Descend(hi, lo) }

// Min returns the smallest stored pair, or ErrNotFound when empty.
func (t *Tree) Min() (Key, Value, error) { return t.r.Min() }

// Max returns the largest stored pair, or ErrNotFound when empty.
func (t *Tree) Max() (Key, Value, error) { return t.r.Max() }

// Len returns the number of stored pairs (exact when quiesced).
func (t *Tree) Len() int { return t.r.Len() }

// Height returns the number of levels of the tallest shard (1 for a
// root-leaf tree).
func (t *Tree) Height() int { return t.r.Height() }

// Cursor iterates pairs in ascending key order, stitching per-shard
// cursors end to end: strictly ascending keys, each key at most once,
// no locks held, concurrent mutations may or may not be observed.
type Cursor = shard.Cursor

// ReverseCursor iterates pairs in descending key order with the same
// semantics. Each leaf hop re-descends for the predecessor (B-link
// trees have no left links), costing O(height) per leaf instead of one
// link read.
type ReverseCursor = shard.ReverseCursor

// NewCursor returns a cursor positioned before the smallest key ≥
// start, routed directly to the shard owning start.
func (t *Tree) NewCursor(start Key) *Cursor { return t.r.NewCursor(start) }

// NewReverseCursor returns a cursor positioned before the largest key
// ≤ start.
func (t *Tree) NewReverseCursor(start Key) *ReverseCursor { return t.r.NewReverseCursor(start) }

// BulkLoad builds an empty tree bottom-up from a strictly ascending
// pair stream, cutting it at shard boundaries and packing nodes to the
// fill fraction (0 = fully packed). It is much faster than repeated
// Insert and requires exclusive access; the tree is fully concurrent
// afterwards. On a durable tree it ends with a checkpoint.
func (t *Tree) BulkLoad(pairs func() (Key, Value, bool), fill float64) error {
	return t.r.BulkLoad(pairs, fill)
}

// BatchOp is one operation of an ApplyBatch call.
type BatchOp = shard.Op

// BatchResult is the outcome of one batched operation.
type BatchResult = shard.Result

// Batched operation kinds for BatchOp.Kind. Update is not batchable
// (it carries a function); every other logical operation is.
const (
	BatchSearch           = shard.OpSearch
	BatchInsert           = shard.OpInsert
	BatchDelete           = shard.OpDelete
	BatchUpsert           = shard.OpUpsert
	BatchGetOrInsert      = shard.OpGetOrInsert
	BatchCompareAndSwap   = shard.OpCompareAndSwap
	BatchCompareAndDelete = shard.OpCompareAndDelete
)

// ApplyBatch groups ops by destination shard and dispatches each
// group on its own goroutine, returning results positionally aligned
// with ops. Errors are per-operation; a failed op does not stop the
// batch. For cross-shard batches this amortizes routing and runs
// disjoint shards truly in parallel; on a durable tree each shard
// group waits for one group commit.
func (t *Tree) ApplyBatch(ops []BatchOp) []BatchResult { return t.r.ApplyBatch(ops) }

// Compact fully compresses every shard: it drains the underfull
// queues, then runs scan passes (§5.1) until every non-root node holds
// at least MinPairs pairs and the height is minimal, then frees
// retired pages. It may run concurrently with other operations, though
// it converges fastest quiesced.
func (t *Tree) Compact() error { return t.r.Compact() }

// DrainCompression processes the pending underfull queues once
// without running full scan passes. No-op when compression is off.
func (t *Tree) DrainCompression() error { return t.r.DrainCompression() }

// CollectGarbage frees pages retired by compression that no live
// operation can still reference (§5.3), returning the number freed.
// Compact calls it, and background compression calls it whenever a
// small batch of retired pages has built up, so a caller needs it only
// to empty limbo now.
func (t *Tree) CollectGarbage() (int, error) { return t.r.CollectGarbage() }

// Check validates every structural invariant. Run it quiesced.
func (t *Tree) Check() error { return t.r.Check() }

// Checkpoint writes each shard's current state as a durable snapshot
// and truncates its write-ahead log to the uncovered suffix, bounding
// recovery time. Shards checkpoint independently, with no cross-shard
// barrier. It runs concurrently with readers and writers (the snapshot
// is fuzzy; the kept log suffix replays idempotently on top). No-op on
// a volatile tree; see Options.Durable.
func (t *Tree) Checkpoint() error { return t.r.Checkpoint() }

// Stats aggregates the counters of the shards and their compressors:
// counters sum across shards, lock high-waters take the shard maximum,
// and occupancy merges node-weighted.
type Stats = shard.Stats

// Stats returns a snapshot of operation and compression counters.
// Occupancy is gathered with a full walk; avoid calling it in hot
// loops.
func (t *Tree) Stats() (Stats, error) { return t.r.Stats() }

// ShardStat is one shard's row of ShardStats.
type ShardStat = shard.ShardStat

// ShardStats reports executed operations and size per shard, cheaply
// (no occupancy walk). Use it to spot partition skew.
func (t *Tree) ShardStats() []ShardStat { return t.r.ShardStats() }

// Verified reports whether the tree maintains the integrity hash tree
// (Options.Verified).
func (t *Tree) Verified() bool { return t.r.Verified() }

// Root returns the tree's state root: per-shard roots of the integrity
// layer's hash tree combined into one. Two trees with the same pairs
// (under equal shard count and bucketing) have the same root.
// Concurrent with writers the result is fuzzy-but-recent; quiesced it
// is exact. Errors unless Options.Verified was set.
func (t *Tree) Root() ([32]byte, error) { return t.r.Root() }

// Close stops background compression and closes every shard,
// returning the first error but closing all. The tree must not be used
// afterwards.
func (t *Tree) Close() error { return t.r.Close() }
