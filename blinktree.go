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
// Two front-ends implement the same Index interface:
//
//   - NewTree / Open: one tree, the paper-faithful configuration.
//   - NewSharded / OpenSharded: N independent trees range-partitioned
//     over the keyspace, each with its own lock table, compression
//     queue and reclamation epoch — the scaled configuration for
//     write-heavy multicore workloads.
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
// Beyond the paper's Search/Insert/Delete, both front-ends expose
// atomic conditional writes — the read-modify-write shapes serving
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
// Descend(hi, lo) on both front-ends, plus explicit Cursor /
// ReverseCursor types; the callback Range remains.
//
// Durability is opt-in: Options{Durable: true, Dir: "..."} gives
// either front-end a group-commit write-ahead log and crash recovery —
// every mutation is acknowledged only after its log record is fsynced
// (batched across concurrent writers into one sync), Open/OpenSharded
// on the same Dir recovers "checkpoint + log suffix", and Checkpoint()
// truncates the log without blocking readers or writers:
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
	"io"
	"iter"

	"blinktree/internal/base"
	"blinktree/internal/blink"
	"blinktree/internal/shard"
	"blinktree/internal/verify"
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

// Iterator walks pairs in ascending key order: strictly ascending
// keys, each key at most once, no locks held, concurrent mutations may
// or may not be observed. Implemented by both front-ends' cursors.
type Iterator interface {
	// Next advances to the following pair, returning false at the end
	// or on error (check Err).
	Next() (Key, Value, bool)
	// Seek repositions before the smallest key ≥ k; backwards is
	// allowed.
	Seek(k Key)
	// Err returns the error that terminated iteration, if any.
	Err() error
}

// Index is the interface shared by the single tree (Tree) and the
// sharded front-end (Sharded): the paper's logical operations plus the
// maintenance surface. All methods are safe for concurrent use; Check,
// BulkLoad, Snapshot and Restore are exact only when quiesced.
type Index interface {
	// Insert stores v under k; ErrDuplicate if k is present.
	Insert(k Key, v Value) error
	// Search returns the value stored under k, or ErrNotFound.
	Search(k Key) (Value, error)
	// Delete removes k, or returns ErrNotFound.
	Delete(k Key) error
	// Upsert stores v under k unconditionally, returning the previous
	// value and whether one existed. Atomic: one descent, the decision
	// under the single held leaf lock.
	Upsert(k Key, v Value) (old Value, existed bool, err error)
	// GetOrInsert returns the value under k, inserting v first when k
	// is absent; loaded reports whether it was already present.
	GetOrInsert(k Key, v Value) (actual Value, loaded bool, err error)
	// Update atomically replaces the value under k with fn(current) and
	// returns the new value, or ErrNotFound. fn runs under the held
	// leaf lock and may be re-invoked after internal restarts; keep it
	// fast and side-effect free.
	Update(k Key, fn func(Value) Value) (Value, error)
	// CompareAndSwap replaces k's value with new only when it equals
	// old. A missing key is ErrNotFound; a mismatch is (false, nil).
	CompareAndSwap(k Key, old, new Value) (swapped bool, err error)
	// CompareAndDelete removes k only when its value equals old, with
	// the same convention as CompareAndSwap.
	CompareAndDelete(k Key, old Value) (deleted bool, err error)
	// Range calls fn for each pair with lo ≤ key ≤ hi in ascending
	// order, stopping early if fn returns false.
	Range(lo, hi Key, fn func(Key, Value) bool) error
	// All returns a range-over-func iterator over every pair in
	// ascending key order: for k, v := range idx.All() { ... }.
	All() iter.Seq2[Key, Value]
	// Ascend returns an iterator over lo ≤ key ≤ hi, ascending.
	Ascend(lo, hi Key) iter.Seq2[Key, Value]
	// Descend returns an iterator over lo ≤ key ≤ hi in descending
	// order, from hi down to lo.
	Descend(hi, lo Key) iter.Seq2[Key, Value]
	// Min returns the smallest stored pair, or ErrNotFound when empty.
	Min() (Key, Value, error)
	// Max returns the largest stored pair, or ErrNotFound when empty.
	Max() (Key, Value, error)
	// Len returns the number of stored pairs (exact when quiesced).
	Len() int
	// Height returns the number of levels (the max across shards).
	Height() int
	// NewIterator returns an Iterator positioned before the smallest
	// key ≥ start.
	NewIterator(start Key) Iterator
	// BulkLoad builds an empty index bottom-up from a strictly
	// ascending pair stream; see Tree.BulkLoad.
	BulkLoad(pairs func() (Key, Value, bool), fill float64) error
	// Compact fully compresses the index; see Tree.Compact.
	Compact() error
	// DrainCompression processes pending underfull queues once.
	DrainCompression() error
	// CollectGarbage frees retired pages no live operation can still
	// reference (§5.3).
	CollectGarbage() (int, error)
	// Check validates every structural invariant. Run it quiesced.
	Check() error
	// Stats returns a snapshot of operation and compression counters.
	Stats() (Stats, error)
	// Snapshot streams all pairs in ascending order to w.
	Snapshot(w io.Writer) error
	// Restore loads a Snapshot stream into the (fresh) index.
	Restore(r io.Reader) error
	// Checkpoint makes the current state durable as a snapshot and
	// truncates the write-ahead log (no-op on a volatile index). It
	// runs concurrently with readers and writers.
	Checkpoint() error
	// Close releases resources; the index must not be used afterwards.
	Close() error
}

// Compile-time checks that both front-ends satisfy the shared
// interfaces (and, for mixed fleets, the internal baseline contract).
var (
	_ Index     = (*Tree)(nil)
	_ Index     = (*Sharded)(nil)
	_ base.Tree = (Index)(nil)
	_ Iterator  = (*Cursor)(nil)
	_ Iterator  = (*ShardedCursor)(nil)
)

// Tree is a concurrent B-link tree — the paper-faithful single-tree
// front-end. All methods are safe for concurrent use by any number of
// goroutines.
type Tree struct {
	eng *shard.Engine
}

// Open creates a Tree per opts. With Options.Durable set, Open
// recovers any state previously logged under Options.Dir (newest
// checkpoint plus the surviving log suffix) before returning; a Dir
// written by a sharded index is rejected (the on-disk layout records
// its topology).
func Open(opts Options) (*Tree, error) {
	if opts.Durable && opts.Dir != "" {
		if err := shard.EnsureLayout(opts.Dir, 1); err != nil {
			return nil, err
		}
	}
	eng, err := shard.OpenEngine(opts)
	if err != nil {
		return nil, err
	}
	return &Tree{eng: eng}, nil
}

// NewTree returns a default in-memory Tree (background compression,
// k = 16). It panics on failure, which the default configuration
// cannot produce; use Open to handle errors or set options.
func NewTree() *Tree {
	t, err := Open(Options{})
	if err != nil {
		panic(err)
	}
	return t
}

// Insert stores v under k; ErrDuplicate if k is present.
func (t *Tree) Insert(k Key, v Value) error { return t.eng.Insert(k, v) }

// Search returns the value stored under k, or ErrNotFound.
func (t *Tree) Search(k Key) (Value, error) { return t.eng.Tree.Search(k) }

// Delete removes k, or returns ErrNotFound.
func (t *Tree) Delete(k Key) error { return t.eng.Delete(k) }

// Upsert stores v under k unconditionally, returning the previous
// value and whether one existed. It is atomic under the paper's
// protocol — one descent, the present/absent decision taken while the
// single leaf lock is held — unlike a Search+Insert emulation.
func (t *Tree) Upsert(k Key, v Value) (Value, bool, error) { return t.eng.Upsert(k, v) }

// GetOrInsert returns the value under k, inserting v first when k is
// absent; loaded reports whether it was already present.
func (t *Tree) GetOrInsert(k Key, v Value) (Value, bool, error) {
	return t.eng.GetOrInsert(k, v)
}

// Update atomically replaces the value under k with fn(current) and
// returns the new value, or ErrNotFound. fn runs under the held leaf
// lock and may be re-invoked after internal restarts; keep it fast and
// side-effect free.
func (t *Tree) Update(k Key, fn func(Value) Value) (Value, error) {
	return t.eng.Update(k, fn)
}

// CompareAndSwap replaces k's value with new only when it equals old.
// A missing key is ErrNotFound; a mismatch is (false, nil).
func (t *Tree) CompareAndSwap(k Key, old, new Value) (bool, error) {
	return t.eng.CompareAndSwap(k, old, new)
}

// CompareAndDelete removes k only when its value equals old, with the
// same convention as CompareAndSwap.
func (t *Tree) CompareAndDelete(k Key, old Value) (bool, error) {
	return t.eng.CompareAndDelete(k, old)
}

// Range calls fn for each pair with lo ≤ key ≤ hi in ascending order,
// stopping early if fn returns false.
func (t *Tree) Range(lo, hi Key, fn func(Key, Value) bool) error {
	return t.eng.Tree.Range(lo, hi, fn)
}

// All returns a range-over-func iterator over every pair in ascending
// key order. It holds no locks; see NewCursor for the semantics under
// concurrent mutation.
func (t *Tree) All() iter.Seq2[Key, Value] { return t.eng.Tree.All() }

// Ascend returns an iterator over the pairs with lo ≤ key ≤ hi in
// ascending key order.
func (t *Tree) Ascend(lo, hi Key) iter.Seq2[Key, Value] { return t.eng.Tree.Ascend(lo, hi) }

// Descend returns an iterator over the pairs with lo ≤ key ≤ hi in
// descending key order, from hi down to lo. Reverse order has no link
// chain to ride (splits only ever create right links), so each leaf
// hop costs one O(height) descent; see NewReverseCursor.
func (t *Tree) Descend(hi, lo Key) iter.Seq2[Key, Value] { return t.eng.Tree.Descend(hi, lo) }

// Min returns the smallest stored pair, or ErrNotFound when empty.
func (t *Tree) Min() (Key, Value, error) { return t.eng.Tree.Min() }

// Max returns the largest stored pair, or ErrNotFound when empty.
func (t *Tree) Max() (Key, Value, error) { return t.eng.Tree.Max() }

// Len returns the number of stored pairs (exact when quiesced).
func (t *Tree) Len() int { return t.eng.Tree.Len() }

// Height returns the number of levels (1 for a root-leaf tree).
func (t *Tree) Height() int { return t.eng.Tree.Height() }

// Compact fully compresses the tree: it drains the underfull queue,
// then runs scan passes (§5.1) until every non-root node holds at least
// MinPairs pairs and the height is minimal, then frees retired pages.
// It may run concurrently with other operations, though it converges
// fastest quiesced.
func (t *Tree) Compact() error { return t.eng.Compact() }

// DrainCompression processes the pending underfull queue once without
// running full scan passes. No-op when compression is off.
func (t *Tree) DrainCompression() error { return t.eng.DrainCompression() }

// CollectGarbage frees pages retired by compression that no live
// operation can still reference (§5.3). Compact calls it, and
// background compression calls it whenever a small batch of retired
// pages has built up, so a caller needs it only to empty limbo now.
func (t *Tree) CollectGarbage() (int, error) { return t.eng.CollectGarbage() }

// Check validates every structural invariant. Run it quiesced.
func (t *Tree) Check() error { return t.eng.Check() }

// Checkpoint writes the tree's current state as a durable snapshot
// and truncates the write-ahead log to the uncovered suffix, bounding
// recovery time. It runs concurrently with readers and writers (the
// snapshot is fuzzy; the kept log suffix replays idempotently on top).
// No-op on a volatile tree; see Options.Durable.
func (t *Tree) Checkpoint() error { return t.eng.Checkpoint() }

// Close stops background compression and closes the store. The tree
// must not be used afterwards.
func (t *Tree) Close() error { return t.eng.Close() }

// Cursor iterates pairs in ascending key order. See blink.Cursor for
// the concurrent-mutation semantics (strictly ascending, each key at
// most once, no locks held).
type Cursor = blink.Cursor

// ReverseCursor iterates pairs in descending key order: strictly
// descending, each key at most once, no locks held. Each leaf hop
// re-descends for the predecessor (B-link trees have no left links),
// costing O(height) per leaf instead of one link read.
type ReverseCursor = blink.ReverseCursor

// NewCursor returns a cursor positioned before the smallest key ≥ start.
func (t *Tree) NewCursor(start Key) *Cursor { return t.eng.Tree.NewCursor(start) }

// NewReverseCursor returns a cursor positioned before the largest key
// ≤ start.
func (t *Tree) NewReverseCursor(start Key) *ReverseCursor {
	return t.eng.Tree.NewReverseCursor(start)
}

// NewIterator returns the same cursor as NewCursor behind the Iterator
// interface.
func (t *Tree) NewIterator(start Key) Iterator { return t.NewCursor(start) }

// BulkLoad builds an empty tree bottom-up from a strictly ascending
// pair stream, packing nodes to the fill fraction (0 = fully packed).
// It is much faster than repeated Insert and requires exclusive access;
// the tree is fully concurrent afterwards.
func (t *Tree) BulkLoad(pairs func() (Key, Value, bool), fill float64) error {
	return t.eng.BulkLoad(pairs, fill)
}

// Stats aggregates the counters of a front-end and its compressors.
// For a sharded index, counters sum across shards, lock high-waters
// take the shard maximum, and occupancy merges node-weighted.
type Stats = shard.Stats

// Stats returns a snapshot of operation and compression counters.
// Occupancy is gathered with a full walk; avoid calling it in hot
// loops.
func (t *Tree) Stats() (Stats, error) { return t.eng.Stats() }

// Verified reports whether the tree maintains the integrity hash tree
// (Options.Verified).
func (t *Tree) Verified() bool { return t.eng.Verified() }

// Root returns the tree's state root: the deterministic hash of its
// full content under the integrity layer's hash tree. Two trees with
// the same pairs (and bucketing) have the same root. Concurrent with
// writers the result is fuzzy-but-recent; quiesced it is exact.
// Errors unless Options.Verified was set.
func (t *Tree) Root() ([32]byte, error) {
	r, err := t.eng.VerifyRoot()
	if err != nil {
		return [32]byte{}, err
	}
	return verify.CombineShards([]verify.Hash{r}, t.eng.VerifyBuckets()), nil
}

// Sharded is the scaled front-end: N independent trees
// range-partitioned over the keyspace (shard i owns keys
// [i·2^64/N, (i+1)·2^64/N)). Point operations route to one shard;
// ordered operations stitch shards in key order; each shard has its
// own lock table, compression queue and reclamation epoch, so
// contention stays within a shard. All methods are safe for concurrent
// use by any number of goroutines.
type Sharded struct {
	r *shard.Router
}

// OpenSharded creates a sharded index of n ≥ 1 shards, each configured
// per opts. With a non-empty Path, shard i persists to
// "<path>.shard<i>". With Options.Durable, shard i logs and recovers
// independently under "<dir>/shard<i>" — one WAL segment set per
// shard, so shards group-commit without cross-shard coordination; the
// shard count must match across reopenings of the same Dir.
func OpenSharded(n int, opts Options) (*Sharded, error) {
	r, err := shard.NewRouter(n, opts)
	if err != nil {
		return nil, err
	}
	return &Sharded{r: r}, nil
}

// NewSharded returns a default in-memory sharded index of n shards
// (background compression, k = 16 per shard). It panics when n < 1;
// use OpenSharded to handle errors or set options.
func NewSharded(n int) *Sharded {
	s, err := OpenSharded(n, Options{})
	if err != nil {
		panic(err)
	}
	return s
}

// Shards returns the number of partitions.
func (s *Sharded) Shards() int { return s.r.Shards() }

// Insert stores v under k in k's shard; ErrDuplicate if k is present.
func (s *Sharded) Insert(k Key, v Value) error { return s.r.Insert(k, v) }

// Search returns the value stored under k, or ErrNotFound.
func (s *Sharded) Search(k Key) (Value, error) { return s.r.Search(k) }

// Delete removes k from its shard, or returns ErrNotFound.
func (s *Sharded) Delete(k Key) error { return s.r.Delete(k) }

// Upsert stores v under k in k's shard, returning the previous value
// and whether one existed. Atomic within the owning shard, like every
// point operation.
func (s *Sharded) Upsert(k Key, v Value) (Value, bool, error) { return s.r.Upsert(k, v) }

// GetOrInsert returns the value under k, inserting v first when k is
// absent from its shard.
func (s *Sharded) GetOrInsert(k Key, v Value) (Value, bool, error) { return s.r.GetOrInsert(k, v) }

// Update atomically replaces the value under k with fn(current) in k's
// shard, or returns ErrNotFound.
func (s *Sharded) Update(k Key, fn func(Value) Value) (Value, error) { return s.r.Update(k, fn) }

// CompareAndSwap replaces k's value with new only when it equals old.
func (s *Sharded) CompareAndSwap(k Key, old, new Value) (bool, error) {
	return s.r.CompareAndSwap(k, old, new)
}

// CompareAndDelete removes k only when its value equals old.
func (s *Sharded) CompareAndDelete(k Key, old Value) (bool, error) {
	return s.r.CompareAndDelete(k, old)
}

// Range calls fn for each pair with lo ≤ key ≤ hi in ascending order
// across all shards, stopping early if fn returns false.
func (s *Sharded) Range(lo, hi Key, fn func(Key, Value) bool) error {
	return s.r.Range(lo, hi, fn)
}

// All returns a range-over-func iterator over every pair of every
// shard in ascending key order.
func (s *Sharded) All() iter.Seq2[Key, Value] { return s.r.All() }

// Ascend returns an iterator over lo ≤ key ≤ hi, ascending, crossing
// shard boundaries transparently.
func (s *Sharded) Ascend(lo, hi Key) iter.Seq2[Key, Value] { return s.r.Ascend(lo, hi) }

// Descend returns an iterator over lo ≤ key ≤ hi in descending order,
// from hi down to lo, visiting shards right to left.
func (s *Sharded) Descend(hi, lo Key) iter.Seq2[Key, Value] { return s.r.Descend(hi, lo) }

// Min returns the smallest stored pair, or ErrNotFound when empty.
func (s *Sharded) Min() (Key, Value, error) { return s.r.Min() }

// Max returns the largest stored pair, or ErrNotFound when empty.
func (s *Sharded) Max() (Key, Value, error) { return s.r.Max() }

// Len returns the total number of stored pairs (exact when quiesced).
func (s *Sharded) Len() int { return s.r.Len() }

// Height returns the tallest shard's level count.
func (s *Sharded) Height() int { return s.r.Height() }

// ShardedCursor iterates all shards in ascending key order by
// stitching per-shard cursors end to end.
type ShardedCursor = shard.Cursor

// ShardedReverseCursor iterates all shards in descending key order,
// stitching per-shard reverse cursors right to left.
type ShardedReverseCursor = shard.ReverseCursor

// NewCursor returns a cursor positioned before the smallest key ≥
// start, in whichever shard owns it — routed directly, like point
// operations, with no probes of other shards.
func (s *Sharded) NewCursor(start Key) *ShardedCursor { return s.r.NewCursor(start) }

// NewReverseCursor returns a cursor positioned before the largest key
// ≤ start, in whichever shard owns it.
func (s *Sharded) NewReverseCursor(start Key) *ShardedReverseCursor {
	return s.r.NewReverseCursor(start)
}

// NewIterator returns the same cursor as NewCursor behind the Iterator
// interface.
func (s *Sharded) NewIterator(start Key) Iterator { return s.NewCursor(start) }

// BulkLoad builds all shards bottom-up from one strictly ascending
// pair stream, cutting it at partition boundaries. Same contract as
// Tree.BulkLoad: empty index, exclusive access.
func (s *Sharded) BulkLoad(pairs func() (Key, Value, bool), fill float64) error {
	return s.r.BulkLoad(pairs, fill)
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
// disjoint shards truly in parallel.
func (s *Sharded) ApplyBatch(ops []BatchOp) []BatchResult { return s.r.ApplyBatch(ops) }

// Compact fully compresses every shard; see Tree.Compact.
func (s *Sharded) Compact() error { return s.r.Compact() }

// DrainCompression drains every shard's underfull queue once.
func (s *Sharded) DrainCompression() error { return s.r.DrainCompression() }

// CollectGarbage frees retired pages in every shard, returning the
// total freed.
func (s *Sharded) CollectGarbage() (int, error) { return s.r.CollectGarbage() }

// Check validates every shard's structural invariants. Run it
// quiesced.
func (s *Sharded) Check() error { return s.r.Check() }

// Checkpoint checkpoints every shard independently — each writes its
// own snapshot and truncates its own log, with no cross-shard barrier.
// No-op on a volatile index; see Options.Durable.
func (s *Sharded) Checkpoint() error { return s.r.Checkpoint() }

// Stats aggregates all shards' counters; see Stats for the merge
// rules. Occupancy walks every shard; avoid calling it in hot loops.
func (s *Sharded) Stats() (Stats, error) { return s.r.Stats() }

// Verified reports whether the index maintains the integrity hash
// tree (Options.Verified).
func (s *Sharded) Verified() bool { return s.r.Verified() }

// Root returns the index state root — per-shard roots combined into
// one engine root. Same determinism contract as Tree.Root: equal
// content (under equal shard count and bucketing) means equal root.
func (s *Sharded) Root() ([32]byte, error) { return s.r.Root() }

// ShardStat is one shard's row of ShardStats.
type ShardStat = shard.ShardStat

// ShardStats reports routing balance and size per shard, cheaply (no
// occupancy walk). Use it to spot partition skew.
func (s *Sharded) ShardStats() []ShardStat { return s.r.ShardStats() }

// Close closes every shard, returning the first error but closing
// all. The index must not be used afterwards.
func (s *Sharded) Close() error { return s.r.Close() }
