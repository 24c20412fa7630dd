package shard

import (
	"errors"
	"fmt"
	"path/filepath"

	"blinktree/internal/base"
	"blinktree/internal/blink"
	"blinktree/internal/locks"
	"blinktree/internal/metrics"
	"blinktree/internal/storage"
)

// OpMetrics describes the ApplyBatch dispatches routed to one shard,
// wired into the internal/metrics kit: one observation per batch slice.
// Per-operation counts live in the engine's tree (blink.Stats), which
// counts every op the shard executes, batched or not.
type OpMetrics struct {
	Batches      metrics.Counter
	BatchOps     metrics.Counter
	BatchLatency metrics.Histogram
}

// Router range-partitions the keyspace across N independent Engines.
// Shard i owns keys [i·stride, (i+1)·stride) with stride = ceil(2^64/N),
// so keys of shard i all precede keys of shard i+1 and ordered scans
// can visit shards left to right. All methods are safe for concurrent
// use by any number of goroutines.
type Router struct {
	engines []*Engine
	stride  uint64 // 0 means a single shard owning everything
	ms      []OpMetrics
}

// NewRouter builds n engines per opts. With a non-empty opts.Path,
// shard i persists to "<path>.shard<i>"; otherwise shards are in
// memory. n must be ≥ 1.
func NewRouter(n int, opts Options) (*Router, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: %d shards (need ≥ 1)", n)
	}
	if opts.Durable && opts.Dir != "" {
		if err := ensureLayout(opts.Dir, n); err != nil {
			return nil, err
		}
	}
	r := &Router{
		engines: make([]*Engine, n),
		ms:      make([]OpMetrics, n),
	}
	if n > 1 {
		r.stride = ^uint64(0)/uint64(n) + 1
	}
	for i := range r.engines {
		o := opts
		if opts.Path != "" {
			o.Path = fmt.Sprintf("%s.shard%d", opts.Path, i)
		}
		if opts.Dir != "" {
			// One WAL segment set (and checkpoint lineage) per shard, so
			// shards group-commit and truncate independently.
			o.Dir = filepath.Join(opts.Dir, fmt.Sprintf("shard%d", i))
		}
		e, err := OpenEngine(o)
		if err != nil {
			for _, prev := range r.engines[:i] {
				prev.Close()
			}
			return nil, err
		}
		r.engines[i] = e
	}
	return r, nil
}

// Shards returns the number of partitions.
func (r *Router) Shards() int { return len(r.engines) }

// shardFor maps a key to its owning shard index.
func (r *Router) shardFor(k base.Key) int {
	if r.stride == 0 {
		return 0
	}
	return int(uint64(k) / r.stride)
}

// ShardFor maps a key to its shard index — the range index the cluster
// layer assigns owners to.
func (r *Router) ShardFor(k base.Key) int { return r.shardFor(k) }

// lowKey returns the smallest key shard i can own.
func (r *Router) lowKey(i int) base.Key { return base.Key(uint64(i) * r.stride) }

// Metrics returns the batch counters of shard i.
func (r *Router) Metrics(i int) *OpMetrics { return &r.ms[i] }

// ShardSpan returns the inclusive key range shard i owns.
func (r *Router) ShardSpan(i int) (lo, hi base.Key) {
	lo = r.lowKey(i)
	if r.stride == 0 || i == len(r.engines)-1 {
		return lo, base.Key(^uint64(0))
	}
	return lo, r.lowKey(i+1) - 1
}

// Durable reports whether the router's engines log to a WAL.
func (r *Router) Durable() bool { return r.engines[0].WAL() != nil }

// Insert stores v under k in k's shard.
func (r *Router) Insert(k base.Key, v base.Value) error {
	return r.engines[r.shardFor(k)].Insert(k, v)
}

// InsertDirect stores v under k in k's shard, bypassing the write-
// ahead log — the loading path Restore shares with BulkLoad. Callers
// need exclusive access and must Checkpoint afterwards to make the
// loaded state durable (no-ops when volatile).
func (r *Router) InsertDirect(k base.Key, v base.Value) error {
	e := r.engines[r.shardFor(k)]
	if err := e.Tree.Insert(k, v); err != nil {
		return err
	}
	e.markVerify(k)
	return nil
}

// Search returns the value stored under k, or base.ErrNotFound.
func (r *Router) Search(k base.Key) (base.Value, error) {
	return r.engines[r.shardFor(k)].Tree.Search(k)
}

// Delete removes k from its shard, or returns base.ErrNotFound.
func (r *Router) Delete(k base.Key) error {
	return r.engines[r.shardFor(k)].Delete(k)
}

// Upsert stores v under k in k's shard, returning the previous value
// and whether one existed.
func (r *Router) Upsert(k base.Key, v base.Value) (base.Value, bool, error) {
	return r.engines[r.shardFor(k)].Upsert(k, v)
}

// GetOrInsert returns the value under k, inserting v first when k is
// absent from its shard.
func (r *Router) GetOrInsert(k base.Key, v base.Value) (base.Value, bool, error) {
	return r.engines[r.shardFor(k)].GetOrInsert(k, v)
}

// Update atomically replaces the value under k with fn(current), or
// returns base.ErrNotFound.
func (r *Router) Update(k base.Key, fn func(base.Value) base.Value) (base.Value, error) {
	return r.engines[r.shardFor(k)].Update(k, fn)
}

// CompareAndSwap swaps k's value from old to new in its shard.
func (r *Router) CompareAndSwap(k base.Key, old, new base.Value) (bool, error) {
	return r.engines[r.shardFor(k)].CompareAndSwap(k, old, new)
}

// CompareAndDelete removes k from its shard when its value equals old.
func (r *Router) CompareAndDelete(k base.Key, old base.Value) (bool, error) {
	return r.engines[r.shardFor(k)].CompareAndDelete(k, old)
}

// Range calls fn for each pair with lo ≤ key ≤ hi in ascending order
// across all shards, stopping early if fn returns false. Within each
// shard it has the scan semantics of blink.Tree.Range; across shards,
// order is preserved because partitions are contiguous.
func (r *Router) Range(lo, hi base.Key, fn func(base.Key, base.Value) bool) error {
	if hi < lo {
		return nil
	}
	stopped := false
	wrapped := func(k base.Key, v base.Value) bool {
		if !fn(k, v) {
			stopped = true
			return false
		}
		return true
	}
	first, last := r.shardFor(lo), r.shardFor(hi)
	for i := first; i <= last && !stopped; i++ {
		from := lo
		if i > first {
			from = r.lowKey(i)
		}
		if err := r.engines[i].Tree.Range(from, hi, wrapped); err != nil {
			return err
		}
	}
	return nil
}

// Min returns the smallest stored pair, or base.ErrNotFound when every
// shard is empty.
func (r *Router) Min() (base.Key, base.Value, error) {
	for _, e := range r.engines {
		k, v, err := e.Tree.Min()
		if err == nil {
			return k, v, nil
		}
		if !errors.Is(err, base.ErrNotFound) {
			return 0, 0, err
		}
	}
	return 0, 0, base.ErrNotFound
}

// Max returns the largest stored pair, or base.ErrNotFound when every
// shard is empty.
func (r *Router) Max() (base.Key, base.Value, error) {
	for i := len(r.engines) - 1; i >= 0; i-- {
		k, v, err := r.engines[i].Tree.Max()
		if err == nil {
			return k, v, nil
		}
		if !errors.Is(err, base.ErrNotFound) {
			return 0, 0, err
		}
	}
	return 0, 0, base.ErrNotFound
}

// Len returns the total number of stored pairs (exact when quiesced).
func (r *Router) Len() int {
	n := 0
	for _, e := range r.engines {
		n += e.Tree.Len()
	}
	return n
}

// Height returns the tallest shard's level count.
func (r *Router) Height() int {
	h := 0
	for _, e := range r.engines {
		if eh := e.Tree.Height(); eh > h {
			h = eh
		}
	}
	return h
}

// BulkLoad builds all shards bottom-up from one strictly ascending
// pair stream, cutting the stream at partition boundaries. Same
// contract as blink.Tree.BulkLoad: empty shards, exclusive access.
func (r *Router) BulkLoad(pairs func() (base.Key, base.Value, bool), fill float64) error {
	var (
		heldK base.Key
		heldV base.Value
		held  bool
		done  bool
	)
	for i, e := range r.engines {
		if done {
			break
		}
		boundary := base.Key(0)
		last := i == len(r.engines)-1
		if last && !held {
			// Nothing carried over: the rest of the stream is this
			// shard's, with no per-pair cut to check.
			return e.BulkLoad(pairs, fill)
		}
		if !last {
			boundary = r.lowKey(i + 1)
		}
		sub := func() (base.Key, base.Value, bool) {
			k, v := heldK, heldV
			if held {
				held = false
			} else {
				var ok bool
				if k, v, ok = pairs(); !ok {
					done = true
					return 0, 0, false
				}
			}
			if !last && k >= boundary {
				heldK, heldV, held = k, v, true
				return 0, 0, false
			}
			return k, v, true
		}
		if err := e.BulkLoad(sub, fill); err != nil {
			return err
		}
	}
	return nil
}

// Compact fully compresses every shard.
func (r *Router) Compact() error {
	for _, e := range r.engines {
		if err := e.Compact(); err != nil {
			return err
		}
	}
	return nil
}

// DrainCompression drains every shard's underfull queue once.
func (r *Router) DrainCompression() error {
	for _, e := range r.engines {
		if err := e.DrainCompression(); err != nil {
			return err
		}
	}
	return nil
}

// CollectGarbage frees retired pages in every shard, returning the
// total freed.
func (r *Router) CollectGarbage() (int, error) {
	total := 0
	for _, e := range r.engines {
		n, err := e.CollectGarbage()
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Checkpoint checkpoints every shard: each writes its state as a
// durable snapshot and truncates its own log. Shards checkpoint
// independently — there is no cross-shard barrier, matching the
// per-shard commit independence of the WAL itself. No-op when the
// router is volatile.
func (r *Router) Checkpoint() error {
	for i, e := range r.engines {
		if err := e.Checkpoint(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Engine returns shard i's engine — the handle stress and fault-
// injection tooling uses to reach per-shard durability controls.
func (r *Router) Engine(i int) *Engine { return r.engines[i] }

// CrashWAL simulates a crash on every shard's log for durability
// testing; see Engine.CrashWAL. The router must be abandoned
// afterwards.
func (r *Router) CrashWAL(partial int) {
	for _, e := range r.engines {
		e.CrashWAL(partial)
	}
}

// Check validates every shard's structural invariants. Run it quiesced.
func (r *Router) Check() error {
	for i, e := range r.engines {
		if err := e.Check(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Close closes every shard, returning the first error but closing all.
func (r *Router) Close() error {
	var first error
	for _, e := range r.engines {
		if err := e.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats aggregates all shards' counters into one Stats: counters sum,
// lock high-waters take the max, occupancy merges with a node-weighted
// mean fill.
func (r *Router) Stats() (Stats, error) {
	var agg Stats
	var fillSum float64
	var fillN int
	for _, e := range r.engines {
		s, err := e.Stats()
		if err != nil {
			return Stats{}, err
		}
		agg.Tree = mergeSnapshots(agg.Tree, s.Tree)
		agg.Reclaim.Retired += s.Reclaim.Retired
		agg.Reclaim.Freed += s.Reclaim.Freed
		agg.Reclaim.Limbo += s.Reclaim.Limbo
		agg.QueueDepth += s.QueueDepth
		agg.Merges += s.Merges
		agg.Redist += s.Redist
		agg.Collapses += s.Collapses
		if s.CompressorMaxLocks > agg.CompressorMaxLocks {
			agg.CompressorMaxLocks = s.CompressorMaxLocks
		}
		agg.WAL.Merge(s.WAL)
		agg.Checkpoints += s.Checkpoints
		agg.Pool.Merge(s.Pool)
		agg.Pooled = agg.Pooled || s.Pooled
		agg.Verified = agg.Verified || s.Verified
		agg.VerifyRehashes += s.VerifyRehashes
		o := s.Occupancy
		agg.Occupancy.Nodes += o.Nodes
		agg.Occupancy.Leaves += o.Leaves
		agg.Occupancy.Pairs += o.Pairs
		agg.Occupancy.Underfull += o.Underfull
		if o.Height > agg.Occupancy.Height {
			agg.Occupancy.Height = o.Height
		}
		// MeanFill averages over non-root nodes; each shard has one root.
		if w := o.Nodes - 1; w > 0 {
			fillSum += o.MeanFill * float64(w)
			fillN += w
		}
	}
	if fillN > 0 {
		agg.Occupancy.MeanFill = fillSum / float64(fillN)
	}
	return agg, nil
}

// ShardStat is the per-shard row of ShardStats: who owns what, how
// much the shard executed, and how the shard is doing.
type ShardStat struct {
	Shard      int
	Low        base.Key // smallest key this shard can own
	Len        int
	Height     int
	QueueDepth int
	// Searches through Scans count the operations the shard's tree
	// executed, batched or not, recovery replay and checkpoint scans
	// included (the categories of blink.StatsSnapshot).
	Searches uint64
	Inserts  uint64
	Deletes  uint64
	Upserts  uint64
	Updates  uint64
	Cas      uint64
	Scans    uint64
	// Batches and BatchOps count the ApplyBatch slices routed to the
	// shard and the operations they carried (also counted above).
	Batches  uint64
	BatchOps uint64
	// Pool carries the shard's buffer pool counters when the shard is
	// disk-native or file-backed (Pooled false otherwise).
	Pool   storage.PoolStats
	Pooled bool
}

// ShardStats reports balance and size per shard, cheaply (no
// occupancy walk).
func (r *Router) ShardStats() []ShardStat {
	out := make([]ShardStat, len(r.engines))
	for i, e := range r.engines {
		m := &r.ms[i]
		ts := e.Tree.Stats()
		out[i] = ShardStat{
			Shard:      i,
			Low:        r.lowKey(i),
			Len:        e.Tree.Len(),
			Height:     e.Tree.Height(),
			QueueDepth: e.QueueDepth(),
			Searches:   ts.Searches,
			Inserts:    ts.Inserts,
			Deletes:    ts.Deletes,
			Upserts:    ts.Upserts,
			Updates:    ts.Updates,
			Cas:        ts.Cas,
			Scans:      ts.Scans,
			Batches:    m.Batches.Load(),
			BatchOps:   m.BatchOps.Load(),
		}
		out[i].Pool, out[i].Pooled = e.PoolStats()
	}
	return out
}

// mergeSnapshots sums the counters of two tree snapshots and merges
// their lock footprints.
func mergeSnapshots(a, b blink.StatsSnapshot) blink.StatsSnapshot {
	a.Searches += b.Searches
	a.Inserts += b.Inserts
	a.Deletes += b.Deletes
	a.Scans += b.Scans
	a.Upserts += b.Upserts
	a.Updates += b.Updates
	a.Cas += b.Cas
	a.Splits += b.Splits
	a.RootSplits += b.RootSplits
	a.LinkHops += b.LinkHops
	a.OutlinkHops += b.OutlinkHops
	a.Restarts += b.Restarts
	a.Backtracks += b.Backtracks
	a.LevelWaits += b.LevelWaits
	a.UnderfullEvents += b.UnderfullEvents
	a.InsertLocks = mergeFootprints(a.InsertLocks, b.InsertLocks)
	a.DeleteLocks = mergeFootprints(a.DeleteLocks, b.DeleteLocks)
	a.CondLocks = mergeFootprints(a.CondLocks, b.CondLocks)
	return a
}

// mergeFootprints combines two footprints: sums ops and acquisitions,
// keeps the larger high-water, and re-derives the means op-weighted.
func mergeFootprints(a, b locks.Footprint) locks.Footprint {
	out := locks.Footprint{
		Ops:      a.Ops + b.Ops,
		Acquires: a.Acquires + b.Acquires,
		MaxHeld:  a.MaxHeld,
	}
	if b.MaxHeld > out.MaxHeld {
		out.MaxHeld = b.MaxHeld
	}
	if out.Ops > 0 {
		out.MeanMaxHeld = (a.MeanMaxHeld*float64(a.Ops) + b.MeanMaxHeld*float64(b.Ops)) / float64(out.Ops)
		out.MeanLocks = float64(out.Acquires) / float64(out.Ops)
	}
	return out
}
