package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"blinktree/internal/base"
	"blinktree/internal/blink"
	"blinktree/internal/compress"
	"blinktree/internal/locks"
	"blinktree/internal/node"
	"blinktree/internal/reclaim"
	"blinktree/internal/snap"
	"blinktree/internal/storage"
	"blinktree/internal/verify"
	"blinktree/internal/wal"
)

// CompressionMode selects how underfull nodes are repaired.
type CompressionMode int

// Compression modes.
const (
	// CompressionBackground runs worker goroutines that drain the
	// underfull queue concurrently with other operations (§5.4) and
	// free the pages they retire (§5.3). The default.
	CompressionBackground CompressionMode = iota
	// CompressionManual enqueues underfull nodes but compresses only
	// when Compact or DrainCompression is called.
	CompressionManual
	// CompressionOff never rebalances after deletions, exactly the
	// Lehman–Yao regime the paper improves on ([8], §4).
	CompressionOff
)

// Options configures OpenEngine. The zero value is a usable in-memory
// engine with background compression.
type Options struct {
	// MinPairs is the paper's k: nodes hold between k and 2k pairs.
	// Default blink.DefaultMinPairs.
	MinPairs int
	// Compression selects the repair mode. Default background.
	Compression CompressionMode
	// CompressorWorkers is the number of background compression
	// goroutines (§5.4 mode 2). Default 1. Ignored unless background.
	CompressorWorkers int
	// Path, when non-empty, stores nodes in a file at this path through
	// the page codec instead of in memory (a Router's shard i uses
	// "<Path>.shard<i>"). PageSize (default 4096) and
	// CachePages (default 1024, LRU buffer pool; 0 disables caching)
	// control the paged store.
	Path       string
	PageSize   int
	CachePages int
	// DiskNative serves the tree through a bounded buffer pool over a
	// page file even when Path is empty: the disk-resident regime the
	// paper assumes, where main memory holds a few pages at a time.
	// The page file lands beside the WAL (Dir/pages) when Dir is set,
	// else in a temporary file removed at Close. Page files are scratch
	// either way — they are recreated at every open and the
	// authoritative state stays "checkpoint + log suffix" (see
	// internal/storage doc.go), so eviction write-back needs no
	// ordering against the WAL.
	DiskNative bool
	// CacheBytes bounds the buffer pool's resident bytes when
	// DiskNative is set (per engine, so per shard in a sharded index).
	// Default 4 MiB; the pool floor of 4 frames always applies.
	// Ignored unless DiskNative (use CachePages with Path otherwise).
	CacheBytes int64
	// RestartFromRoot disables the backtracking optimization for
	// wrong-node restarts (§5.2); restarts then always begin at the
	// root.
	RestartFromRoot bool
	// Durable, with a non-empty Dir, makes the engine crash-recoverable:
	// every mutating operation appends a logical record to a group-
	// commit write-ahead log in Dir and is acknowledged only after its
	// group's fsync, and opening the same Dir again recovers the state
	// "checkpoint + log suffix". A Router's shard i logs
	// independently under Dir/shard<i>.
	Durable bool
	// Dir is the durability directory (segments + checkpoints).
	Dir string
	// WALSegmentBytes is the log segment rotation threshold. Default
	// wal.DefaultSegmentBytes.
	WALSegmentBytes int
	// WALNoSync skips the fsync in group commits (crash durability then
	// depends on the OS). For measuring logging cost apart from sync
	// cost; never for production.
	WALNoSync bool
	// SyncPageWrites makes a file-backed page store (Path) fsync every
	// page write. Independent of the WAL — it hardens the paged
	// substrate itself, at a large cost; see storage.FileStore.
	SyncPageWrites bool
	// Verified maintains an incremental hash tree over the engine's
	// content (internal/verify): mutations dirty their key's bucket, a
	// background hasher re-hashes dirty buckets, and the fold of all
	// bucket leaves is the shard's state root. The root is persisted
	// with every checkpoint and recomputed-and-compared at recovery, so
	// snapshot corruption or tampering fails the open instead of
	// silently serving wrong data.
	Verified bool
	// VerifyBuckets is the number of hash-tree leaves (a power of two;
	// default verify.DefaultBuckets). More buckets mean cheaper
	// re-hashing per mutation and longer proofs. Ignored unless
	// Verified.
	VerifyBuckets int
	// RehashEvery is the background hasher's drain interval (default
	// verify.DefaultRehashInterval). Ignored unless Verified.
	RehashEvery time.Duration
}

// Engine bundles one blink.Tree with the private substrate the paper's
// full system needs around it: the node store, the lock table shared
// with compression, the reclamation epoch, the §5.4 queue compressor
// and the §5.1 scan compressor. Every Engine is completely independent
// of every other — nothing is shared, so N engines contend on nothing.
type Engine struct {
	Tree    *blink.Tree
	store   node.Store
	lt      locks.Locker
	rec     *reclaim.Reclaimer
	comp    *compress.Compressor
	scanner *compress.Scanner
	mode    CompressionMode
	workers int
	pool    *storage.BufferPool

	// Durability (nil wal = volatile engine). stripes order the
	// apply+append pair of racing mutations on the same key, so the
	// log's per-key record order always matches the apply order; ckptMu
	// serializes checkpoints.
	wal         *wal.Log
	dir         string
	stripes     []sync.Mutex
	ckptMu      sync.Mutex
	checkpoints atomic.Uint64

	// tmpPages is the scratch page file of a DiskNative engine without
	// a durability Dir, removed at Close.
	tmpPages string

	// Integrity layer (nil overlay = unverified engine). verifyNB is
	// the overlay's bucket count, fixed for the engine's lifetime.
	overlay  *verify.Overlay
	vhasher  *verify.Hasher
	verifyNB int
}

// walStripes is the number of key stripes ordering apply+append pairs.
const walStripes = 128

// stripe returns the stripe lock for k. Only used when the engine is
// durable.
func (e *Engine) stripe(k base.Key) *sync.Mutex {
	// Fibonacci hashing spreads adjacent keys across stripes.
	return &e.stripes[(uint64(k)*11400714819323198485)>>57&(walStripes-1)]
}

// Stats aggregates the counters of an engine's tree and compressors.
type Stats struct {
	Tree       blink.StatsSnapshot
	Occupancy  blink.Occupancy
	Reclaim    reclaim.ReclaimStats
	QueueDepth int
	Merges     uint64
	Redist     uint64
	Collapses  uint64
	// CompressorMaxLocks is the high-water of simultaneous locks held
	// by compression (≤ 3 per the paper).
	CompressorMaxLocks uint64
	// WAL reports the durability counters (zero when volatile):
	// records appended/committed, group-commit syncs — Records/Syncs is
	// the achieved group size — bytes, rotations and records replayed
	// at recovery. For a sharded index the counters sum across shards
	// and MaxGroup takes the maximum.
	WAL wal.Stats
	// Checkpoints counts completed Checkpoint calls.
	Checkpoints uint64
	// Pool reports the buffer pool counters of a disk-native or
	// file-backed engine (zero when the store is unpooled memory). For
	// a sharded index counters and resident frames sum across shards
	// and PinnedHighWater takes the maximum.
	Pool storage.PoolStats
	// Pooled reports whether a buffer pool is present (distinguishes
	// an all-zero Pool from "no pool at all").
	Pooled bool
	// Verified reports whether the integrity overlay is maintained;
	// VerifyRehashes counts bucket re-hashes it has performed. For a
	// sharded index VerifyRehashes sums across shards.
	Verified       bool
	VerifyRehashes uint64
}

// OpenEngine assembles a complete engine per opts: store (memory or
// paged file), lock table, reclaimer, tree, scanner, and — unless
// compression is off — a queue compressor, started when background.
func OpenEngine(opts Options) (*Engine, error) {
	if opts.MinPairs == 0 {
		opts.MinPairs = blink.DefaultMinPairs
	}
	if opts.Verified {
		if opts.VerifyBuckets == 0 {
			opts.VerifyBuckets = verify.DefaultBuckets
		}
		if !verify.ValidBuckets(opts.VerifyBuckets) {
			return nil, fmt.Errorf("blinktree: VerifyBuckets must be a power of two in [1, %d], got %d",
				verify.MaxBuckets, opts.VerifyBuckets)
		}
	}
	tmpPages := ""
	adopted := false
	defer func() {
		if tmpPages != "" && !adopted {
			os.Remove(tmpPages)
		}
	}()
	if opts.DiskNative && opts.Path == "" {
		if opts.Durable && opts.Dir != "" {
			if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
				return nil, fmt.Errorf("blinktree: disk-native dir: %w", err)
			}
			opts.Path = filepath.Join(opts.Dir, "pages")
		} else {
			f, err := os.CreateTemp("", "blinktree-pages-*")
			if err != nil {
				return nil, fmt.Errorf("blinktree: disk-native scratch file: %w", err)
			}
			opts.Path = f.Name()
			tmpPages = f.Name()
			f.Close()
		}
	}
	if opts.DiskNative && opts.CachePages == 0 {
		ps := opts.PageSize
		if ps == 0 {
			ps = storage.DefaultPageSize
		}
		cb := opts.CacheBytes
		if cb <= 0 {
			cb = 4 << 20
		}
		opts.CachePages = int(cb / int64(ps))
		if opts.CachePages < 1 {
			opts.CachePages = 1 // the pool floor of 4 frames applies
		}
	}
	var st node.Store
	var pool *storage.BufferPool
	if opts.Path != "" {
		ps := opts.PageSize
		if ps == 0 {
			ps = storage.DefaultPageSize
		}
		if max := node.MaxPairs(ps); 2*opts.MinPairs > max {
			return nil, fmt.Errorf("blinktree: 2k=%d pairs exceed page capacity %d for page size %d",
				2*opts.MinPairs, max, ps)
		}
		fs, err := storage.NewFileStore(opts.Path, ps)
		if err != nil {
			return nil, err
		}
		fs.SetSyncWrites(opts.SyncPageWrites)
		var under storage.Store = fs
		cache := opts.CachePages
		if cache == 0 {
			cache = 1024
		}
		if cache > 0 {
			pool = storage.NewBufferPool(fs, cache)
			under = pool
		}
		paged, err := node.NewPagedStore(under)
		if err != nil {
			return nil, err
		}
		st = paged
	} else {
		st = node.NewMemStore()
	}

	lt := locks.NewTable()
	rec := reclaim.New(st.Free)
	pol := blink.RestartBacktrack
	if opts.RestartFromRoot {
		pol = blink.RestartFromRoot
	}
	inner, err := blink.New(blink.Config{
		Store:     st,
		Locks:     lt,
		MinPairs:  opts.MinPairs,
		Restart:   pol,
		Reclaimer: rec,
	})
	if err != nil {
		return nil, err
	}
	e := &Engine{
		Tree:     inner,
		store:    st,
		lt:       lt,
		rec:      rec,
		mode:     opts.Compression,
		workers:  opts.CompressorWorkers,
		pool:     pool,
		tmpPages: tmpPages,
	}
	if opts.Verified {
		// verifyNB must be settled before openDurable: the recovery path
		// compares the recomputed checkpoint root against the persisted
		// one, and roots are only comparable under the same bucketing.
		e.verifyNB = opts.VerifyBuckets
	}
	adopted = true // from here Close owns the scratch page file
	e.scanner = compress.NewScanner(st, lt, opts.MinPairs, rec)
	if opts.Compression != CompressionOff {
		e.comp = compress.NewCompressor(st, lt, opts.MinPairs, rec)
		e.comp.Attach(inner)
		if opts.Compression == CompressionBackground {
			if e.workers <= 0 {
				e.workers = 1
			}
			e.comp.Start(e.workers)
		}
	}
	if opts.Durable {
		if err := e.openDurable(opts); err != nil {
			e.Close()
			return nil, err
		}
	}
	if opts.Verified {
		// The overlay starts all-dirty, which covers whatever recovery
		// just rebuilt; the background hasher then amortizes the initial
		// full hash and every later re-hash off the mutation paths.
		e.overlay = verify.NewOverlay(e.verifyNB, e.scanRange)
		e.vhasher = verify.NewHasher(e.overlay, opts.RehashEvery)
		e.vhasher.Start()
	}
	return e, nil
}

// openDurable recovers the engine's state from opts.Dir — newest
// checkpoint first, then the surviving log suffix — and readies the
// write-ahead log for appends.
func (e *Engine) openDurable(opts Options) error {
	if opts.Dir == "" {
		return fmt.Errorf("blinktree: Options.Durable requires Options.Dir")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return fmt.Errorf("blinktree: durability dir: %w", err)
	}
	e.dir = opts.Dir
	e.stripes = make([]sync.Mutex, walStripes)
	startSeg := uint64(0)
	seg, path, ok, err := wal.LatestCheckpoint(e.dir)
	if err != nil {
		return err
	}
	if ok {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		// On a verified engine, tee the load into a stream hasher: the
		// snapshot was hashed in this same key order when it was written,
		// so recomputing from the file bytes and comparing against the
		// persisted root detects any corruption of the checkpoint —
		// beyond what its CRC footer can promise.
		var sh *verify.StreamHasher
		if e.verifyNB != 0 {
			sh = verify.NewStreamHasher(e.verifyNB)
		}
		err = snap.Read(f, func(k base.Key, v base.Value) error {
			if sh != nil {
				sh.Add(uint64(k), uint64(v))
			}
			return e.Tree.Insert(k, v)
		})
		f.Close()
		if err != nil {
			return fmt.Errorf("blinktree: checkpoint %s: %w", filepath.Base(path), err)
		}
		if sh != nil {
			if err := e.compareCheckpointRoot(seg, sh.Root()); err != nil {
				return err
			}
		}
		startSeg = seg
	}
	lg, err := wal.Open(e.dir, wal.Options{
		SegmentBytes: opts.WALSegmentBytes,
		NoSync:       opts.WALNoSync,
	}, startSeg, e.applyRecord)
	if err != nil {
		return err
	}
	e.wal = lg
	return nil
}

// applyRecord replays one log record onto the tree. Puts replay as
// Upsert and dels as Delete-ignoring-absence, so replaying a record
// whose effect the checkpoint already captured is a no-op — the
// idempotence recovery relies on.
func (e *Engine) applyRecord(r wal.Record) error {
	switch r.Kind {
	case wal.KindPut:
		_, _, err := e.Tree.Upsert(r.Key, r.Value)
		return err
	case wal.KindDel:
		if err := e.Tree.Delete(r.Key); err != nil && !errors.Is(err, base.ErrNotFound) {
			return err
		}
		return nil
	default:
		return fmt.Errorf("blinktree: unknown wal record kind %d", r.Kind)
	}
}

// Checkpoint writes the engine's current state as a durable snapshot
// and truncates the log to the suffix the snapshot does not cover. It
// runs concurrently with readers AND writers: the log first rotates to
// a fresh segment, so every operation whose record landed in an older
// segment was fully applied before the state scan began and is
// captured by it, while operations racing the scan land in the kept
// suffix and replay idempotently on top. No-op on a volatile engine.
//
// Compression, however, IS quiesced for the duration of the scan
// (background workers pause; Compact/DrainCompression serialize on
// the same lock): a merge or redistribution can move a pair leftward
// across the scan cursor, and a pair the fuzzy snapshot misses that
// way has no record in the kept log suffix — truncation would destroy
// the only durable copy of an acknowledged write. Searches, inserts,
// deletes and conditional writes never move pairs left, so they stay
// unblocked; deletions keep enqueueing underfull nodes for repair
// after Resume.
//
// Crash-safety: the snapshot is written to a temp file, fsynced, and
// renamed into place before anything is deleted; a crash between any
// two steps recovers from the previous checkpoint plus the full log.
func (e *Engine) Checkpoint() error {
	if e.wal == nil {
		return nil
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	seg, err := e.wal.Rotate()
	if err != nil {
		return err
	}
	tmp := filepath.Join(e.dir, "checkpoint.tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if e.comp != nil && e.mode == CompressionBackground {
		e.comp.Pause()
	}
	// A verified engine hashes the pairs exactly as they stream into the
	// snapshot; the resulting root describes this checkpoint's bytes and
	// is persisted beside it for the recovery compare.
	var sh *verify.StreamHasher
	if e.verifyNB != 0 {
		sh = verify.NewStreamHasher(e.verifyNB)
	}
	err = snap.Write(f, e.Tree.Len(), func(fn func(base.Key, base.Value) bool) error {
		return e.Tree.Range(0, base.Key(^uint64(0)), func(k base.Key, v base.Value) bool {
			if sh != nil {
				sh.Add(uint64(k), uint64(v))
			}
			return fn(k, v)
		})
	})
	if e.comp != nil && e.mode == CompressionBackground {
		e.comp.Resume()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, wal.CheckpointPath(e.dir, seg)); err != nil {
		return err
	}
	if err := wal.SyncDir(e.dir); err != nil {
		return err
	}
	// The root file lands after the checkpoint rename: a crash between
	// the two leaves a checkpoint without a root, which recovery
	// tolerates (missing root = no compare), never a root without its
	// checkpoint.
	if sh != nil {
		if err := writeRootFile(e.dir, seg, e.verifyNB, sh.Root()); err != nil {
			return err
		}
	}
	if err := e.wal.RemoveBelow(seg); err != nil {
		return err
	}
	if err := wal.RemoveCheckpointsBelow(e.dir, seg); err != nil {
		return err
	}
	if e.verifyNB != 0 {
		if err := removeRootFilesBelow(e.dir, seg); err != nil {
			return err
		}
	}
	e.checkpoints.Add(1)
	return nil
}

// WAL returns the engine's write-ahead log, or nil when the engine is
// volatile. Replication tails it through wal.TailReader; everything
// else should go through the operation surface.
func (e *Engine) WAL() *wal.Log { return e.wal }

// WALDir returns the engine's durability directory ("" when volatile).
func (e *Engine) WALDir() string { return e.dir }

// StreamState is the replication bootstrap's counterpart of
// Checkpoint: it rotates the log to a fresh segment, streams a fuzzy
// snapshot of the current pairs through send, and returns the segment
// id at which log streaming must resume. The same argument that makes
// checkpoints crash-safe makes the result prefix-consistent: every
// operation whose record landed below the returned segment was fully
// applied before the scan began and is captured by it, while
// operations racing the scan land at or above it and re-apply
// idempotently on top. Serializes with Checkpoint and pauses
// background compression for the scan, for the same leftward-movement
// reason documented there.
func (e *Engine) StreamState(send func(base.Key, base.Value) error) (uint64, error) {
	if e.wal == nil {
		return 0, fmt.Errorf("blinktree: StreamState on a volatile engine")
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	seg, err := e.wal.Rotate()
	if err != nil {
		return 0, err
	}
	if e.comp != nil && e.mode == CompressionBackground {
		e.comp.Pause()
	}
	var serr error
	err = e.Tree.Range(0, base.Key(^uint64(0)), func(k base.Key, v base.Value) bool {
		serr = send(k, v)
		return serr == nil
	})
	if e.comp != nil && e.mode == CompressionBackground {
		e.comp.Resume()
	}
	if err == nil {
		err = serr
	}
	return seg, err
}

// CrashWAL simulates a crash for durability testing: at most partial
// bytes of the pending commit group reach disk, unacknowledged
// operations fail, and the engine's log becomes unusable. The engine
// must be abandoned afterwards (not Closed and reused); recovery is
// exercised by opening the same Dir again.
func (e *Engine) CrashWAL(partial int) {
	if e.wal != nil {
		e.wal.Crash(partial)
	}
	// Sever the buffer pool too: a dead process writes no evicted pages,
	// so the abandoned engine must not keep writing into a page file
	// that recovery is about to reopen.
	if e.pool != nil {
		e.pool.Crash()
	}
}

// Compact fully compresses the engine's tree: it drains the underfull
// queue, runs scan passes (§5.1) until every non-root node holds at
// least MinPairs pairs and the height is minimal, then frees retired
// pages. On a durable engine it serializes with Checkpoint — a
// checkpoint's state scan must not race pair movement to the left.
func (e *Engine) Compact() error {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	if e.comp != nil {
		if err := e.comp.DrainOnce(); err != nil {
			return err
		}
	}
	if err := e.scanner.Compact(); err != nil {
		return err
	}
	_, err := e.rec.Collect()
	return err
}

// DrainCompression processes the pending underfull queue once without
// running full scan passes. No-op when compression is off; serializes
// with Checkpoint like Compact.
func (e *Engine) DrainCompression() error {
	if e.comp == nil {
		return nil
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	if err := e.comp.DrainOnce(); err != nil {
		return err
	}
	_, err := e.rec.Collect()
	return err
}

// CollectGarbage frees pages retired by compression that no live
// operation can still reference (§5.3).
func (e *Engine) CollectGarbage() (int, error) { return e.rec.Collect() }

// Check validates the tree's structural invariants. It pauses
// background compression, so no rearrangement is in flight while the
// levels are compared, and the tree walks inside a reclamation epoch,
// so no page it reaches is freed under it. Mutators must still be
// quiesced.
func (e *Engine) Check() error {
	if e.comp != nil && e.mode == CompressionBackground {
		e.comp.Pause()
		defer e.comp.Resume()
	}
	return e.Tree.Check()
}

// QueueDepth reports pending underfull-queue entries (0 when
// compression is off).
func (e *Engine) QueueDepth() int {
	if e.comp == nil {
		return 0
	}
	return e.comp.Queue().Len()
}

// Stats returns a snapshot of operation and compression counters.
// Occupancy is gathered with a full walk; avoid calling it in hot
// loops.
func (e *Engine) Stats() (Stats, error) {
	occ, err := e.Tree.OccupancyStats()
	if err != nil {
		return Stats{}, err
	}
	s := Stats{
		Tree:      e.Tree.Stats(),
		Occupancy: occ,
		Reclaim:   e.rec.Stats(),
	}
	sc := e.scanner.Stats()
	s.Merges += sc.Merges.Load()
	s.Redist += sc.Redistributions.Load()
	s.Collapses += sc.RootCollapses.Load()
	if fp := sc.Footprint.Snapshot(); fp.MaxHeld > s.CompressorMaxLocks {
		s.CompressorMaxLocks = fp.MaxHeld
	}
	if e.comp != nil {
		cs := e.comp.Stats()
		s.Merges += cs.Merges.Load()
		s.Redist += cs.Redistributions.Load()
		s.Collapses += cs.RootCollapses.Load()
		s.QueueDepth = e.comp.Queue().Len()
		if fp := cs.Footprint.Snapshot(); fp.MaxHeld > s.CompressorMaxLocks {
			s.CompressorMaxLocks = fp.MaxHeld
		}
	}
	if e.wal != nil {
		s.WAL = e.wal.Stats()
		s.Checkpoints = e.checkpoints.Load()
	}
	if e.pool != nil {
		s.Pool = e.pool.Stats()
		s.Pooled = true
	}
	if e.overlay != nil {
		s.Verified = true
		s.VerifyRehashes = e.overlay.Rehashed.Load()
	}
	return s, nil
}

// PoolStats returns the buffer pool counters and whether a pool exists
// (false for an in-memory engine). Cheap; safe in hot loops.
func (e *Engine) PoolStats() (storage.PoolStats, bool) {
	if e.pool == nil {
		return storage.PoolStats{}, false
	}
	return e.pool.Stats(), true
}

// Close stops background compression, flushes and closes the write-
// ahead log, and closes the store. The engine must not be used
// afterwards.
func (e *Engine) Close() error {
	if e.vhasher != nil {
		e.vhasher.Stop()
	}
	if e.comp != nil && e.mode == CompressionBackground {
		e.comp.Stop()
	}
	var werr error
	if e.wal != nil {
		werr = e.wal.Close()
	}
	if err := e.Tree.Close(); err != nil {
		return err
	}
	serr := e.store.Close()
	if e.tmpPages != "" {
		os.Remove(e.tmpPages)
	}
	if serr != nil {
		return serr
	}
	return werr
}
