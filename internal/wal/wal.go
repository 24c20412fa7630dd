// Package wal is the durability subsystem: an append-only, segmented,
// CRC-protected record log with group commit, plus the replayer that
// reconstructs state from "checkpoint + log suffix" after a crash.
//
// The model matches the paper's storage substrate (§2.2): the only
// primitive trusted is that a page-sized write either lands or does
// not — nothing about ordering across writes survives a crash. So
// every record carries its own length and CRC-32C, and replay simply
// stops at the first record that fails validation: the torn tail of an
// interrupted group write ends the trusted prefix, which is exactly
// the set of operations the log ever acknowledged.
//
// Group commit amortizes fsync the same way ApplyBatch amortizes
// descents: appenders enqueue encoded records into the current batch
// and block on a Ticket; a single committer goroutine writes the whole
// batch with one write + one fsync and completes every ticket in it.
// While the committer syncs batch N, concurrent appenders fill batch
// N+1, so the mean group size grows with offered load and the fsync
// cost per operation shrinks accordingly.
//
// Layout of a log directory:
//
//	wal-<id>.seg          append-only record segments, id ascending
//	checkpoint-<id>.snap  snapshot covering all segments with id < <id>
//
// A checkpoint is taken by rotating to a fresh segment, streaming a
// snapshot, durably renaming it into place, and then deleting the
// segments (and older checkpoints) it covers; recovery loads the
// newest checkpoint and replays only segments at or above its id.
// Every step is crash-safe: a crash between any two of them leaves a
// directory that still recovers to a consistent state. The snapshot
// scan runs concurrently with readers and writers, but the engine
// pauses background compression for its duration (see
// shard.Engine.Checkpoint): compression can move a pair leftward
// across the scan cursor, and a pair missed that way would lose its
// only durable copy when the covered segments are deleted.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Sentinel errors.
var (
	// ErrClosed is returned by operations on a closed log.
	ErrClosed = errors.New("wal: closed")
	// ErrCrashed is returned to waiters whose group never committed
	// because the log crashed (or was crashed by fault injection).
	ErrCrashed = errors.New("wal: crashed before commit")
)

// DefaultSegmentBytes is the rotation threshold when Options leaves it
// zero.
const DefaultSegmentBytes = 4 << 20

// Segment file header (little endian): magic | version u32 | id u64.
const (
	segHeaderLen = 16
	segVersion   = 1
)

var segMagic = [4]byte{'B', 'L', 'W', 'L'}

// Options configures a Log.
type Options struct {
	// SegmentBytes is the size past which the committer rotates to a
	// fresh segment. Default DefaultSegmentBytes.
	SegmentBytes int
	// NoSync skips fsync on group commits. The log is then crash-
	// durable only to the extent the OS flushes its own caches — useful
	// for benchmarking the logging cost separately from the sync cost,
	// never for production.
	NoSync bool
}

// Stats is a snapshot of log counters. Appends counts records enqueued;
// Records counts records committed (written and synced); Syncs counts
// group commits, so Records/Syncs is the achieved group size.
type Stats struct {
	Appends   uint64
	Records   uint64
	Syncs     uint64
	Bytes     uint64
	Rotations uint64
	Replayed  uint64
	MaxGroup  uint64
}

// MeanGroup returns the mean records per group commit.
func (s Stats) MeanGroup() float64 {
	if s.Syncs == 0 {
		return 0
	}
	return float64(s.Records) / float64(s.Syncs)
}

// Merge folds o into s the way a sharded aggregate wants it: counters
// sum, high-waters take the maximum. Living next to the struct, it
// cannot drift when Stats grows a field.
func (s *Stats) Merge(o Stats) {
	s.Appends += o.Appends
	s.Records += o.Records
	s.Syncs += o.Syncs
	s.Bytes += o.Bytes
	s.Rotations += o.Rotations
	s.Replayed += o.Replayed
	if o.MaxGroup > s.MaxGroup {
		s.MaxGroup = o.MaxGroup
	}
}

// batch is one commit group: records encoded into the shared buffer,
// completed all at once by the committer.
type batch struct {
	done chan struct{}
	err  error
}

// Ticket is an appender's claim on a group commit. Wait blocks until
// the group's write+fsync completes (or fails). The zero Ticket waits
// for nothing and returns nil, so volatile code paths can thread
// tickets without branching.
type Ticket struct {
	b   *batch
	err error
}

// Wait blocks until the ticket's group is durable.
func (t Ticket) Wait() error {
	if t.b == nil {
		return t.err
	}
	<-t.b.done
	return t.b.err
}

// Pending reports whether the ticket is attached to a commit group at
// all — false for the zero Ticket a no-op operation carries.
func (t Ticket) Pending() bool { return t.b != nil }

// Log is an append-only segmented record log with group commit. All
// methods are safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu     sync.Mutex // guards buf, spare, cur, nrecs, closed, failed
	buf    []byte
	spare  []byte
	cur    *batch
	nrecs  int
	closed bool
	failed error

	ioMu     sync.Mutex // serializes steal+write+rotate; guards f, curSeg, segBytes
	f        *os.File
	curSeg   uint64
	segBytes int64

	kick chan struct{}
	stop chan struct{}
	done chan struct{}

	// failAfter < 0 disables fault injection; ≥ 0 makes the next group
	// write persist at most that many bytes and then crash the log.
	failAfter atomic.Int64

	appends, records, syncs, bytes, rotations, replayed atomic.Uint64
	maxGroup                                            atomic.Uint64
}

// Open opens (creating if necessary) the log directory, replays every
// surviving record in segments with id ≥ startSeg through apply in
// append order, truncates the torn tail, and returns a log ready for
// appends. startSeg is the id recorded by the newest checkpoint (0
// when there is none); stale segments below it are deleted, not
// replayed — their effects are already inside the checkpoint.
//
// Replay stops at the first record failing length or CRC validation;
// everything from that point on (including later segments) is
// discarded, which makes recovery idempotent: reopening the same
// directory always yields the same prefix.
func Open(dir string, opts Options, startSeg uint64, apply func(Record) error) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{
		dir:  dir,
		opts: opts,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	l.failAfter.Store(-1)

	// Drop segments a checkpoint already covers: their records predate
	// the checkpoint state and must not be replayed onto it.
	live := segs[:0]
	for _, id := range segs {
		if id < startSeg {
			if err := os.Remove(segPath(dir, id)); err != nil {
				return nil, fmt.Errorf("wal: remove stale segment: %w", err)
			}
			continue
		}
		live = append(live, id)
	}

	tail := -1
	for i, id := range live {
		path := segPath(dir, id)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("wal: read segment: %w", err)
		}
		off, recs, aerr, torn := replaySegment(data, id, apply)
		l.replayed.Add(recs)
		if aerr != nil {
			return nil, fmt.Errorf("wal: replay segment %d: %w", id, aerr)
		}
		if !torn {
			tail = i
			continue
		}
		// The trusted prefix ends here: truncate this segment at the
		// last valid record (or drop it whole when even the header is
		// torn) and discard every later segment.
		if off < segHeaderLen {
			if err := os.Remove(path); err != nil {
				return nil, err
			}
			tail = i - 1
		} else {
			if err := os.Truncate(path, off); err != nil {
				return nil, err
			}
			tail = i
		}
		for _, later := range live[i+1:] {
			if err := os.Remove(segPath(dir, later)); err != nil {
				return nil, err
			}
		}
		break
	}

	if tail >= 0 {
		id := live[tail]
		f, err := os.OpenFile(segPath(dir, id), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			return nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		if !opts.NoSync {
			if err := f.Sync(); err != nil { // make any tail truncation durable
				f.Close()
				return nil, err
			}
		}
		l.f, l.curSeg, l.segBytes = f, id, st.Size()
	} else {
		id := startSeg
		if id == 0 {
			id = 1
		}
		f, err := createSegment(dir, id, !opts.NoSync)
		if err != nil {
			return nil, err
		}
		l.f, l.curSeg, l.segBytes = f, id, segHeaderLen
	}
	go l.committer()
	return l, nil
}

// replaySegment validates data's header and streams its records into
// apply. It returns the offset after the last valid record, the number
// of records applied, apply's error if any, and whether the segment
// ended in a torn/invalid region.
func replaySegment(data []byte, id uint64, apply func(Record) error) (off int64, recs uint64, aerr error, torn bool) {
	if len(data) < segHeaderLen ||
		[4]byte(data[0:4]) != segMagic ||
		binary.LittleEndian.Uint32(data[4:8]) != segVersion ||
		binary.LittleEndian.Uint64(data[8:16]) != id {
		return 0, 0, nil, true
	}
	o := segHeaderLen
	for o < len(data) {
		rec, n, err := decodeRecord(data[o:])
		if err != nil {
			return int64(o), recs, nil, true
		}
		if err := apply(rec); err != nil {
			return int64(o), recs, err, false
		}
		recs++
		o += n
	}
	return int64(o), recs, nil, false
}

// Append enqueues r into the current commit group and returns a Ticket
// for its fsync. The record is durable — and the operation it logs may
// be acknowledged — only once Wait returns nil.
func (l *Log) Append(r Record) Ticket {
	l.mu.Lock()
	if l.closed || l.failed != nil {
		err := l.failed
		if err == nil {
			err = ErrClosed
		}
		l.mu.Unlock()
		return Ticket{err: err}
	}
	if l.cur == nil {
		l.cur = &batch{done: make(chan struct{})}
	}
	l.buf = appendRecord(l.buf, r)
	l.nrecs++
	t := Ticket{b: l.cur}
	l.mu.Unlock()
	l.appends.Add(1)
	select {
	case l.kick <- struct{}{}:
	default:
	}
	return t
}

// committer is the single goroutine that turns pending batches into
// one write + one fsync each.
func (l *Log) committer() {
	defer close(l.done)
	for {
		select {
		case <-l.stop:
			return
		case <-l.kick:
		}
		// Yield once before stealing: appenders just woken by the
		// previous commit get a chance to enqueue into this batch, which
		// materially grows group size when cores are scarce — the
		// classic group-commit "brief wait" at its cheapest.
		runtime.Gosched()
		l.ioMu.Lock()
		l.flushLocked()
		l.ioMu.Unlock()
	}
}

// flushLocked steals the pending batch and commits it. Caller holds
// ioMu, which is what keeps batches in append order even when Rotate
// or Close flush inline.
func (l *Log) flushLocked() error {
	l.mu.Lock()
	buf, b, n := l.buf, l.cur, l.nrecs
	l.buf, l.cur, l.nrecs = l.spare[:0], nil, 0
	l.spare = nil
	failed := l.failed
	l.mu.Unlock()
	if b == nil {
		l.reclaim(buf)
		return nil
	}
	err := failed
	if err == nil {
		err = l.writeGroup(buf, n)
	}
	b.err = err
	close(b.done)
	l.reclaim(buf)
	return err
}

// reclaim returns a stolen buffer for reuse.
func (l *Log) reclaim(buf []byte) {
	l.mu.Lock()
	if l.spare == nil {
		l.spare = buf[:0]
	}
	l.mu.Unlock()
}

// writeGroup writes one batch to the current segment and syncs it,
// honouring the fault-injection hook. Caller holds ioMu.
func (l *Log) writeGroup(buf []byte, n int) error {
	if fa := l.failAfter.Load(); fa >= 0 {
		k := min(int(fa), len(buf))
		if k > 0 {
			l.f.Write(buf[:k])
			l.f.Sync()
		}
		l.failNow(ErrCrashed)
		return ErrCrashed
	}
	if _, err := l.f.Write(buf); err != nil {
		l.failNow(err)
		return err
	}
	if !l.opts.NoSync {
		if err := l.f.Sync(); err != nil {
			l.failNow(err)
			return err
		}
	}
	l.segBytes += int64(len(buf))
	l.syncs.Add(1)
	l.records.Add(uint64(n))
	l.bytes.Add(uint64(len(buf)))
	for g := uint64(n); ; {
		cur := l.maxGroup.Load()
		if g <= cur || l.maxGroup.CompareAndSwap(cur, g) {
			break
		}
	}
	if l.segBytes >= int64(l.opts.SegmentBytes) {
		return l.rotateLocked()
	}
	return nil
}

// failNow marks the log permanently failed; later appends and flushes
// observe the error instead of touching the file.
func (l *Log) failNow(err error) {
	l.mu.Lock()
	if l.failed == nil {
		l.failed = err
	}
	l.mu.Unlock()
}

// rotateLocked switches appends to a fresh segment. Caller holds ioMu.
func (l *Log) rotateLocked() error {
	id := l.curSeg + 1
	f, err := createSegment(l.dir, id, !l.opts.NoSync)
	if err != nil {
		l.failNow(err)
		return err
	}
	old := l.f
	l.f, l.curSeg, l.segBytes = f, id, segHeaderLen
	old.Close()
	l.rotations.Add(1)
	return nil
}

// Rotate flushes any pending group into the current segment, then
// starts a fresh one, returning the new segment's id. A checkpoint
// snapshot taken after Rotate returns covers every record in segments
// below the returned id: any operation whose record landed in an older
// segment was fully applied before Rotate returned, so a subsequent
// state scan observes its effect.
func (l *Log) Rotate() (uint64, error) {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	l.mu.Lock()
	closed, failed := l.closed, l.failed
	l.mu.Unlock()
	if failed != nil {
		return 0, failed
	}
	if closed {
		return 0, ErrClosed
	}
	if err := l.flushLocked(); err != nil {
		return 0, err
	}
	if err := l.rotateLocked(); err != nil {
		return 0, err
	}
	return l.curSeg, nil
}

// Position flushes any pending group and returns the exact log
// position after the last committed record: the current segment id and
// the byte offset one past its final record — the same coordinates
// wal.TailReader reports, so a position taken here names a cut a
// replication reader will land on exactly. The integrity layer's
// sealed roots rely on this: with mutators quiesced, (Position, state
// hash) binds a root to one precise point in the log.
func (l *Log) Position() (uint64, int64, error) {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	l.mu.Lock()
	closed, failed := l.closed, l.failed
	l.mu.Unlock()
	if failed != nil {
		return 0, 0, failed
	}
	if closed {
		return 0, 0, ErrClosed
	}
	if err := l.flushLocked(); err != nil {
		return 0, 0, err
	}
	return l.curSeg, l.segBytes, nil
}

// RemoveBelow deletes every segment with id < seg — called after a
// checkpoint covering them is durably in place. Segment ids only ever
// grow, so this races safely with concurrent rotation.
func (l *Log) RemoveBelow(seg uint64) error {
	ids, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for _, id := range ids {
		if id >= seg {
			continue
		}
		if err := os.Remove(segPath(l.dir, id)); err != nil {
			return err
		}
	}
	return SyncDir(l.dir)
}

// Sync forces a group commit of anything pending and blocks until it
// is durable.
func (l *Log) Sync() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.cur == nil && l.failed == nil {
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	return l.flushLocked()
}

// Close flushes pending records, stops the committer and closes the
// current segment. The log must not be used afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.stop)
	<-l.done
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	err := l.flushLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if errors.Is(err, ErrCrashed) {
		err = nil // fault-injected logs close quietly
	}
	return err
}

// Crash simulates a crash for durability testing: the committer stops
// without flushing, at most partial bytes of the pending group reach
// the file (a torn group write), every unacknowledged ticket fails
// with ErrCrashed, and the log becomes unusable. Reopening the
// directory exercises recovery exactly as a process kill would.
func (l *Log) Crash(partial int) {
	l.failAfter.Store(int64(partial))
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	if l.failed == nil {
		l.failed = ErrCrashed
	}
	l.mu.Unlock()
	close(l.stop)
	<-l.done
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	l.mu.Lock()
	buf, b := l.buf, l.cur
	l.buf, l.cur, l.nrecs = nil, nil, 0
	l.mu.Unlock()
	if b != nil {
		if k := min(partial, len(buf)); k > 0 {
			l.f.Write(buf[:k])
		}
		b.err = ErrCrashed
		close(b.done)
	}
	l.f.Close()
}

// Stats returns a snapshot of the log counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:   l.appends.Load(),
		Records:   l.records.Load(),
		Syncs:     l.syncs.Load(),
		Bytes:     l.bytes.Load(),
		Rotations: l.rotations.Load(),
		Replayed:  l.replayed.Load(),
		MaxGroup:  l.maxGroup.Load(),
	}
}

// CurrentSegment returns the id of the segment receiving appends.
func (l *Log) CurrentSegment() uint64 {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	return l.curSeg
}

// --- directory layout helpers ---

func segPath(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.seg", id))
}

// CheckpointPath returns the path of the checkpoint file covering
// every segment with id < seg.
func CheckpointPath(dir string, seg uint64) string {
	return filepath.Join(dir, fmt.Sprintf("checkpoint-%016x.snap", seg))
}

// listSegments returns the segment ids present in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var ids []uint64
	for _, e := range ents {
		var id uint64
		if n, _ := fmt.Sscanf(e.Name(), "wal-%x.seg", &id); n == 1 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// HasLog reports whether dir holds any log segment or checkpoint.
func HasLog(dir string) (bool, error) {
	ids, err := listSegments(dir)
	if err != nil {
		return false, err
	}
	_, _, ok, err := LatestCheckpoint(dir)
	return len(ids) > 0 || ok, err
}

// LatestCheckpoint returns the newest checkpoint file in dir and the
// segment id it covers up to, or ok=false when none exists.
func LatestCheckpoint(dir string) (seg uint64, path string, ok bool, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, "", false, nil
		}
		return 0, "", false, err
	}
	for _, e := range ents {
		var id uint64
		if n, _ := fmt.Sscanf(e.Name(), "checkpoint-%x.snap", &id); n == 1 && id >= seg {
			seg, path, ok = id, filepath.Join(dir, e.Name()), true
		}
	}
	return seg, path, ok, nil
}

// RemoveCheckpointsBelow deletes checkpoint files covering less than
// seg — called after a newer checkpoint is durably in place.
func RemoveCheckpointsBelow(dir string, seg uint64) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		var id uint64
		if n, _ := fmt.Sscanf(e.Name(), "checkpoint-%x.snap", &id); n == 1 && id < seg {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// createSegment creates a fresh segment file with a durable header.
func createSegment(dir string, id uint64, sync bool) (*os.File, error) {
	f, err := os.OpenFile(segPath(dir, id), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create segment: %w", err)
	}
	var hdr [segHeaderLen]byte
	copy(hdr[0:4], segMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], segVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], id)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		if err := SyncDir(dir); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// WriteFileDurable atomically replaces path with data using the
// write-temp → fsync → rename → fsync-dir discipline: a crash at any
// step leaves either the old file or the complete new one, never a
// torn mix. The small metadata files around the log (layout stamps,
// replication positions) all go through here.
func WriteFileDurable(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory so renames and removals inside it are
// durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
