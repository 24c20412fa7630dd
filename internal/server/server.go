package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"blinktree/internal/base"
	"blinktree/internal/cluster"
	"blinktree/internal/metrics"
	"blinktree/internal/repl"
	"blinktree/internal/shard"
	"blinktree/internal/verify"
	"blinktree/internal/wire"
)

// Config tunes a Server. The zero value of every field selects a
// sensible default.
type Config struct {
	// Addr is the TCP listen address. Default "127.0.0.1:4640"; use
	// ":0" to let the kernel pick (read it back with Server.Addr).
	Addr string
	// HTTPAddr, when non-empty, starts an HTTP listener serving
	// /healthz and /metrics. ":0" works here too (Server.HTTPAddr).
	HTTPAddr string
	// MaxBatch caps requests gathered per poll. Default 1024.
	MaxBatch int
	// MaxInflight is the per-connection backpressure bound: the poll
	// loop stops reading once this many request bytes are gathered,
	// so one connection can never hold more than MaxInflight +
	// one response set in memory. Default 1 MiB.
	MaxInflight int
	// DrainTimeout bounds graceful shutdown: connections get this
	// long to finish their in-flight poll before being closed hard.
	// Default 5s.
	DrainTimeout time.Duration
	// IdleTimeout closes connections with no traffic for this long.
	// Default 0 = never.
	IdleTimeout time.Duration
	// Logf receives connection-level errors. Default: os.Stderr.
	Logf func(format string, args ...any)
	// ReadOnly starts the server refusing mutations with
	// StatusReadOnly — follower mode. Reads, scans, stats and
	// checkpoints (of the follower's own WAL) still serve. Cleared by
	// an OpPromote request.
	ReadOnly bool
	// OnPromote, when set, runs when an OpPromote request arrives and
	// the server is read-only — the hook that stops the local
	// replication Follower. The server becomes writable only if it
	// returns nil.
	OnPromote func() error
	// FollowWindow is the per-follower-feed backpressure bound: the
	// maximum number of shipped-but-unacknowledged records before a
	// feed pauses. Default 65536.
	FollowWindow int
	// RootEvery is how often a verified server publishes a sealed
	// state root on each follower feed. Default 1s.
	RootEvery time.Duration
	// Cluster, when set, makes this a cluster member: every op checks
	// the node's range-ownership map, ops on ranges owned elsewhere
	// (or fenced mid-migration) answer StatusWrongShard with a
	// redirect payload, and the OpMigrate/OpClusterMap ops serve.
	Cluster *cluster.Node
}

func (c *Config) fill() {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:4640"
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1024
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 1 << 20
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "blinkserver: "+format+"\n", args...)
		}
	}
}

// Metrics are the server's own counters, separate from the index's
// per-shard routing metrics (shard.OpMetrics). Polls vs Requests is
// the batching evidence: Requests/Polls is the mean number of
// pipelined requests each ApplyBatch absorbed.
type Metrics struct {
	Accepted  metrics.Counter // connections accepted
	Active    atomic.Int64    // connections currently open
	Polls     metrics.Counter // gather→execute→respond cycles
	Requests  metrics.Counter // requests served
	BatchOps  metrics.Counter // operations executed via ApplyBatch
	Scans     metrics.Counter // scan pages served
	Errors    metrics.Counter // protocol/decode errors
	BytesIn   metrics.Counter
	BytesOut  metrics.Counter
	PollLat   metrics.Histogram // execute+respond latency per poll
	ConnDrops metrics.Counter   // connections ended by error (not EOF)
}

// Server serves the wire protocol over TCP on top of a shard.Router.
// Each connection is handled by one goroutine running a poll loop:
// block for the first pipelined request, keep reading while complete
// frames are buffered (or until MaxBatch/MaxInflight trip), execute the
// batchable operations as a single shard-parallel ApplyBatch — on a
// durable index that is also one WAL group commit per touched shard —
// then write all responses and flush once. Responses carry the
// client's request ids, so completion order never matters.
type Server struct {
	r   *shard.Router
	cfg Config

	ln     net.Listener
	httpLn net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed atomic.Bool   // accepting stopped
	drain  atomic.Bool   // connections should finish their poll and exit
	stopCh chan struct{} // closed with drain; wakes blocking loops (feeds)

	readOnly atomic.Bool   // follower mode: mutations refused
	feeds    repl.Registry // live follower feeds, for /metrics

	// Metrics is live while the server runs; read-only for callers.
	Metrics Metrics
}

// errDraining ends a connection loop during graceful shutdown.
var errDraining = errors.New("server: draining")

// New wraps r in an unstarted Server. The Router stays owned by the
// caller: Close drains connections but does not close r.
func New(r *shard.Router, cfg Config) *Server {
	cfg.fill()
	s := &Server{r: r, cfg: cfg, conns: make(map[net.Conn]struct{}), stopCh: make(chan struct{})}
	s.readOnly.Store(cfg.ReadOnly)
	return s
}

// ReadOnly reports whether the server is refusing mutations (follower
// mode, before promotion).
func (s *Server) ReadOnly() bool { return s.readOnly.Load() }

// ReplStats snapshots the live follower feeds (empty when nothing
// follows this server).
func (s *Server) ReplStats() []repl.FeedStats { return s.feeds.Snapshot() }

// Start begins listening and accepting. It returns once the listeners
// are bound; serving happens on background goroutines.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	if s.cfg.HTTPAddr != "" {
		if err := s.startHTTP(); err != nil {
			ln.Close()
			return err
		}
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the bound TCP address (useful with Addr ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close gracefully shuts the server down: stop accepting, let every
// connection finish the poll it is executing (with DrainTimeout as the
// bound), then close everything. Safe to call more than once.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.drain.Store(true)
	close(s.stopCh)
	err := s.ln.Close()
	if s.httpLn != nil {
		s.httpLn.Close()
	}
	// Connections poll their read deadline at least every 500ms, so
	// they notice drain promptly; force-close whatever remains after
	// the timeout.
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.Metrics.Accepted.Inc()
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.Metrics.Active.Add(1)
		s.wg.Add(1)
		go s.handleConn(c)
	}
}

// request is one decoded frame awaiting execution. The payload slice
// is owned by the poll (copied out of the read buffer).
type request struct {
	id      uint64
	op      uint8
	payload []byte
}

func (s *Server) handleConn(nc net.Conn) {
	defer func() {
		nc.Close()
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		s.Metrics.Active.Add(-1)
		s.wg.Done()
	}()
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	br := bufio.NewReaderSize(nc, 64<<10)
	fw := wire.NewFrameWriter(nc)

	// Hello exchange: validate the client before serving anything,
	// answering with the version we will speak — min(client, ours) —
	// so an old client works against a new server.
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	clientV, err := wire.ReadHello(br)
	if err != nil {
		s.Metrics.Errors.Inc()
		return
	}
	negotiated := min(clientV, wire.Version)
	if err := wire.WriteHelloVersion(nc, negotiated); err != nil {
		return
	}

	c := &connState{s: s, nc: nc, br: br, fw: fw, ingestShard: -1, version: negotiated}
	for {
		c.reqs, c.ops, c.opRq = c.reqs[:0], c.ops[:0], c.opRq[:0]
		gerr := s.gather(c)
		if len(c.reqs) > 0 {
			start := time.Now()
			s.execute(c)
			if err := fw.Flush(); err != nil {
				if c.ingestShard >= 0 {
					s.cfg.Cluster.AbortIngest()
				}
				s.Metrics.ConnDrops.Inc()
				return
			}
			s.Metrics.PollLat.Observe(time.Since(start))
			s.Metrics.Polls.Inc()
		}
		if c.ingestShard >= 0 {
			// The poll carried an accepted migration-ingest handshake
			// (response flushed above): the connection now belongs to
			// the migration stream until the handoff ends it. The stream
			// loops speak bufio, built here — the poll loop's FrameWriter
			// is fully flushed and never used again on this connection.
			err := s.cfg.Cluster.ServeIngest(nc, br, bufio.NewWriterSize(nc, 64<<10), s.r, c.ingestShard)
			if err != nil && !isCleanClose(err) {
				s.cfg.Logf("migration ingest %s: %v", nc.RemoteAddr(), err)
			}
			return
		}
		if c.followPos != nil {
			// The poll carried an accepted OpFollow (response flushed
			// above): the connection now belongs to the replication
			// feed until the follower disconnects or the server drains.
			err := repl.ServeFeed(nc, br, bufio.NewWriterSize(nc, 64<<10), s.r,
				c.followPos, repl.FeedConfig{Window: s.cfg.FollowWindow, Logf: s.cfg.Logf,
					Version: c.version, RootEvery: s.cfg.RootEvery},
				s.stopCh, &s.feeds)
			if err != nil && !isCleanClose(err) {
				s.cfg.Logf("follower %s: %v", nc.RemoteAddr(), err)
			}
			return
		}
		if gerr != nil {
			if errors.Is(gerr, errDraining) {
				// Answer any requests already buffered with
				// StatusShutdown before closing, so a pipelining
				// client learns to reconnect-and-retry instead of
				// seeing an unexplained severed connection.
				s.refuseBuffered(c)
			} else if !isCleanClose(gerr) {
				s.Metrics.ConnDrops.Inc()
				s.cfg.Logf("conn %s: %v", nc.RemoteAddr(), gerr)
			}
			return
		}
	}
}

// refuseBuffered drains complete frames already sitting in the read
// buffer and answers each with StatusShutdown. Frames still in the
// kernel buffer or partially received are left unanswered — their
// caller sees the close, exactly like a request sent after the drain.
func (s *Server) refuseBuffered(c *connState) {
	for c.br.Buffered() >= 4 {
		p, err := c.br.Peek(4)
		if err != nil {
			break
		}
		flen := int(binary.LittleEndian.Uint32(p))
		if flen < 9 || flen > wire.MaxFrame+9 || c.br.Buffered() < 4+flen {
			break
		}
		id, _, _, err := wire.ReadFrame(c.br, c.scratch)
		if err != nil {
			break
		}
		s.writeFrame(c, id, wire.StatusShutdown, nil)
	}
	c.fw.Flush()
}

// connState is the per-connection scratch reused across polls; a
// connection is served by exactly one goroutine, so none of it is
// synchronized.
type connState struct {
	s       *Server
	nc      net.Conn
	br      *bufio.Reader
	fw      *wire.FrameWriter // response accumulator, one write per poll
	version uint16            // negotiated protocol version for this connection
	reqs    []request
	ops     []shard.Op         // batchable slots of the current poll
	opRq    []int              // ops[j] answers reqs[opRq[j]]
	batchSc shard.BatchScratch // ApplyBatchInto working memory for the poll's fused point ops
	// unitSc is serveBatch's own ApplyBatchInto scratch: an OpBatch
	// frame is served mid-dispatch, while execute is still answering
	// point ops from batchSc's results, so the two applies must not
	// share working memory.
	unitSc  shard.BatchScratch
	enc     wire.Buf // response payload scratch
	pool    []byte   // payload arena for the current poll
	scratch []byte   // frame read scratch, grown to the largest frame seen
	// frameStart is the accumulator size when the current beginFrame
	// opened, for the BytesOut metric.
	frameStart int
	// followPos, set by an accepted OpFollow, hands the connection to
	// the replication feed once the poll's responses are flushed.
	followPos []repl.Position
	// ingestShard (≥ 0), set by an accepted OpMigrate ingest
	// handshake, hands the connection to the migration ingest loop
	// once the poll's responses are flushed.
	ingestShard int
}

// isCleanClose reports errors that are a normal end of connection: a
// clean EOF between frames, a drain, or our own Close racing the read.
func isCleanClose(err error) bool {
	return errors.Is(err, errDraining) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, io.EOF)
}

// gather reads one poll's worth of pipelined requests: block for the
// first frame (waking every 500ms to notice drain/idle), then keep
// decoding while the read buffer holds a complete frame header, or
// until MaxBatch / MaxInflight trip. Deadline expiry is only ever
// taken on Peek — which never consumes — so a timeout cannot tear a
// frame.
//
// There is no timed wait. The poll executes as soon as the buffer runs
// dry, and whatever arrives while it executes forms the next poll, the
// way a WAL group forms from the appends that arrive during the
// previous group's write. A serial caller is answered at once; a
// pipelining client's callers refill the buffer while a poll runs, so
// poll size follows the load by itself.
func (s *Server) gather(c *connState) error {
	idleAt := time.Time{}
	if s.cfg.IdleTimeout > 0 {
		idleAt = time.Now().Add(s.cfg.IdleTimeout)
	}
	for {
		if s.drain.Load() {
			return errDraining
		}
		if !idleAt.IsZero() && time.Now().After(idleAt) {
			return io.EOF
		}
		c.nc.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		if _, err := c.br.Peek(4); err == nil {
			break
		} else if !errors.Is(err, os.ErrDeadlineExceeded) {
			return err
		}
	}
	// A frame is (at least partially) available: commit to reading it
	// whole. One generous deadline covers every frame of the poll — a
	// peer stalling mid-frame is a protocol violation and times out —
	// so the hot buffered-frame path resets no deadlines at all.
	c.nc.SetReadDeadline(time.Now().Add(30 * time.Second))
	bytes := 0
	c.pool = c.pool[:0]
	for {
		id, op, payload, err := wire.ReadFrame(c.br, c.scratch)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				s.Metrics.Errors.Inc()
			}
			return err
		}
		if cap(payload) > cap(c.scratch) {
			c.scratch = payload[:0]
		}
		// Point ops — the hot path — decode straight into their
		// ApplyBatch slot, no payload copy. Everything else (units and
		// malformed frames) copies into the poll arena, because
		// ReadFrame's scratch is overwritten by the next frame.
		if sop, ok := decodePoint(op, payload); ok {
			c.opRq = append(c.opRq, len(c.reqs))
			c.ops = append(c.ops, sop)
			c.reqs = append(c.reqs, request{id: id, op: op})
		} else {
			off := len(c.pool)
			c.pool = append(c.pool, payload...)
			c.reqs = append(c.reqs, request{id: id, op: op, payload: c.pool[off:len(c.pool):len(c.pool)]})
		}
		bytes += len(payload) + 13
		s.Metrics.BytesIn.Add(uint64(len(payload) + 13))
		if len(c.reqs) >= s.cfg.MaxBatch || bytes >= s.cfg.MaxInflight || s.drain.Load() || c.br.Buffered() < 4 {
			return nil
		}
	}
}

// execute runs one gathered poll. Point operations (search, insert,
// delete and the conditional writes) across ALL pipelined requests —
// already decoded into c.ops by gather — fuse into one ApplyBatch:
// shard-parallel, one WAL group commit per touched durable shard.
// Unit requests (scan, batch, len, stats, checkpoint, ping) run
// inline afterwards. Responses are written in request order, which is
// incidental: ids make any order legal.
//
// Ordering contract (docs/protocol.md): requests pipelined without
// waiting for responses may execute in any relative order; the only
// guarantee is that each response reflects some serial execution.
func (s *Server) execute(c *connState) {
	s.Metrics.Requests.Add(uint64(len(c.reqs)))
	var results []shard.Result
	if len(c.ops) > 0 {
		results = s.applyOps(c.ops, &c.batchSc)
		s.Metrics.BatchOps.Add(uint64(len(c.ops)))
	}
	next := 0 // cursor over c.opRq/results, aligned with request order
	for i := range c.reqs {
		rq := &c.reqs[i]
		if next < len(c.opRq) && c.opRq[next] == i {
			s.writePointResponse(c, rq, results[next])
			next++
			continue
		}
		s.serveUnit(c, rq)
	}
}

// applyOps dispatches a point-op batch through whichever gate applies:
// read-only follower, cluster ownership, or straight to the router.
// The results live in sc — valid until the next apply through the same
// scratch. The poll's fused point ops and serveBatch's explicit OpBatch
// frames use distinct scratches (c.batchSc vs c.unitSc) because an
// OpBatch is applied mid-dispatch, while point results from the same
// poll are still being encoded.
func (s *Server) applyOps(ops []shard.Op, sc *shard.BatchScratch) []shard.Result {
	if s.readOnly.Load() {
		return s.applyReadOnly(ops)
	}
	if s.cfg.Cluster != nil {
		return s.applyCluster(ops, sc)
	}
	return s.r.ApplyBatchInto(ops, sc)
}

// wrongShardErr marks a result refused because this server does not
// serve the op's range; the response layer turns it into
// StatusWrongShard with a redirect payload. It never leaves the server.
type wrongShardErr struct{ sh int }

func (e wrongShardErr) Error() string { return "server: wrong shard" }

// applyCluster executes a point-op batch on a cluster member: ops on
// ranges served here fuse into one shard-parallel batch, the rest are
// refused with a redirect. The ownership check and the apply sit
// under the node's fence read-lock — the migration fence takes the
// write side once after marking a range fenced, so when it proceeds no
// in-flight batch can still append to that range's WAL. Reads are
// gated too: a range owned elsewhere may hold stale data.
func (s *Server) applyCluster(ops []shard.Op, sc *shard.BatchScratch) []shard.Result {
	n := s.cfg.Cluster
	n.FenceRLock()
	defer n.FenceRUnlock()
	results := make([]shard.Result, len(ops))
	accepted := ops[:0:0]
	var idx []int
	for j, op := range ops {
		if sh := s.r.ShardFor(op.Key); !n.Serving(sh) {
			results[j].Err = wrongShardErr{sh: sh}
		} else {
			accepted = append(accepted, op)
			idx = append(idx, j)
		}
	}
	if len(idx) == len(ops) {
		return s.r.ApplyBatchInto(ops, sc)
	}
	if len(accepted) > 0 {
		for jj, res := range s.r.ApplyBatch(accepted) {
			results[idx[jj]] = res
		}
	}
	return results
}

// applyReadOnly executes a point-op batch on a follower: searches
// still fuse into one shard-parallel batch; every mutation answers
// StatusReadOnly without touching the index.
func (s *Server) applyReadOnly(ops []shard.Op) []shard.Result {
	results := make([]shard.Result, len(ops))
	var reads []shard.Op
	var readIdx []int
	for j, op := range ops {
		if op.Kind == shard.OpSearch {
			reads = append(reads, op)
			readIdx = append(readIdx, j)
		} else {
			results[j].Err = wire.ErrReadOnly
		}
	}
	if len(reads) > 0 {
		for jj, res := range s.r.ApplyBatch(reads) {
			results[readIdx[jj]] = res
		}
	}
	return results
}

// decodePoint maps a point-op request to its ApplyBatch slot. ok is
// false for unit ops and for malformed payloads (the latter are caught
// again — with a proper error response — in serveUnit).
func decodePoint(op uint8, payload []byte) (shard.Op, bool) {
	d := wire.Dec{B: payload}
	var o shard.Op
	switch op {
	case wire.OpSearch:
		o = shard.Op{Kind: shard.OpSearch, Key: base.Key(d.U64())}
	case wire.OpInsert:
		o = shard.Op{Kind: shard.OpInsert, Key: base.Key(d.U64()), Value: base.Value(d.U64())}
	case wire.OpDelete:
		o = shard.Op{Kind: shard.OpDelete, Key: base.Key(d.U64())}
	case wire.OpUpsert:
		o = shard.Op{Kind: shard.OpUpsert, Key: base.Key(d.U64()), Value: base.Value(d.U64())}
	case wire.OpGetOrInsert:
		o = shard.Op{Kind: shard.OpGetOrInsert, Key: base.Key(d.U64()), Value: base.Value(d.U64())}
	case wire.OpCompareAndSwap:
		o = shard.Op{Kind: shard.OpCompareAndSwap, Key: base.Key(d.U64())}
		o.Old = base.Value(d.U64())
		o.Value = base.Value(d.U64())
	case wire.OpCompareAndDelete:
		o = shard.Op{Kind: shard.OpCompareAndDelete, Key: base.Key(d.U64()), Old: base.Value(d.U64())}
	default:
		return shard.Op{}, false
	}
	if !d.Done() {
		return shard.Op{}, false
	}
	return o, true
}

// writePointResponse encodes one ApplyBatch result for its request.
func (s *Server) writePointResponse(c *connState, rq *request, res shard.Result) {
	if ws, ok := res.Err.(wrongShardErr); ok {
		s.writeFrame(c, rq.id, wire.StatusWrongShard, s.cfg.Cluster.RedirectPayload(ws.sh))
		return
	}
	if res.Err != nil {
		s.writeErr(c, rq.id, res.Err)
		return
	}
	c.enc.Reset()
	switch rq.op {
	case wire.OpSearch:
		c.enc.U64(uint64(res.Value))
	case wire.OpInsert, wire.OpDelete:
		// empty payload
	case wire.OpUpsert, wire.OpGetOrInsert:
		c.enc.U64(uint64(res.Value))
		c.enc.U8(boolByte(res.OK))
	case wire.OpCompareAndSwap, wire.OpCompareAndDelete:
		c.enc.U8(boolByte(res.OK))
	}
	s.writeFrame(c, rq.id, wire.StatusOK, c.enc.B)
}

// serveUnit executes one non-point request inline and writes its
// response. Malformed point ops also land here (decodePoint rejected
// them), answered with StatusBadRequest.
func (s *Server) serveUnit(c *connState, rq *request) {
	d := wire.Dec{B: rq.payload}
	switch rq.op {
	case wire.OpPing:
		s.writeFrame(c, rq.id, wire.StatusOK, nil)
	case wire.OpLen:
		c.enc.Reset()
		c.enc.U64(uint64(s.servedLen()))
		s.writeFrame(c, rq.id, wire.StatusOK, c.enc.B)
	case wire.OpCheckpoint:
		if err := s.r.Checkpoint(); err != nil {
			s.writeErr(c, rq.id, err)
			return
		}
		s.writeFrame(c, rq.id, wire.StatusOK, nil)
	case wire.OpStats:
		s.serveStats(c, rq)
	case wire.OpScan:
		lo, hi, limit := base.Key(d.U64()), base.Key(d.U64()), d.U32()
		if !d.Done() {
			s.badRequest(c, rq.id, "scan payload")
			return
		}
		s.serveScan(c, rq.id, lo, hi, int(limit))
	case wire.OpBatch:
		s.serveBatch(c, rq)
	case wire.OpFollow:
		s.serveFollow(c, rq)
	case wire.OpPromote:
		s.servePromote(c, rq)
	case wire.OpMigrate:
		s.serveMigrate(c, rq)
	case wire.OpClusterMap:
		if s.cfg.Cluster == nil {
			s.badRequest(c, rq.id, "not a cluster member")
			return
		}
		s.writeFrame(c, rq.id, wire.StatusOK, s.cfg.Cluster.MapPayload())
	case wire.OpRoot:
		s.serveRoot(c, rq)
	case wire.OpProve:
		s.serveProve(c, rq, &d)
	default:
		// Unknown ops and point ops whose payload failed to decode.
		s.badRequest(c, rq.id, fmt.Sprintf("unknown op %d or malformed payload", rq.op))
	}
}

// servedLen counts the pairs this server answers for: everything on a
// plain server, only the ranges it serves on a cluster member (data
// for migrated-away ranges is garbage awaiting a wipe, not inventory).
func (s *Server) servedLen() int {
	n := s.cfg.Cluster
	if n == nil {
		return s.r.Len()
	}
	total := 0
	for i := 0; i < s.r.Shards(); i++ {
		if n.Serving(i) {
			total += s.r.Engine(i).Tree.Len()
		}
	}
	return total
}

// serveScan answers one bounded page of lo ≤ key ≤ hi. On a cluster
// member the page is clamped to lo's range: a scan touching a range
// served elsewhere redirects, and a page ending at a served range's
// boundary reports more=1 so the client resumes (and re-routes) at the
// next range.
func (s *Server) serveScan(c *connState, id uint64, lo, hi base.Key, limit int) {
	if limit <= 0 {
		limit = wire.DefaultScanLimit
	}
	if limit > wire.MaxScanLimit {
		limit = wire.MaxScanLimit
	}
	clamped := false
	if n := s.cfg.Cluster; n != nil {
		sh := s.r.ShardFor(lo)
		if !n.Serving(sh) {
			s.writeFrame(c, id, wire.StatusWrongShard, n.RedirectPayload(sh))
			return
		}
		if _, rangeHi := s.r.ShardSpan(sh); hi > rangeHi {
			hi, clamped = rangeHi, true
		}
	}
	// The page is encoded directly into the frame accumulator — a full
	// page is 64 KiB of pairs, worth not staging through c.enc — with
	// the more/count prefix patched in place once the walk ends.
	e := s.beginFrame(c, id, wire.StatusOK)
	base0 := len(e.B)
	e.U8(0)  // more, patched below
	e.U32(0) // count, patched below
	count, more := 0, false
	err := s.r.Range(lo, hi, func(k base.Key, v base.Value) bool {
		if count == limit {
			more = true
			return false
		}
		e.U64(uint64(k))
		e.U64(uint64(v))
		count++
		return true
	})
	if err != nil {
		c.fw.Abort()
		s.writeErr(c, id, err)
		return
	}
	e.B[base0] = boolByte(more || clamped)
	e.B[base0+1] = byte(count)
	e.B[base0+2] = byte(count >> 8)
	e.B[base0+3] = byte(count >> 16)
	e.B[base0+4] = byte(count >> 24)
	s.Metrics.Scans.Inc()
	s.endFrame(c)
}

// serveBatch decodes an explicit OpBatch frame, applies it as its own
// shard-parallel batch, and encodes the positional per-slot results.
func (s *Server) serveBatch(c *connState, rq *request) {
	d := wire.Dec{B: rq.payload}
	n := int(d.U32())
	if d.Err != nil || n < 0 || n > wire.MaxBatchOps || len(rq.payload) != 4+25*n {
		if n > wire.MaxBatchOps {
			s.writeFrame(c, rq.id, wire.StatusTooLarge, []byte(fmt.Sprintf("batch of %d > %d", n, wire.MaxBatchOps)))
			return
		}
		s.badRequest(c, rq.id, "batch payload")
		return
	}
	ops := make([]shard.Op, n)
	for i := range ops {
		kind := d.U8()
		key, val, old := base.Key(d.U64()), base.Value(d.U64()), base.Value(d.U64())
		sk, ok := batchKind(kind)
		if !ok {
			s.badRequest(c, rq.id, fmt.Sprintf("batch slot %d kind %d", i, kind))
			return
		}
		ops[i] = shard.Op{Kind: sk, Key: key, Value: val, Old: old}
	}
	results := s.applyOps(ops, &c.unitSc)
	s.Metrics.BatchOps.Add(uint64(n))
	// Encode straight into the frame accumulator: no intermediate
	// payload buffer, no copy of up to 10·n bytes.
	e := s.beginFrame(c, rq.id, wire.StatusOK)
	for i := range results {
		// Batch slots are fixed-width, so a refused slot carries the
		// status alone; the client refreshes its map via OpClusterMap.
		if _, ok := results[i].Err.(wrongShardErr); ok {
			e.U8(wire.StatusWrongShard)
		} else {
			e.U8(wire.ErrStatus(results[i].Err))
		}
		e.U64(uint64(results[i].Value))
		e.U8(boolByte(results[i].OK))
	}
	s.endFrame(c)
}

// serveFollow validates a replication handshake and arms the feed
// handoff: the OK response (carrying the shard count) is written into
// the poll's response buffer, and once the poll flushes, handleConn
// hands the connection to repl.ServeFeed.
func (s *Server) serveFollow(c *connState, rq *request) {
	if !s.r.Durable() {
		s.badRequest(c, rq.id, "follow requires a durable primary (-durable)")
		return
	}
	pos, err := repl.DecodeFollowRequest(rq.payload, s.r.Shards())
	if err != nil {
		s.badRequest(c, rq.id, err.Error())
		return
	}
	c.followPos = pos
	c.enc.Reset()
	c.enc.U32(uint32(s.r.Shards()))
	s.writeFrame(c, rq.id, wire.StatusOK, c.enc.B)
}

// servePromote flips a read-only follower writable, stopping its
// replication Follower through the OnPromote hook first. On a server
// that was not read-only it reports was=0 and changes nothing.
func (s *Server) servePromote(c *connState, rq *request) {
	was := s.readOnly.Load()
	if was {
		if s.cfg.OnPromote != nil {
			if err := s.cfg.OnPromote(); err != nil {
				s.writeErr(c, rq.id, err)
				return
			}
		}
		s.readOnly.Store(false)
		s.cfg.Logf("promoted: now accepting writes")
	}
	c.enc.Reset()
	c.enc.U8(boolByte(was))
	s.writeFrame(c, rq.id, wire.StatusOK, c.enc.B)
}

// serveMigrate handles OpMigrate. Mode 0 (admin → source) runs a full
// live migration inline — the admin connection blocks until the
// handoff commits or fails, which keeps the trigger's semantics
// obvious; other connections are unaffected. Mode 1 (source → target)
// is the ingest handshake: it arms the connection handoff to the
// migration ingest loop, mirroring serveFollow.
func (s *Server) serveMigrate(c *connState, rq *request) {
	n := s.cfg.Cluster
	if n == nil {
		s.badRequest(c, rq.id, "not a cluster member (start with -cluster-advertise)")
		return
	}
	if !s.r.Durable() {
		s.badRequest(c, rq.id, "migration requires a durable server (-durable)")
		return
	}
	d := wire.Dec{B: rq.payload}
	mode := d.U8()
	sh := int(d.U32())
	tlen := int(d.U16())
	if d.Err != nil || len(rq.payload) != 7+tlen {
		s.badRequest(c, rq.id, "migrate payload")
		return
	}
	target := string(rq.payload[7:])
	switch mode {
	case 0:
		if err := n.Migrate(s.r, sh, target); err != nil {
			s.writeErr(c, rq.id, err)
			return
		}
		s.writeFrame(c, rq.id, wire.StatusOK, nil)
	case 1:
		already, version, err := n.BeginIngest(sh)
		if err != nil {
			s.writeErr(c, rq.id, err)
			return
		}
		if !already {
			c.ingestShard = sh
		}
		c.enc.Reset()
		c.enc.U8(boolByte(already))
		c.enc.U64(version)
		s.writeFrame(c, rq.id, wire.StatusOK, c.enc.B)
	default:
		s.badRequest(c, rq.id, fmt.Sprintf("migrate mode %d", mode))
	}
}

// serveRoot answers the server's current engine state root (v3).
func (s *Server) serveRoot(c *connState, rq *request) {
	if c.version < 3 {
		s.badRequest(c, rq.id, "root requires protocol v3")
		return
	}
	if !s.r.Verified() {
		s.badRequest(c, rq.id, "server is not verified (start with -verified)")
		return
	}
	root, err := s.r.Root()
	if err != nil {
		s.writeErr(c, rq.id, err)
		return
	}
	s.writeFrame(c, rq.id, wire.StatusOK, root[:])
}

// serveProve answers an inclusion/exclusion proof for one key (v3).
func (s *Server) serveProve(c *connState, rq *request, d *wire.Dec) {
	if c.version < 3 {
		s.badRequest(c, rq.id, "prove requires protocol v3")
		return
	}
	if !s.r.Verified() {
		s.badRequest(c, rq.id, "server is not verified (start with -verified)")
		return
	}
	key := base.Key(d.U64())
	if !d.Done() {
		s.badRequest(c, rq.id, "prove payload")
		return
	}
	p, err := s.r.Prove(key)
	if err != nil {
		s.writeErr(c, rq.id, err)
		return
	}
	payload := verify.EncodeProof(nil, p)
	if len(payload) > wire.MaxFrame {
		s.writeFrame(c, rq.id, wire.StatusTooLarge,
			[]byte(fmt.Sprintf("proof of %d bytes exceeds the frame limit; raise VerifyBuckets", len(payload))))
		return
	}
	// The proof buffer is freshly built and never touched again, so the
	// writer can retain it as-is: the poll's flush sends it with writev
	// instead of copying a multi-KiB proof into the accumulator.
	s.Metrics.BytesOut.Add(uint64(len(payload) + 13))
	if err := c.fw.WriteFrameNoCopy(rq.id, wire.StatusOK, payload); err != nil {
		_ = err // surfaces at Flush, handled by the poll loop
	}
}

// ClusterStats snapshots the cluster node's counters (zero Stats when
// not a cluster member).
func (s *Server) ClusterStats() (cluster.Stats, bool) {
	if s.cfg.Cluster == nil {
		return cluster.Stats{}, false
	}
	return s.cfg.Cluster.ClusterStats(), true
}

// batchKind maps a wire op code to the shard batch kind it executes as.
func batchKind(op uint8) (shard.OpKind, bool) {
	switch op {
	case wire.OpSearch:
		return shard.OpSearch, true
	case wire.OpInsert:
		return shard.OpInsert, true
	case wire.OpDelete:
		return shard.OpDelete, true
	case wire.OpUpsert:
		return shard.OpUpsert, true
	case wire.OpGetOrInsert:
		return shard.OpGetOrInsert, true
	case wire.OpCompareAndSwap:
		return shard.OpCompareAndSwap, true
	case wire.OpCompareAndDelete:
		return shard.OpCompareAndDelete, true
	default:
		return 0, false
	}
}

// serveStats answers the cheap index-level counters (no occupancy
// walk): per-shard executed-op totals plus size and height.
func (s *Server) serveStats(c *connState, rq *request) {
	var fields [wire.StatsFields]uint64
	ss := s.r.ShardStats()
	fields[0] = uint64(len(ss))
	var height uint64
	for _, st := range ss {
		fields[1] += uint64(st.Len)
		if uint64(st.Height) > height {
			height = uint64(st.Height)
		}
		fields[3] += st.Searches
		fields[4] += st.Inserts
		fields[5] += st.Deletes
		fields[6] += st.Upserts
		fields[7] += st.Updates
		fields[8] += st.Cas
		fields[9] += st.Scans
		fields[10] += st.Batches
		fields[11] += st.BatchOps
	}
	fields[2] = height
	c.enc.Reset()
	c.enc.U32(wire.StatsFields)
	for _, f := range fields {
		c.enc.U64(f)
	}
	s.writeFrame(c, rq.id, wire.StatusOK, c.enc.B)
}

// writeErr maps err to its status code and writes an error response.
func (s *Server) writeErr(c *connState, id uint64, err error) {
	code := wire.ErrStatus(err)
	var msg []byte
	if code == wire.StatusInternal {
		msg = []byte(err.Error())
	}
	s.writeFrame(c, id, code, msg)
}

// badRequest answers a malformed frame without killing the connection.
func (s *Server) badRequest(c *connState, id uint64, what string) {
	s.Metrics.Errors.Inc()
	s.writeFrame(c, id, wire.StatusBadRequest, []byte(what))
}

// beginFrame opens a response frame encoded in place in the frame
// accumulator — for the big payloads (scan pages, batch results) where
// an intermediate encode buffer would mean copying the payload twice.
func (s *Server) beginFrame(c *connState, id uint64, code uint8) *wire.Buf {
	c.frameStart = c.fw.Buffered()
	return c.fw.Begin(id, code)
}

// endFrame closes a frame opened with beginFrame.
func (s *Server) endFrame(c *connState) {
	if err := c.fw.End(); err == nil {
		s.Metrics.BytesOut.Add(uint64(c.fw.Buffered() - c.frameStart))
	}
}

// writeFrame appends one response frame to the connection's frame
// accumulator (written to the socket once per poll).
func (s *Server) writeFrame(c *connState, id uint64, code uint8, payload []byte) {
	s.Metrics.BytesOut.Add(uint64(len(payload) + 13))
	if err := c.fw.WriteFrame(id, code, payload); err != nil {
		// Accumulated writes only fail at Flush; the poll loop
		// handles that. Nothing to do here.
		_ = err
	}
}

// boolByte encodes a bool as 0/1.
func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
