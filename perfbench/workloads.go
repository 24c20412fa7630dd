package main

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math/rand/v2"
	"os"
	"time"

	"blinktree"
	"blinktree/client"
	"blinktree/internal/server"
	"blinktree/internal/shard"
	"blinktree/internal/wire"
	"blinktree/internal/workload"
)

// workloadDef names one workload and how to build it.
type workloadDef struct {
	callers int
	// procs overrides GOMAXPROCS, which is otherwise the CPU count.
	procs int
	// flush is the WAL flush policy, recorded with every result.
	flush string
	// frames is the workload's request/response mix on the wire, for
	// the codec probe.
	frames []frameShare
	// newState allocates the workload's oracle and key layout for a
	// seed. It runs before the heap baseline is taken.
	newState func(seed int64) state
}

// state is a workload's oracle; setup builds the system under test
// loaded with the state's initial content.
type state interface {
	setup(out string) (*rig, error)
}

var workloads = map[string]workloadDef{
	"tree-read": {
		callers: 2, flush: "none (volatile)",
		frames: []frameShare{{wire.OpSearch, 8, 8, 95}, {wire.OpUpsert, 16, 9, 5}},
		newState: func(seed int64) state {
			return &readMostly{n: 2_000_000, callers: 2}
		},
	},
	"tree-churn": {
		callers: 2, flush: "none (volatile)",
		frames: []frameShare{{wire.OpInsert, 16, 0, 40}, {wire.OpDelete, 8, 0, 40},
			{wire.OpSearch, 8, 8, 15}, {wire.OpScan, 20, 5 + 16*ascendSpan, 5}},
		newState: func(seed int64) state { return newQueue(2, 200_000) },
	},
	"net-serial": {
		// One caller has no parallelism to use. With a second P the
		// request path's goroutine hand-offs cross CPUs in modes lasting
		// seconds, and the median flips between about 20 and 30 µs; one
		// P measures the fixed cost alone.
		callers: 1, procs: 1, flush: "none (volatile)",
		frames: []frameShare{{wire.OpSearch, 8, 8, 90}, {wire.OpUpsert, 16, 9, 10}},
		newState: func(seed int64) state {
			return newOwned(seed, 100_000, 1, serialMix, netConfig{conns: 1})
		},
	},
	"net-write": {
		callers: 64, flush: "WALNoSync (one write(2) per group commit, no fsync)",
		frames: []frameShare{{wire.OpSearch, 8, 8, 20}, {wire.OpUpsert, 16, 9, 60}, {wire.OpDelete, 8, 0, 20}},
		newState: func(seed int64) state {
			return newOwned(seed, 100_000, 64, workload.UpsertHeavy, netConfig{conns: 2, durable: true})
		},
	},
}

var serialMix = workload.Mix{SearchPct: 90, UpsertPct: 10}

// rig is one running system under test and the hooks the benchmark
// measures it through.
type rig struct {
	steps []step
	// probe picks a key for the search-scaling probe: its population
	// index and whether it must be present.
	probe  func(rng *rand.Rand) (k Key, idx uint64, must bool)
	search func(Key) (Value, error) // in-process Search, for the probe
	stats  func() (shard.Stats, error)
	queue  func() int // compression queue depth, for sampling
	pairs  func() int
	net    *netRig // nil for in-process workloads
	// verify checks the final content against the oracle, the
	// structural invariants and the lock bounds. It returns how many
	// checks ran and which failed.
	verify func() (checks, failed uint64, first string, err error)
	close  func() error
}

// pointIndex is what the point-operation workloads call: the tree
// in-process, or the network client through remote.
type pointIndex interface {
	Search(Key) (Value, error)
	Upsert(Key, Value) (Value, bool, error)
	Delete(Key) error
}

// queueIndex is what tree-churn calls.
type queueIndex interface {
	Search(Key) (Value, error)
	Insert(Key, Value) error
	Delete(Key) error
	Ascend(lo, hi Key) iter.Seq2[Key, Value]
}

func isNotFound(err error) bool { return errors.Is(err, blinktree.ErrNotFound) }

// ---------------------------------------------------------------------
// tree-read: a large loaded tree, read-mostly, keys shared by callers.

type readMostly struct {
	n       uint64
	callers int
}

func (w *readMostly) load() func() (Key, Value, bool) {
	i := uint64(0)
	return func() (Key, Value, bool) {
		if i == w.n {
			return 0, 0, false
		}
		i++
		return Key(i - 1), enc(i-1, 0, 0), true
	}
}

// steps issues 95% Search and 5% Upsert over keys drawn uniformly from
// the loaded set. Keys are never deleted, so every Search must find
// its key; the value must encode that key and a known writer.
func (w *readMostly) steps(ix pointIndex, layer string) []step {
	names := layerNames(layer)
	steps := make([]step, w.callers)
	for i := range steps {
		var seq uint64
		steps[i] = func(c *caller) {
			s := c.begin()
			idx := c.rng.Uint64N(w.n)
			k := Key(idx)
			if c.rng.IntN(100) < 95 {
				t0 := c.now()
				v, err := ix.Search(k)
				c.done(kSearch, t0, names)
				c.check(err == nil && sameKey(v, idx) && writerOf(v) <= w.callers, "search", k, err)
				c.finish(s, kSearch)
				return
			}
			seq++
			t0 := c.now()
			old, existed, err := ix.Upsert(k, enc(idx, c.id+1, seq))
			c.done(kUpsert, t0, names)
			c.check(err == nil && existed && sameKey(old, idx), "upsert", k, err)
			c.finish(s, kUpsert)
		}
	}
	return steps
}

func (w *readMostly) setup(string) (*rig, error) {
	t, err := openTree(w.load())
	if err != nil {
		return nil, err
	}
	rg := treeRig(t, w.steps(t, "blinktree.Tree"))
	rg.probe = func(rng *rand.Rand) (Key, uint64, bool) {
		idx := rng.Uint64N(w.n)
		return Key(idx), idx, true
	}
	rg.verify = func() (uint64, uint64, string, error) {
		checks, failed, first := treeChecks(t)
		if n := uint64(t.Len()); n != w.n {
			failed++
			first = cmpFirst(first, fmt.Sprintf("tree holds %d pairs, loaded %d", n, w.n))
		}
		return checks + 1, failed, first, nil
	}
	return rg, nil
}

// ---------------------------------------------------------------------
// tree-churn: the tree as a sliding-window queue.

// ascendSpan is how many consecutive keys one Ascend covers.
const ascendSpan = 128

// queue gives each caller the keys i·callers + c; caller c keeps its
// live keys in the window [tail, head) of i, inserting at the head and
// deleting at the tail. Only caller c touches its keys, so presence is
// exact.
type queue struct {
	callers int
	live    uint64 // initial window per caller
	win     []struct{ tail, head uint64 }
}

func newQueue(callers int, live uint64) *queue {
	q := &queue{callers: callers, live: live, win: make([]struct{ tail, head uint64 }, callers)}
	q.reset()
	return q
}

// reset returns every window to the loaded content.
func (q *queue) reset() {
	for c := range q.win {
		q.win[c].tail, q.win[c].head = 0, q.live
	}
}

func (q *queue) key(c int, i uint64) Key { return Key(i*uint64(q.callers) + uint64(c)) }

func (q *queue) owner(k Key) int { return int(uint64(k) % uint64(q.callers)) }

// holds reports whether key k is in its owner's live window.
func (q *queue) holds(k Key) bool {
	w := q.win[q.owner(k)]
	i := uint64(k) / uint64(q.callers)
	return w.tail <= i && i < w.head
}

// ownIn counts caller c's live keys in [lo, hi].
func (q *queue) ownIn(c int, lo, hi Key) uint64 {
	n, cc := uint64(q.callers), uint64(c)
	first := uint64(0)
	if uint64(lo) > cc {
		first = (uint64(lo) - cc + n - 1) / n
	}
	if uint64(hi) < cc {
		return 0
	}
	last := (uint64(hi)-cc)/n + 1 // exclusive
	w := q.win[c]
	first, last = max(first, w.tail), min(last, w.head)
	if first >= last {
		return 0
	}
	return last - first
}

func (q *queue) load() func() (Key, Value, bool) {
	k, end := uint64(0), q.live*uint64(q.callers)
	return func() (Key, Value, bool) {
		if k == end {
			return 0, 0, false
		}
		k++
		return Key(k - 1), enc(k-1, q.owner(Key(k-1))+1, 0), true
	}
}

// steps issues 40% Insert at the head, 40% Delete at the tail, 15%
// Search of a live key and 5% Ascend over ascendSpan keys.
func (q *queue) steps(ix queueIndex, layer string) []step {
	names := layerNames(layer)
	steps := make([]step, q.callers)
	for c := range steps {
		w := &q.win[c]
		steps[c] = func(cl *caller) {
			s := cl.begin()
			p := cl.rng.IntN(100)
			switch {
			case p < 40 || w.head == w.tail:
				k := q.key(c, w.head)
				t0 := cl.now()
				err := ix.Insert(k, enc(uint64(k), c+1, 0))
				cl.done(kInsert, t0, names)
				cl.check(err == nil, "insert", k, err)
				w.head++
				cl.finish(s, kInsert)
			case p < 80:
				k := q.key(c, w.tail)
				t0 := cl.now()
				err := ix.Delete(k)
				cl.done(kDelete, t0, names)
				cl.check(err == nil, "delete", k, err)
				w.tail++
				cl.finish(s, kDelete)
			case p < 95:
				k := q.key(c, w.tail+cl.rng.Uint64N(w.head-w.tail))
				t0 := cl.now()
				v, err := ix.Search(k)
				cl.done(kSearch, t0, names)
				cl.check(err == nil && sameKey(v, uint64(k)) && writerOf(v) == c+1, "search", k, err)
				cl.finish(s, kSearch)
			default:
				lo := q.key(c, w.tail+cl.rng.Uint64N(w.head-w.tail))
				hi := lo + ascendSpan - 1
				ok, own := true, uint64(0)
				prev := lo
				t0 := cl.now()
				for k, v := range ix.Ascend(lo, hi) {
					ok = ok && k >= prev && k <= hi && sameKey(v, uint64(k)) && writerOf(v) == q.owner(k)+1
					if q.owner(k) == c {
						own++
						ok = ok && q.holds(k)
					}
					prev = k + 1
				}
				cl.done(kAscend, t0, names)
				cl.check(ok && own == q.ownIn(c, lo, hi), "ascend", lo, nil)
				cl.finish(s, kAscend)
			}
		}
	}
	return steps
}

func (q *queue) setup(string) (*rig, error) {
	q.reset()
	t, err := openTree(q.load())
	if err != nil {
		return nil, err
	}
	rg := treeRig(t, q.steps(t, "blinktree.Tree"))
	rg.probe = func(rng *rand.Rand) (Key, uint64, bool) {
		c := rng.IntN(q.callers)
		w := q.win[c]
		k := q.key(c, w.tail+rng.Uint64N(w.head-w.tail))
		return k, uint64(k), true
	}
	rg.verify = func() (uint64, uint64, string, error) {
		checks, failed, first := treeChecks(t)
		// Every stored pair lies in its owner's window and the count
		// matches the windows: nothing lost, nothing left behind.
		var want, got uint64
		for _, w := range q.win {
			want += w.head - w.tail
		}
		for k, v := range t.All() {
			got++
			checks++
			if !q.holds(k) || !sameKey(v, uint64(k)) {
				failed++
				first = cmpFirst(first, fmt.Sprintf("stored key %d outside its owner's window", k))
			}
		}
		checks++
		if got != want {
			failed++
			first = cmpFirst(first, fmt.Sprintf("tree holds %d pairs, windows hold %d", got, want))
		}
		return checks, failed, first, nil
	}
	return rg, nil
}

// ---------------------------------------------------------------------
// In-process tree plumbing.

func openTree(load func() (Key, Value, bool)) (*blinktree.Tree, error) {
	t, err := blinktree.Open(blinktree.Options{})
	if err != nil {
		return nil, err
	}
	if err := t.BulkLoad(load, 0); err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

func treeRig(t *blinktree.Tree, steps []step) *rig {
	return &rig{
		steps:  steps,
		search: t.Search,
		stats:  t.Stats,
		// blinktree.Tree exposes the queue depth only through Stats,
		// which walks the tree; the sampler tolerates a failed walk.
		queue: func() int {
			s, err := t.Stats()
			if err != nil {
				return 0
			}
			return s.QueueDepth
		},
		pairs: t.Len,
		close: t.Close,
	}
}

// Lock bounds from the paper: an update holds at most one lock at a
// time, compression at most three.
const (
	updateLockBound   = 1
	compressLockBound = 3
)

// updateMax is the largest lock-footprint high-water of any insert,
// delete or conditional write.
func updateMax(s shard.Stats) uint64 {
	return max(s.Tree.InsertLocks.MaxHeld, s.Tree.DeleteLocks.MaxHeld, s.Tree.CondLocks.MaxHeld)
}

// settle waits until background compression is idle: the queue is
// empty and no merge, redistribution or root collapse completes across
// an interval. Check needs a quiesced tree.
func settle(stats func() (shard.Stats, error)) error {
	var prev *shard.Stats
	for range 1000 {
		// A walk racing a merge may fail; a later one will not.
		if s, err := stats(); err == nil {
			if prev != nil && s.QueueDepth == 0 && prev.QueueDepth == 0 &&
				s.Merges == prev.Merges && s.Redist == prev.Redist && s.Collapses == prev.Collapses {
				return nil
			}
			prev = &s
		}
		time.Sleep(20 * time.Millisecond)
	}
	return errors.New("background compression did not go idle within 20 s")
}

// lockChecks checks the structural invariants and the lock bounds.
func lockChecks(check func() error, stats func() (shard.Stats, error)) (checks, failed uint64, first string) {
	if err := settle(stats); err != nil {
		return 1, 1, err.Error()
	}
	if err := check(); err != nil {
		failed++
		first = "Check: " + err.Error()
	}
	s, err := stats()
	switch {
	case err != nil:
		failed++
		first = cmpFirst(first, "Stats: "+err.Error())
	case updateMax(s) > updateLockBound:
		failed++
		first = cmpFirst(first, fmt.Sprintf("an update held %d locks at once (bound %d)", updateMax(s), updateLockBound))
	case s.CompressorMaxLocks > compressLockBound:
		failed++
		first = cmpFirst(first, fmt.Sprintf("compression held %d locks at once (bound %d)", s.CompressorMaxLocks, compressLockBound))
	}
	return 3, failed, first
}

func treeChecks(t *blinktree.Tree) (checks, failed uint64, first string) {
	return lockChecks(t.Check, t.Stats)
}

func cmpFirst(first, msg string) string {
	if first != "" {
		return first
	}
	return msg
}

// ---------------------------------------------------------------------
// net-serial and net-write: caller-owned keys over the network.

type netConfig struct {
	conns   int
	durable bool
}

// owned spreads n population indexes over the full key range (the
// sharded router partitions by key range) and gives caller c the
// indexes ≡ c mod callers. Each caller therefore knows the exact
// state of its keys: the oracle is exact for every answer.
type owned struct {
	n, callers int
	stride     uint64
	seed       int64
	cfg        netConfig
	val        []Value
	present    []bool
	gens       []*workload.Generator // per caller, carried across rounds
}

func newOwned(seed int64, n, callers int, mix workload.Mix, cfg netConfig) *owned {
	o := &owned{n: n, callers: callers, stride: ^uint64(0)/uint64(n) + 1, seed: seed, cfg: cfg,
		val: make([]Value, n), present: make([]bool, n)}
	for c := range callers {
		// Caller c's operation stream: the mix over its own indexes.
		mine := uint64((n - c + callers - 1) / callers)
		g, err := workload.NewGenerator(seed*1024+int64(c), workload.Uniform{N: mine}, mix)
		if err != nil {
			panic(err) // the mixes above are valid
		}
		o.gens = append(o.gens, g)
	}
	o.reset()
	return o
}

// reset returns the oracle to the loaded content: every key present
// with the loader's value.
func (o *owned) reset() {
	for i := range o.val {
		o.val[i], o.present[i] = enc(uint64(i), 0, 0), true
	}
}

func (o *owned) key(idx uint64) Key { return Key(idx * o.stride) }

func (o *owned) load() func() (Key, Value, bool) {
	i := 0
	return func() (Key, Value, bool) {
		if i == o.n {
			return 0, 0, false
		}
		i++
		return o.key(uint64(i - 1)), o.val[i-1], true
	}
}

// steps checks every answer exactly against the caller's own oracle:
// Search returns the last acknowledged value or ErrNotFound, Upsert
// returns the previous value, Delete fails only on an absent key.
func (o *owned) steps(ix pointIndex, layer string) []step {
	names := layerNames(layer)
	steps := make([]step, o.callers)
	for c := range steps {
		g := o.gens[c]
		var seq uint64
		steps[c] = func(cl *caller) {
			s := cl.begin()
			op := g.Next()
			idx := uint64(op.Key)*uint64(o.callers) + uint64(c)
			k := o.key(idx)
			switch op.Kind {
			case workload.OpSearch:
				t0 := cl.now()
				v, err := ix.Search(k)
				cl.done(kSearch, t0, names)
				if o.present[idx] {
					cl.check(err == nil && v == o.val[idx], "search", k, err)
				} else {
					cl.check(isNotFound(err), "search of a deleted key", k, err)
				}
				cl.finish(s, kSearch)
			case workload.OpUpsert:
				seq++
				nv := enc(idx, c+1, seq)
				t0 := cl.now()
				old, existed, err := ix.Upsert(k, nv)
				cl.done(kUpsert, t0, names)
				cl.check(err == nil && existed == o.present[idx] && (!existed || old == o.val[idx]), "upsert", k, err)
				if err == nil {
					o.val[idx], o.present[idx] = nv, true
				}
				cl.finish(s, kUpsert)
			case workload.OpDelete:
				t0 := cl.now()
				err := ix.Delete(k)
				cl.done(kDelete, t0, names)
				if o.present[idx] {
					cl.check(err == nil, "delete", k, err)
				} else {
					cl.check(isNotFound(err), "delete of a deleted key", k, err)
				}
				if err == nil {
					o.present[idx] = false
				}
				cl.finish(s, kDelete)
			default:
				panic("unexpected op kind " + op.Kind.String())
			}
		}
	}
	return steps
}

// verifyContent checks ix against the oracle key by key, then scans it
// for phantoms: pairs the oracle does not hold.
func (o *owned) verifyContent(ix pointIndex, all iter.Seq2[Key, Value]) (checks, failed uint64, first string) {
	for i := range o.n {
		k := o.key(uint64(i))
		v, err := ix.Search(k)
		checks++
		if o.present[i] && (err != nil || v != o.val[i]) || !o.present[i] && !isNotFound(err) {
			failed++
			first = cmpFirst(first, fmt.Sprintf("key %d: got %d err=%v, acknowledged %d present=%v", k, v, err, o.val[i], o.present[i]))
		}
	}
	for k, v := range all {
		checks++
		idx := uint64(k) / o.stride
		if uint64(k)%o.stride != 0 || idx >= uint64(o.n) || !o.present[idx] || o.val[idx] != v {
			failed++
			first = cmpFirst(first, fmt.Sprintf("phantom pair %d=%d", k, v))
		}
	}
	return checks, failed, first
}

// netRig is the network stack of a net workload: a router served by
// the server on loopback, and one client.
type netRig struct {
	router *shard.Router
	srv    *server.Server
	cl     *client.Client
	opts   shard.Options
}

// netShards and the zero server.Config fields are blinkserver's
// defaults: 8 shards, k=16, one compressor, a 200 µs coalesce window.
const netShards = 8

func openNet(cfg netConfig, dir string, load func() (Key, Value, bool)) (*netRig, error) {
	opts := shard.Options{MinPairs: 16, CompressorWorkers: 1}
	if cfg.durable {
		opts.Durable, opts.Dir, opts.WALNoSync = true, dir, true
	}
	r, err := shard.NewRouter(netShards, opts)
	if err != nil {
		return nil, err
	}
	if err := r.BulkLoad(load, 0); err != nil {
		r.Close()
		return nil, err
	}
	srv := server.New(r, server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		r.Close()
		return nil, err
	}
	cl, err := client.Dial(srv.Addr().String(), client.Options{Conns: cfg.conns})
	if err != nil {
		srv.Close()
		r.Close()
		return nil, err
	}
	return &netRig{router: r, srv: srv, cl: cl, opts: opts}, nil
}

// stop closes the client and drains the server; the router stays open.
func (n *netRig) stop() error {
	cerr := n.cl.Close()
	if err := n.srv.Close(); err != nil {
		return err
	}
	return cerr
}

func (o *owned) setup(out string) (*rig, error) {
	o.reset()
	dir := ""
	if o.cfg.durable {
		var err error
		if dir, err = os.MkdirTemp(out, "net-write-"); err != nil {
			return nil, err
		}
	}
	n, err := openNet(o.cfg, dir, o.load())
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	r := n.router
	stopped := false
	rg := &rig{
		steps:  o.steps(remote{n.cl}, "client.Client"),
		search: r.Search,
		stats:  r.Stats,
		queue: func() int {
			d := 0
			for _, s := range r.ShardStats() {
				d += s.QueueDepth
			}
			return d
		},
		pairs: r.Len,
		net:   n,
		probe: func(rng *rand.Rand) (Key, uint64, bool) {
			idx := rng.Uint64N(uint64(o.n))
			return o.key(idx), idx, o.present[idx]
		},
	}
	rg.verify = func() (uint64, uint64, string, error) {
		if err := n.stop(); err != nil {
			return 0, 0, "", err
		}
		stopped = true
		checks, failed, first := lockChecks(r.Check, r.Stats)
		if !o.cfg.durable {
			c2, f2, first2 := o.verifyContent(r, r.All())
			return checks + c2, failed + f2, cmpFirst(first, first2), nil
		}
		// Crash the logs with a torn tail, recover from the directory,
		// and require every acknowledged write and nothing else.
		r.CrashWAL(rand.New(rand.NewPCG(uint64(o.seed), 0)).IntN(64))
		err := r.Close()
		r = nil
		if err != nil {
			return 0, 0, "", fmt.Errorf("close after crash: %w", err)
		}
		if r, err = shard.NewRouter(netShards, n.opts); err != nil {
			return 0, 0, "", fmt.Errorf("reopen after crash: %w", err)
		}
		c2, f2, first2 := o.verifyContent(r, r.All())
		return checks + c2, failed + f2, cmpFirst(first, first2), nil
	}
	rg.close = func() error {
		var err error
		if !stopped {
			err = n.stop()
		}
		if r != nil {
			if cerr := r.Close(); err == nil {
				err = cerr
			}
		}
		if dir != "" {
			if rerr := os.RemoveAll(dir); err == nil {
				err = rerr
			}
		}
		return err
	}
	return rg, nil
}

// remote adapts the context-taking client to pointIndex.
type remote struct{ c *client.Client }

func (r remote) Search(k Key) (Value, error) { return r.c.Search(context.Background(), k) }
func (r remote) Upsert(k Key, v Value) (Value, bool, error) {
	return r.c.Upsert(context.Background(), k, v)
}
func (r remote) Delete(k Key) error { return r.c.Delete(context.Background(), k) }
