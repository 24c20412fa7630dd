package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"blinktree"
)

type (
	Key   = blinktree.Key
	Value = blinktree.Value
)

// Values encode the key's population index, the writer and the
// writer's sequence number, so every read can be checked on its own:
// idx<<24 | seq<<8 | writer. Writer 0 is the loader; callers are 1..n.
func enc(idx uint64, writer int, seq uint64) Value {
	return Value(idx<<24 | (seq&0xffff)<<8 | uint64(writer))
}

func writerOf(v Value) int { return int(v & 0xff) }

// sameKey reports whether v was written for the key with index idx.
func sameKey(v Value, idx uint64) bool { return uint64(v)>>24 == idx }

// opKind classes the operations a workload issues; Search and Ascend
// are reads, the rest writes.
type opKind uint8

const (
	kSearch opKind = iota
	kAscend
	kInsert
	kUpsert
	kDelete
	numKinds
)

var kindNames = [numKinds]string{"Search", "Ascend", "Insert", "Upsert", "Delete"}

func (k opKind) read() bool { return k <= kAscend }

// step runs one operation for a caller: it picks the operation from
// the caller's own random stream, issues it, waits for the answer,
// checks it and records the latency.
type step func(c *caller)

// caller is one closed-loop client: it sends its next operation only
// after the previous one has been answered.
type caller struct {
	id    int
	rng   *rand.Rand
	epoch time.Time
	tally

	tr      *spans // nil when untraced
	sampled bool
	child   int32 // index of the sampled op's layer span, -1 if none
}

func newCaller(id int, seed int64, epoch time.Time) *caller {
	return &caller{id: id, rng: rand.New(rand.NewPCG(uint64(seed), uint64(id))), epoch: epoch}
}

func (c *caller) now() int64 { return int64(time.Since(c.epoch)) }

// begin opens an operation; it returns the op span's start when this
// op is sampled for tracing.
func (c *caller) begin() int64 {
	c.sampled = c.tr != nil && c.tr.sample()
	c.child = -1
	if c.sampled {
		return c.now()
	}
	return 0
}

// done records the latency of the layer call that started at t0 and,
// for a sampled op, its span.
func (c *caller) done(k opKind, t0 int64, layer *[numKinds]string) {
	t1 := c.now()
	if k.read() {
		c.read.add(time.Duration(t1 - t0))
	} else {
		c.write.add(time.Duration(t1 - t0))
	}
	if c.sampled {
		c.child = c.tr.add(layer[k], t0, t1, c.opID())
	}
}

// finish closes an operation opened at s.
func (c *caller) finish(s int64, k opKind) {
	if c.sampled {
		c.tr.addParent(opNames[k], s, c.now(), c.opID(), c.child)
	}
	c.ops++
}

func (c *caller) opID() uint64 { return uint64(c.id)<<40 | c.ops }

// check counts a wrong answer or error.
func (c *caller) check(ok bool, what string, k Key, err error) {
	if ok {
		return
	}
	c.failed++
	if c.first == "" {
		c.first = fmt.Sprintf("caller %d: %s %d: err=%v", c.id, what, k, err)
	}
}

var opNames = func() (n [numKinds]string) {
	for i, s := range kindNames {
		n[i] = "op." + s
	}
	return n
}()

// layerNames returns the span names of a layer's public functions.
func layerNames(layer string) *[numKinds]string {
	var n [numKinds]string
	for i, s := range kindNames {
		n[i] = layer + "." + s
	}
	return &n
}

// window runs each caller's step in its own goroutine, closed loop,
// for d, and returns the time from start until every caller stopped.
func window(callers []*caller, steps []step, d time.Duration) time.Duration {
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				steps[i](c)
			}
		}()
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	return time.Since(start)
}

// tally is what a caller counts: operations, failures (and the first
// one's description) and latencies.
type tally struct {
	ops, failed uint64
	first       string
	read, write hist
}

func sum(callers []*caller) *tally {
	t := &tally{}
	for _, c := range callers {
		t.add(&c.tally)
	}
	return t
}

func (t *tally) add(o *tally) {
	t.ops += o.ops
	t.failed += o.failed
	t.first = cmpFirst(t.first, o.first)
	t.read.merge(&o.read)
	t.write.merge(&o.write)
}

// resetCallers resets the callers' counts between windows; their random
// streams and the workload state carry on.
func resetCallers(callers []*caller) {
	for _, c := range callers {
		c.tally = tally{}
	}
}
