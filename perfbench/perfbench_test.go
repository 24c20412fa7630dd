package main

import (
	"fmt"
	"iter"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"time"

	"blinktree"
	"blinktree/internal/metrics"
	"blinktree/internal/workload"
)

// A sample spread over many octaves, like real latencies.
func sample(n int) []time.Duration {
	rng := rand.New(rand.NewPCG(1, 2))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(math.Exp(rng.NormFloat64()*2 + 9))
	}
	return out
}

func TestHistQuantilesMatchSortedSample(t *testing.T) {
	xs := sample(100_000)
	var h hist
	for _, x := range xs {
		h.add(x)
	}
	slices.Sort(xs)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		want := float64(xs[int(math.Ceil(q*float64(len(xs))))-1]) / 1e3
		got := h.quantile(q)
		// A bucket is at most 1/32 of its lower bound wide.
		if math.Abs(got-want) > want/32+1e-3 {
			t.Errorf("q=%v: got %.4f us, sorted sample says %.4f us", q, got, want)
		}
	}
}

func TestProgramHistogramCountsRecovered(t *testing.T) {
	xs := sample(20_000)
	var h metrics.Histogram
	var want [64]uint64
	for _, x := range xs {
		h.Observe(x)
		want[min(bits.Len64(uint64(x)), 30)]++
	}
	got := readProgHist(&h)
	if got.n != uint64(len(xs)) || got.b != want {
		t.Fatalf("recovered bucket counts differ:\n got %v\nwant %v", got.b, want)
	}
	slices.Sort(xs)
	for _, q := range []float64{0.5, 0.99} {
		v := float64(xs[int(math.Ceil(q*float64(len(xs))))-1]) / 1e3
		if p := got.quantile(q); p < v/2 || p > v*2 {
			t.Errorf("q=%v: %.3f us is outside the power-of-two bucket of %.3f us", q, p, v)
		}
	}
}

// fake is an in-memory index that logs every call and can plant a
// wrong answer.
type fake struct {
	m     map[Key]Value
	log   []string
	wrong Key // Search of this key answers a corrupted value
	plant bool
}

func newFake(load func() (Key, Value, bool)) *fake {
	f := &fake{m: map[Key]Value{}}
	for k, v, ok := load(); ok; k, v, ok = load() {
		f.m[k] = v
	}
	return f
}

func (f *fake) Search(k Key) (Value, error) {
	f.log = append(f.log, fmt.Sprint("search ", k))
	v, ok := f.m[k]
	if !ok {
		return 0, blinktree.ErrNotFound
	}
	if f.plant && k == f.wrong {
		v ^= 1 << 30
	}
	return v, nil
}

func (f *fake) Upsert(k Key, v Value) (Value, bool, error) {
	f.log = append(f.log, fmt.Sprint("upsert ", k, v))
	old, ok := f.m[k]
	f.m[k] = v
	return old, ok, nil
}

func (f *fake) Insert(k Key, v Value) error {
	f.log = append(f.log, fmt.Sprint("insert ", k, v))
	if _, ok := f.m[k]; ok {
		return blinktree.ErrDuplicate
	}
	f.m[k] = v
	return nil
}

func (f *fake) Delete(k Key) error {
	f.log = append(f.log, fmt.Sprint("delete ", k))
	if _, ok := f.m[k]; !ok {
		return blinktree.ErrNotFound
	}
	delete(f.m, k)
	return nil
}

func (f *fake) Ascend(lo, hi Key) iter.Seq2[Key, Value] {
	f.log = append(f.log, fmt.Sprint("ascend ", lo, hi))
	var keys []Key
	for k := range f.m {
		if lo <= k && k <= hi {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return func(yield func(Key, Value) bool) {
		for _, k := range keys {
			if !yield(k, f.m[k]) {
				return
			}
		}
	}
}

// drive runs n operations per caller, round robin, on one goroutine.
func drive(steps []step, seed int64, n int) *tally {
	callers := make([]*caller, len(steps))
	for i := range callers {
		callers[i] = newCaller(i, seed, time.Now())
	}
	for range n {
		for i, c := range callers {
			steps[i](c)
		}
	}
	return sum(callers)
}

// Each workload's steps, bound to a fresh fake loaded with the
// workload's initial content.
var fakeWorkloads = map[string]func(seed int64) (*fake, []step){
	"tree-read": func(int64) (*fake, []step) {
		w := &readMostly{n: 1000, callers: 2}
		f := newFake(w.load())
		return f, w.steps(f, "fake")
	},
	"tree-churn": func(int64) (*fake, []step) {
		q := newQueue(2, 500)
		f := newFake(q.load())
		return f, q.steps(f, "fake")
	},
	"net-serial": func(seed int64) (*fake, []step) {
		o := newOwned(seed, 1000, 1, serialMix, netConfig{})
		f := newFake(o.load())
		return f, o.steps(f, "fake")
	},
	"net-write": func(seed int64) (*fake, []step) {
		o := newOwned(seed, 1000, 8, workload.UpsertHeavy, netConfig{})
		f := newFake(o.load())
		return f, o.steps(f, "fake")
	},
}

func TestCorrectIndexPassesEveryCheck(t *testing.T) {
	for name, mk := range fakeWorkloads {
		_, steps := mk(1)
		if tl := drive(steps, 1, 5000); tl.failed != 0 {
			t.Errorf("%s: %d of %d checks failed on a correct index: %s", name, tl.failed, tl.ops, tl.first)
		}
	}
}

func TestPlantedWrongAnswerIsCounted(t *testing.T) {
	for name, mk := range fakeWorkloads {
		f, steps := mk(1)
		// Corrupt the answer for the key the first Search asks for.
		drive(steps, 1, 200)
		var k Key
		for _, l := range f.log {
			if _, err := fmt.Sscanf(l, "search %d", &k); err == nil {
				break
			}
		}
		f2, steps2 := mk(1)
		f2.wrong, f2.plant = k, true
		tl := drive(steps2, 1, 200)
		if tl.failed == 0 || ratio(float64(tl.failed), float64(tl.ops)) <= 0 {
			t.Errorf("%s: a wrong answer for key %d went unnoticed", name, k)
		}
	}
}

func TestSameSeedSameOpStream(t *testing.T) {
	for name, mk := range fakeWorkloads {
		a, sa := mk(7)
		b, sb := mk(7)
		c, sc := mk(8)
		drive(sa, 7, 2000)
		drive(sb, 7, 2000)
		drive(sc, 8, 2000)
		if !slices.Equal(a.log, b.log) {
			t.Errorf("%s: seed 7 gave two different op streams", name)
		}
		if slices.Equal(a.log, c.log) {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", name)
		}
	}
}

func TestQueueOwnIn(t *testing.T) {
	q := newQueue(2, 10)
	q.win[1].tail, q.win[1].head = 3, 8 // caller 1 holds keys 7, 9, ..., 15
	for lo := Key(0); lo < 20; lo++ {
		for hi := lo; hi < 20; hi++ {
			var want uint64
			for k := lo; k <= hi; k++ {
				if q.owner(k) == 1 && q.holds(k) {
					want++
				}
			}
			if got := q.ownIn(1, lo, hi); got != want {
				t.Fatalf("ownIn(1, %d, %d) = %d, want %d", lo, hi, got, want)
			}
		}
	}
}
