package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"strings"
)

// traceEvery is the sampling rate of the traced window: each operation
// gets spans with probability 1/traceEvery. The choice is random, not
// periodic, so it cannot alias with a periodic behaviour of the program
// (the server re-samples its coalescing window every 32nd poll).
const traceEvery = 64

// maxSpans bounds one caller's span buffer; spans past it are counted
// as dropped.
const maxSpans = 1 << 17

// span is one timed call: the benchmark's operation (op.*), or a call
// it made into a layer's public function, whose parent is the op.
type span struct {
	name       string
	start, end int64 // ns since the run's epoch
	parent     int32 // index in the caller's buffer, -1 for an op
	op         uint64
}

// spans is one caller's in-memory span buffer, written out at exit,
// and the random stream that picks the sampled operations.
type spans struct {
	s       []span
	dropped uint64
	rng     *rand.Rand
}

func newSpans(seed int64, caller int) *spans {
	return &spans{rng: rand.New(rand.NewPCG(uint64(seed), 1<<32|uint64(caller)))}
}

func (t *spans) sample() bool { return t.rng.Uint64N(traceEvery) == 0 }

func (t *spans) add(name string, start, end int64, op uint64) int32 {
	if len(t.s) >= maxSpans {
		t.dropped++
		return -1
	}
	t.s = append(t.s, span{name: name, start: start, end: end, parent: -1, op: op})
	return int32(len(t.s) - 1)
}

// addParent records an op span and links the layer span child to it.
func (t *spans) addParent(name string, start, end int64, op uint64, child int32) {
	if i := t.add(name, start, end, op); i >= 0 && child >= 0 {
		t.s[child].parent = i
	}
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	name  string
	n     uint64
	total int64 // ns
	self  int64 // ns, total minus time covered by children
	isOp  bool
}

// traceReport is the traced window's time split: the mean op time,
// and each span name's self time per op. The self times of all spans
// add back to the op time exactly, since every span is either an op
// or a call nested directly inside one.
type traceReport struct {
	ops     uint64
	opMean  float64 // µs per sampled op
	stats   []spanStat
	dropped uint64
}

func analyze(bufs []*spans) traceReport {
	by := map[string]*spanStat{}
	var rep traceReport
	for _, b := range bufs {
		rep.dropped += b.dropped
		childNs := make([]int64, len(b.s))
		for _, s := range b.s {
			if s.parent >= 0 {
				childNs[s.parent] += s.end - s.start
			}
		}
		for i, s := range b.s {
			st := by[s.name]
			if st == nil {
				st = &spanStat{name: s.name, isOp: strings.HasPrefix(s.name, "op.")}
				by[s.name] = st
			}
			d := s.end - s.start
			st.n++
			st.total += d
			st.self += d - childNs[i]
			if st.isOp {
				rep.ops++
				rep.opMean += float64(d)
			}
		}
	}
	if rep.ops > 0 {
		rep.opMean /= float64(rep.ops) * 1e3
	}
	for _, st := range by {
		rep.stats = append(rep.stats, *st)
	}
	sort.Slice(rep.stats, func(i, j int) bool { return rep.stats[i].name < rep.stats[j].name })
	return rep
}

// lines renders the split: per span name, the count, the mean span
// time, and the self time per sampled op. The last line sums the self
// times and shows the residual against the op time.
func (r traceReport) lines() []string {
	out := []string{fmt.Sprintf("trace: ops sampled at random with probability 1/%d, %d ops, %d spans dropped; op time %.3f us", traceEvery, r.ops, r.dropped, r.opMean)}
	var sum float64
	for _, st := range r.stats {
		perOp := 0.0
		if r.ops > 0 {
			perOp = float64(st.self) / float64(r.ops) / 1e3
		}
		sum += perOp
		what := "layer call"
		if st.isOp {
			what = "benchmark self (generate + check)"
		}
		out = append(out, fmt.Sprintf("trace:   %-28s n=%-8d mean %9.3f us  self/op %9.3f us  (%s)",
			st.name, st.n, float64(st.total)/float64(max(st.n, 1))/1e3, perOp, what))
	}
	out = append(out, fmt.Sprintf("trace:   sum of self times %.3f us per op, residual %.3f us", sum, r.opMean-sum))
	return out
}

// write dumps every span as one JSON object per line. Ids are
// caller<<32 | index; a parent of -1 marks an op span.
func writeSpans(path string, bufs []*spans) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type rec struct {
		ID     int64  `json:"id"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int64  `json:"parent"`
		Op     uint64 `json:"op"`
	}
	for c, b := range bufs {
		for i, s := range b.s {
			p := int64(-1)
			if s.parent >= 0 {
				p = int64(c)<<32 | int64(s.parent)
			}
			if err := enc.Encode(rec{int64(c)<<32 | int64(i), s.name, s.start, s.end, p, s.op}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
