// Command perfbench is the repository benchmark: four closed-loop
// workloads driven from one process through the public functions of
// each layer (blinktree.Tree, client.Client, internal/server,
// internal/shard, internal/wal, internal/wire), with every answer
// checked. README.md says what each workload and metric is for.
//
//	perfbench --workload tree-read --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the traced measurement and reports the per-layer metrics. The
// last line of standard output is the JSON result; the lines before
// it, each starting with "#", are the human-readable report. The exit
// status is 1 when any check failed and 2 when the run could not be
// made at all.
package main

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// An untraced run sets its workload up at least minSetups times, and
// more while they add up to less than setupBudget; setup_s is the
// median.
const (
	minSetups   = 5
	maxSetups   = 40
	setupBudget = time.Second
)

type config struct {
	name    string
	seed    int64
	seconds float64
	trace   bool
	out     string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.name, "workload", "", "workload: tree-read, tree-churn, net-serial or net-write")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1 runs the traced measurement and reports per-layer metrics")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for the durable workload's files and the span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace == 1
	w, ok := workloads[cfg.name]
	if !ok || cfg.seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(names(), ", "))
		return 2
	}
	// Pin GOMAXPROCS to the CPUs this process may use, or to the
	// workload's own setting.
	runtime.GOMAXPROCS(cmp.Or(w.procs, runtime.NumCPU()))
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	rep, err := measure(w, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}

func names() []string { return slices.Sorted(maps.Keys(workloads)) }

// units names every metric the benchmark reports and its unit.
var units = map[string]string{
	// End to end.
	"throughput_ops_s":    "ops/s",
	"read_p50_us":         "us",
	"read_p99_us":         "us",
	"write_p50_us":        "us",
	"write_p99_us":        "us",
	"heap_bytes_per_pair": "B",
	"setup_s":             "s",
	// Per layer.
	"blink.search_speedup":       "x",
	"blink.link_hops_per_kop":    "1/kop",
	"blink.outlink_hops_per_kop": "1/kop",
	"blink.restarts_per_mop":     "1/mop",
	"blink.backtracks_per_mop":   "1/mop",
	"blink.splits_per_kop":       "1/kop",
	"locks.update_max":           "count",
	"compress.merges_per_kop":    "1/kop",
	"compress.redist_per_kop":    "1/kop",
	"compress.underfull_per_kop": "1/kop",
	"compress.queue_depth_max":   "count",
	"compress.mean_fill":         "frac",
	"compress.max_locks":         "count",
	"reclaim.retired_per_kop":    "1/kop",
	"reclaim.freed_frac":         "frac",
	"reclaim.limbo_pages":        "count",
	"node.pairs_per_leaf":        "count",
	"shard.ops_per_batch":        "count",
	"shard.batch_p50_us":         "us",
	"shard.batch_p99_us":         "us",
	"shard.imbalance":            "x",
	"wal.records_per_group":      "count",
	"wal.commit_p50_us":          "us",
	"wal.bytes_per_write":        "B",
	"server.requests_per_poll":   "count",
	"server.poll_p50_us":         "us",
	"server.poll_p99_us":         "us",
	"client.ping_p50_us":         "us",
	"client.ping_p99_us":         "us",
	"client.residual_us":         "us",
	"wire.encode_ns":             "ns",
	"wire.decode_ns":             "ns",
	"wire.bytes_per_op":          "B/op",
	"go.cpu_us_per_op":           "us/op",
	"go.allocs_per_op":           "1/op",
	"go.alloc_bytes_per_op":      "B/op",
	"go.gc_cpu_frac":             "frac",
	"trace.overhead_frac":        "frac",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's result.
type report struct {
	attempted, failed uint64
	first             string
	metrics           map[string]metric
	notes             []string
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) set(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("unknown metric " + name)
	}
	r.metrics[name] = metric{v, u}
}

// count adds a window's operations to the attempted and failed totals.
func (r *report) count(t *tally) {
	r.attempted += t.ops
	r.failed += t.failed
	r.first = cmpFirst(r.first, t.first)
}

// latency reports a median and the 99th percentile, with the sample
// count and how many samples lie beyond the percentile.
func (r *report) latency(prefix string, h *hist) {
	r.set(prefix+"_p50_us", h.quantile(0.50))
	r.set(prefix+"_p99_us", h.quantile(0.99))
	r.note("%s latency: p50 %.3f us, p99 %.3f us over n=%d samples (%d beyond p99)",
		prefix, h.quantile(0.50), h.quantile(0.99), h.n, beyond(h.n, 0.99))
}

func (r *report) print(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, n := range r.notes {
		fmt.Fprintf(bw, "# %s\n", n)
	}
	for _, k := range slices.Sorted(maps.Keys(r.metrics)) {
		fmt.Fprintf(bw, "# %-28s %14.6g %s\n", k, r.metrics[k].Value, r.metrics[k].Unit)
	}
	fmt.Fprintf(bw, "# failed_frac %.6g (%d failed of %d attempted)\n", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	if r.first != "" {
		fmt.Fprintf(bw, "# first failure: %s\n", r.first)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	bw.Write(out)
	bw.WriteByte('\n')
	return bw.Flush()
}

// environment describes the machine class, so runs from different
// classes are never silently compared.
func environment(cfg config, flush string) string {
	return fmt.Sprintf("env nproc=%d gomaxprocs=%d cpu=%q go=%s os/arch=%s/%s seed=%d flush=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH, cfg.seed, flush)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// measure runs one workload. An untraced run measures rounds rounds;
// each sets the workload up afresh, warms it up, measures
// slicesPerRound slices of the timed window and runs the end-of-run
// checks. Throughput is the median over the slices; the latency
// percentiles pool the samples of every slice. A traced run makes one
// round with the traced measurement in place of the slices.
func measure(w workloadDef, cfg config) (*report, error) {
	r := &bench{w: w, cfg: cfg, rep: &report{metrics: map[string]metric{}},
		d: time.Duration(cfg.seconds * float64(time.Second))}
	r.rep.note("perfbench workload=%s seconds=%g trace=%v callers=%d", cfg.name, cfg.seconds, cfg.trace, w.callers)
	r.rep.note("%s", environment(cfg, w.flush))
	r.st = w.newState(cfg.seed)
	r.epoch = time.Now()
	r.callers = make([]*caller, w.callers)
	for i := range r.callers {
		r.callers[i] = newCaller(i, cfg.seed, r.epoch)
	}
	// The heap baseline holds the benchmark's own oracle and
	// histograms, so heap_bytes_per_pair counts only the system under
	// test.
	r.baseHeap = liveHeap()
	n := rounds
	if cfg.trace {
		n = 1
	}
	for i := range n {
		if err := r.round(i, i == n-1); err != nil {
			return nil, err
		}
	}
	if !cfg.trace {
		r.report()
	}
	runtime.KeepAlive(r.st)
	return r.rep, nil
}

// A fresh set-up re-rolls where the index lands in memory, and that
// alone moves tree-read's throughput by up to 15% from one build to the
// next; a median over slices from several builds does not depend on
// one layout's luck.
const (
	rounds         = 5
	slicesPerRound = 4
)

// bench is one invocation's state across its rounds.
type bench struct {
	w        workloadDef
	cfg      config
	rep      *report
	st       state
	callers  []*caller
	epoch    time.Time
	d        time.Duration
	baseHeap float64

	setups []float64 // seconds
	tput   []float64 // per slice
	all    tally
}

func (r *bench) round(i int, last bool) (err error) {
	rg, err := r.setUp(i == 0 && !r.cfg.trace)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := rg.close(); cerr != nil && err == nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}()
	window(r.callers, rg.steps, r.d/40) // warm-up
	r.rep.count(sum(r.callers))
	resetCallers(r.callers)

	if r.cfg.trace {
		if err := traced(r.rep, r.w, r.cfg, rg, r.callers, r.d, r.epoch); err != nil {
			return err
		}
	} else {
		for range slicesPerRound {
			r.slice(rg)
		}
		if last {
			pairs := rg.pairs()
			heap := liveHeap() - r.baseHeap
			r.rep.set("heap_bytes_per_pair", heap/float64(pairs))
			r.rep.note("heap: %.0f live bytes over %d live pairs after the last round", heap, pairs)
		}
	}
	checks, failed, first, err := rg.verify()
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	r.rep.attempted += checks
	r.rep.failed += failed
	r.rep.first = cmpFirst(r.rep.first, first)
	r.rep.note("round %d end-of-run checks: %d run, %d failed", i, checks, failed)
	return nil
}

// setUp builds the round's system under test. With repeat, it builds
// it at least minSetups times, and more while they add up to less than
// setupBudget, keeping the last.
func (r *bench) setUp(repeat bool) (*rig, error) {
	var rg *rig
	var spent time.Duration
	for n := 1; ; n++ {
		t0 := time.Now()
		next, err := r.st.setup(r.cfg.out)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		took := time.Since(t0)
		spent += took
		r.setups = append(r.setups, took.Seconds())
		if rg != nil {
			if err := rg.close(); err != nil {
				next.close()
				return nil, fmt.Errorf("close: %w", err)
			}
		}
		rg = next
		if !repeat || n >= maxSetups || n >= minSetups && spent >= setupBudget {
			return rg, nil
		}
	}
}

// slice measures one slice of the timed window.
func (r *bench) slice(rg *rig) {
	el := window(r.callers, rg.steps, r.d/(rounds*slicesPerRound))
	t := sum(r.callers)
	resetCallers(r.callers)
	r.rep.count(t)
	r.all.add(t)
	r.tput = append(r.tput, float64(t.ops)/el.Seconds())
}

func (r *bench) report() {
	rep := r.rep
	rep.set("throughput_ops_s", median(r.tput))
	rep.latency("read", &r.all.read)
	rep.latency("write", &r.all.write)
	rep.set("setup_s", median(r.setups))
	rep.note("setup: median of %d set-ups", len(r.setups))
	rep.note("timed window: %d slices of %v over %d rounds, %d ops; per-slice throughput %.4g..%.4g ops/s",
		len(r.tput), r.d/(rounds*slicesPerRound), rounds, r.all.ops, slices.Min(r.tput), slices.Max(r.tput))
}

// traced runs the per-layer measurement. Window A (40% of d) is
// untraced and gives the counter-based metrics; window B (30%) records
// spans for a random 1/traceEvery of the operations, and the throughput
// lost between A and B is the tracing overhead. The queue depth is
// sampled across both, so the sampler costs them alike. Then the
// search-scaling probe, the network-layer probe for in-process
// workloads, and the ping, WAL and codec probes.
func traced(rep *report, w workloadDef, cfg config, rg *rig, callers []*caller, d time.Duration, epoch time.Time) error {
	m := map[string]float64{}
	a, err := takeSnap(rg)
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	queueMax := sampleQueue(rg.queue, 200*time.Millisecond, stop)
	elA := window(callers, rg.steps, d*4/10)
	if err := settle(rg.stats); err != nil {
		return err
	}
	b, err := takeSnap(rg)
	if err != nil {
		return err
	}
	tA := sum(callers)
	rep.count(tA)
	resetCallers(callers)
	treeLayers(m, a, b, tA.ops)
	if rg.net != nil {
		netLayers(m, a, b, tA.ops, meanLatency(tA))
	}

	bufs := make([]*spans, len(callers))
	for i, c := range callers {
		bufs[i] = newSpans(cfg.seed, i)
		c.tr = bufs[i]
	}
	elB := window(callers, rg.steps, d*3/10)
	close(stop)
	m["compress.queue_depth_max"] = float64(queueMax())
	for _, c := range callers {
		c.tr = nil
	}
	tB := sum(callers)
	rep.count(tB)
	resetCallers(callers)
	tputA, tputB := float64(tA.ops)/elA.Seconds(), float64(tB.ops)/elB.Seconds()
	m["trace.overhead_frac"] = 1 - tputB/tputA
	rep.note("traced window: %.6g ops/s against %.6g untraced", tputB, tputA)
	tr := analyze(bufs)
	rep.notes = append(rep.notes, tr.lines()...)
	if rg.net != nil {
		rep.note("trace: client call = server poll (mean %.3f us) + transport and gather residual (%.3f us)",
			meanLatency(tA)-m["client.residual_us"], m["client.residual_us"])
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.name, cfg.seed))
	if err := writeSpans(path, bufs); err != nil {
		return err
	}
	rep.note("spans written to %s", path)

	one, two := searchScaling(rep, rg, cfg.seed, d/(10*searchPairs), epoch)
	m["blink.search_speedup"] = ratio(two, one)
	rep.note("search scaling: median %.6g ops/s with 1 caller, %.6g with 2, over %d alternating windows each", one, two, searchPairs)

	if rg.net != nil {
		if err := pingLayer(m, rg.net); err != nil {
			return err
		}
	} else if err := netProbe(rep, m, cfg, d/10, epoch); err != nil {
		return fmt.Errorf("network probe: %w", err)
	}

	wh, err := walProbe(cfg.out, d/20)
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	m["wal.commit_p50_us"] = wh.quantile(0.50)
	rep.note("wal probe: %d Append+Wait, p50 %.3f us", wh.n, wh.quantile(0.50))

	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 7))
	if m["wire.encode_ns"], m["wire.decode_ns"], err = wireProbe(w.frames, rng, d/40); err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	for name, v := range m {
		rep.set(name, v)
	}
	if len(rep.metrics) != len(units)-endToEnd {
		return errors.New("traced run is missing per-layer metrics")
	}
	return nil
}

// netProbe measures the network layers for an in-process workload,
// which runs none: a short net-serial run on a 10k-key router, so the
// network metrics keep a meaning on every workload.
func netProbe(rep *report, m map[string]float64, cfg config, d time.Duration, epoch time.Time) (err error) {
	probe := newOwned(cfg.seed, 10_000, 1, serialMix, netConfig{conns: 1})
	rg, err := probe.setup(cfg.out)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := rg.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	callers := []*caller{newCaller(1000, cfg.seed, epoch)}
	a, err := takeSnap(rg)
	if err != nil {
		return err
	}
	window(callers, rg.steps, d)
	b, err := takeSnap(rg)
	if err != nil {
		return err
	}
	t := sum(callers)
	rep.count(t)
	netLayers(m, a, b, t.ops, meanLatency(t))
	rep.note("network metrics from a net-serial probe: %d ops on a 10k-key router", t.ops)
	if err := pingLayer(m, rg.net); err != nil {
		return err
	}
	checks, failed, first, err := rg.verify()
	if err != nil {
		return err
	}
	rep.attempted += checks
	rep.failed += failed
	rep.first = cmpFirst(rep.first, first)
	return nil
}

// pingLayer times 2000 serial client.Ping round trips.
func pingLayer(m map[string]float64, n *netRig) error {
	h := &hist{}
	for range 2000 {
		t0 := time.Now()
		if err := n.cl.Ping(context.Background()); err != nil {
			return fmt.Errorf("ping: %w", err)
		}
		h.add(time.Since(t0))
	}
	m["client.ping_p50_us"], m["client.ping_p99_us"] = h.quantile(0.50), h.quantile(0.99)
	return nil
}

// endToEnd is the number of end-to-end metrics in units.
const endToEnd = 7

func meanLatency(t *tally) float64 {
	var all hist
	all.merge(&t.read)
	all.merge(&t.write)
	return all.mean()
}

// searchScaling measures in-process Search throughput of live keys
// with one caller and with two, alternating short windows of d so that
// a change in the host's load falls on both, and returns the median of
// each: the blink layer's scaling with callers.
func searchScaling(rep *report, rg *rig, seed int64, d time.Duration, epoch time.Time) (one, two float64) {
	names := layerNames("search")
	callers := make([]*caller, 2)
	steps := make([]step, 2)
	for i := range callers {
		callers[i] = newCaller(100+i, seed, epoch)
		steps[i] = func(c *caller) {
			s := c.begin()
			k, idx, must := rg.probe(c.rng)
			t0 := c.now()
			v, err := rg.search(k)
			c.done(kSearch, t0, names)
			c.check(err == nil && sameKey(v, idx) || !must && isNotFound(err), "search", k, err)
			c.finish(s, kSearch)
		}
	}
	var tput [2][]float64
	for range searchPairs {
		for n := 1; n <= 2; n++ {
			el := window(callers[:n], steps[:n], d)
			t := sum(callers[:n])
			resetCallers(callers[:n])
			rep.count(t)
			tput[n-1] = append(tput[n-1], float64(t.ops)/el.Seconds())
		}
	}
	return median(tput[0]), median(tput[1])
}

// searchPairs is how many one-caller and two-caller windows alternate.
const searchPairs = 5
