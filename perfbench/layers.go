package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"blinktree/internal/shard"
	"blinktree/internal/wal"
	"blinktree/internal/wire"
)

// snap is every counter the per-layer metrics difference across a
// window. Cumulative high-waters (lock footprints, MaxGroup) cannot be
// differenced; setup takes no locks, so they describe the run.
type snap struct {
	st                  shard.Stats
	net                 *netSnap
	mallocs, allocBytes uint64
	cpu                 time.Duration // user + system, from rusage
	gcCPU, totalCPU     float64       // runtime/metrics estimates, seconds
}

type netSnap struct {
	polls, requests, bytesIn, bytesOut uint64
	pollLat                            progHist
	batches, batchOps                  []uint64 // per shard
	batchLat                           []progHist
}

func takeSnap(rg *rig) (*snap, error) {
	s := &snap{}
	var err error
	if s.st, err = rg.stats(); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	if n := rg.net; n != nil {
		m := &n.srv.Metrics
		ns := &netSnap{
			polls: m.Polls.Load(), requests: m.Requests.Load(),
			bytesIn: m.BytesIn.Load(), bytesOut: m.BytesOut.Load(),
			pollLat: readProgHist(&m.PollLat),
		}
		for i := range n.router.Shards() {
			om := n.router.Metrics(i)
			ns.batches = append(ns.batches, om.Batches.Load())
			ns.batchOps = append(ns.batchOps, om.BatchOps.Load())
			ns.batchLat = append(ns.batchLat, readProgHist(&om.BatchLatency))
		}
		s.net = ns
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.allocBytes = ms.Mallocs, ms.TotalAlloc
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	sm := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(sm)
	s.gcCPU, s.totalCPU = sm[0].Value.Float64(), sm[1].Value.Float64()
	return s, nil
}

// sampleQueue polls the compression queue depth every interval until
// stop is closed, and returns the largest depth seen.
func sampleQueue(depth func() int, every time.Duration, stop <-chan struct{}) func() int {
	var mx int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				mx = max(mx, depth())
			}
		}
	}()
	return func() int { wg.Wait(); return mx }
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// treeLayers derives the blink, locks, compress, reclaim, node, wal and
// go metrics from the counter deltas of a window of ops operations.
// Rates are per 1000 (kop) or per 10^6 (mop) benchmark operations.
func treeLayers(m map[string]float64, a, b *snap, ops uint64) {
	kop, mop := float64(ops)/1e3, float64(ops)/1e6
	ta, tb := a.st.Tree, b.st.Tree
	m["blink.link_hops_per_kop"] = ratio(float64(tb.LinkHops-ta.LinkHops), kop)
	m["blink.outlink_hops_per_kop"] = ratio(float64(tb.OutlinkHops-ta.OutlinkHops), kop)
	m["blink.restarts_per_mop"] = ratio(float64(tb.Restarts-ta.Restarts), mop)
	m["blink.backtracks_per_mop"] = ratio(float64(tb.Backtracks-ta.Backtracks), mop)
	m["blink.splits_per_kop"] = ratio(float64(tb.Splits-ta.Splits), kop)
	m["locks.update_max"] = float64(updateMax(b.st))
	m["compress.merges_per_kop"] = ratio(float64(b.st.Merges-a.st.Merges), kop)
	m["compress.redist_per_kop"] = ratio(float64(b.st.Redist-a.st.Redist), kop)
	m["compress.underfull_per_kop"] = ratio(float64(tb.UnderfullEvents-ta.UnderfullEvents), kop)
	m["compress.mean_fill"] = b.st.Occupancy.MeanFill
	m["compress.max_locks"] = float64(b.st.CompressorMaxLocks)
	retired := float64(b.st.Reclaim.Retired - a.st.Reclaim.Retired)
	m["reclaim.retired_per_kop"] = ratio(retired, kop)
	m["reclaim.freed_frac"] = ratio(float64(b.st.Reclaim.Freed-a.st.Reclaim.Freed), retired)
	m["reclaim.limbo_pages"] = float64(b.st.Reclaim.Limbo)
	m["node.pairs_per_leaf"] = ratio(float64(b.st.Occupancy.Pairs), float64(b.st.Occupancy.Leaves))
	wa, wb := a.st.WAL, b.st.WAL
	m["wal.records_per_group"] = ratio(float64(wb.Records-wa.Records), float64(wb.Syncs-wa.Syncs))
	m["wal.bytes_per_write"] = ratio(float64(wb.Bytes-wa.Bytes), float64(wb.Syncs-wa.Syncs))
	m["go.cpu_us_per_op"] = ratio(float64(b.cpu-a.cpu)/1e3, float64(ops))
	m["go.allocs_per_op"] = ratio(float64(b.mallocs-a.mallocs), float64(ops))
	m["go.alloc_bytes_per_op"] = ratio(float64(b.allocBytes-a.allocBytes), float64(ops))
	m["go.gc_cpu_frac"] = ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU)
}

// netLayers derives the shard, server, client and wire metrics of a
// window of ops operations whose mean caller latency was meanUs.
func netLayers(m map[string]float64, a, b *snap, ops uint64, meanUs float64) {
	na, nb := a.net, b.net
	var batches, batchOps, most float64
	var lat progHist
	for i := range nb.batches {
		d := float64(nb.batchOps[i] - na.batchOps[i])
		batches += float64(nb.batches[i] - na.batches[i])
		batchOps += d
		most = max(most, d)
		lat.merge(subHist(nb.batchLat[i], na.batchLat[i]))
	}
	m["shard.ops_per_batch"] = ratio(batchOps, batches)
	m["shard.batch_p50_us"] = lat.quantile(0.50)
	m["shard.batch_p99_us"] = lat.quantile(0.99)
	m["shard.imbalance"] = ratio(most, batchOps/float64(len(nb.batches)))
	m["server.requests_per_poll"] = ratio(float64(nb.requests-na.requests), float64(nb.polls-na.polls))
	poll := subHist(nb.pollLat, na.pollLat)
	m["server.poll_p50_us"] = poll.quantile(0.50)
	m["server.poll_p99_us"] = poll.quantile(0.99)
	m["client.residual_us"] = meanUs - poll.mean()
	m["wire.bytes_per_op"] = ratio(float64(nb.bytesIn-na.bytesIn+nb.bytesOut-na.bytesOut), float64(ops))
}

// walProbe times Append+Wait of single put records on a standalone
// log with net-write's options (no fsync, default segments) for d, in a
// fresh directory under out.
func walProbe(out string, d time.Duration) (*hist, error) {
	dir, err := os.MkdirTemp(out, "wal-probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	l, err := wal.Open(dir, wal.Options{NoSync: true}, 0, func(wal.Record) error { return nil })
	if err != nil {
		return nil, err
	}
	h := &hist{}
	for i, end := 0, time.Now().Add(d); time.Now().Before(end); i++ {
		t0 := time.Now()
		if err := l.Append(wal.Record{Kind: wal.KindPut, Key: Key(i), Value: Value(i)}).Wait(); err != nil {
			l.Close()
			return nil, err
		}
		h.add(time.Since(t0))
	}
	return h, l.Close()
}

// frameShare is one request kind's share of a workload's wire traffic
// and the payload sizes of its request and response.
type frameShare struct {
	op        uint8
	req, resp int
	percent   int
}

// wireProbe times wire.AppendFrame and wire.ReadFrame over a stream of
// request and response frames drawn from mix, d each, and returns ns
// per frame.
func wireProbe(mix []frameShare, rng *rand.Rand, d time.Duration) (encNs, decNs float64, err error) {
	const frames = 4096
	seq := make([]frameShare, frames)
	for i := range seq {
		p := rng.IntN(100)
		for _, f := range mix {
			if p < f.percent {
				seq[i] = f
				break
			}
			p -= f.percent
		}
	}
	payload := make([]byte, wire.MaxScanLimit*16+5)
	var buf []byte
	n := 0
	start := time.Now()
	for time.Since(start) < d {
		buf = buf[:0]
		for i, f := range seq {
			if buf, err = wire.AppendFrame(buf, uint64(i), f.op, payload[:f.req]); err != nil {
				return 0, 0, err
			}
			if buf, err = wire.AppendFrame(buf, uint64(i), wire.StatusOK, payload[:f.resp]); err != nil {
				return 0, 0, err
			}
		}
		n += 2 * frames
	}
	encNs = float64(time.Since(start).Nanoseconds()) / float64(n)

	rd := bytes.NewReader(buf)
	br := bufio.NewReaderSize(rd, 64<<10)
	n = 0
	start = time.Now()
	for time.Since(start) < d {
		rd.Reset(buf)
		br.Reset(rd)
		for {
			_, _, _, err := wire.ReadFrame(br, payload)
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, 0, err
			}
			n++
		}
	}
	decNs = float64(time.Since(start).Nanoseconds()) / float64(n)
	return encNs, decNs, nil
}
