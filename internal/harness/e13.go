package harness

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"blinktree/client"
	"blinktree/internal/base"
	"blinktree/internal/server"
	"blinktree/internal/shard"
)

// E13NetPipeline measures what the network front-end costs relative to
// calling the engine in-process, and how pipeline depth buys it back.
// Three configurations upsert the same golden-ratio-scattered keys:
//
//   - inproc/batch: shard.Router.ApplyBatch called directly with
//     batches of d operations — the in-process ceiling.
//   - net/pipelined: d concurrent goroutines issuing point Upserts
//     through one pooled client. The client multiplexes them into
//     pipelined bursts; each server poll executes the frames that
//     have arrived as one ApplyBatch. Depth is concurrency, not an
//     API change — this is the shape a fleet of independent request
//     handlers produces.
//   - net/batch: client.Batch frames of d operations — explicit wire
//     batching, one request per d ops.
//
// The claim under test: at depth ≥ 64 the pipelined network
// configuration lands within 5x of the in-process ApplyBatch ceiling,
// because self-clocked batching amortizes the per-request wire cost
// the same way ApplyBatch amortizes routing and group commit
// amortizes fsync.
func E13NetPipeline(w io.Writer, s Scale) error {
	tbl := &Table{
		Title:   "E13: network vs in-process upsert throughput (ops/s) by pipeline depth",
		Headers: []string{"config", "d=1", "d=16", "d=64", "d=256"},
		Notes: []string{
			"inproc/batch = Router.ApplyBatch of d ops; net/pipelined = d goroutines of",
			"point Upserts through one pooled client (TCP loopback; each poll batches what has arrived, no timer);",
			"net/batch = client.Batch frames of d ops. Same scattered keys everywhere.",
		},
	}
	atbl := &Table{
		Title:   "E13a: whole-process allocations per upsert by pipeline depth",
		Headers: []string{"config", "allocs/op d=64", "B/op d=64", "allocs/op d=256", "B/op d=256"},
		Notes: []string{
			"runtime.MemStats deltas across the timed section divided by ops; net modes",
			"count client and server together (one process). The steady-state codec and",
			"transport contribute zero — what remains is the tree's copy-on-write.",
		},
	}
	depths := []int{1, 16, 64, 256}
	for _, shards := range []int{1, 8} {
		for _, mode := range []string{"inproc/batch", "net/pipelined", "net/batch"} {
			row := []any{fmt.Sprintf("%s s=%d", mode, shards)}
			arow := []any{fmt.Sprintf("%s s=%d", mode, shards)}
			for _, d := range depths {
				ops := s.n(100000)
				if mode == "net/pipelined" && d == 1 {
					ops = s.n(20000) // serial round trips: keep the cell honest but quick
				}
				cell, err := e13Cell(mode, shards, d, ops)
				if err != nil {
					return err
				}
				row = append(row, fmt.Sprintf("%.0f", cell.tput))
				if d >= 64 {
					arow = append(arow, fmt.Sprintf("%.1f", cell.allocsPerOp), fmt.Sprintf("%.0f", cell.bytesPerOp))
				}
			}
			tbl.Add(row...)
			atbl.Add(arow...)
		}
	}
	tbl.Render(w)
	atbl.Render(w)
	return nil
}

// e13Res is one E13 cell: throughput plus the process-wide allocation
// rate over the timed section.
type e13Res struct {
	tput        float64
	allocsPerOp float64
	bytesPerOp  float64
}

// memStart samples the allocation counters at the start of a timed
// section; finish converts the deltas to per-op rates.
func memStart() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func (r *e13Res) finish(m0 runtime.MemStats, ops int, elapsed time.Duration) {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	r.tput = float64(ops) / elapsed.Seconds()
	r.allocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(ops)
	r.bytesPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops)
}

// e13Cell runs one E13 cell and returns upsert throughput plus the
// process-wide allocation rate over the timed section.
func e13Cell(mode string, shards, depth, totalOps int) (e13Res, error) {
	var out e13Res
	r, err := shard.NewRouter(shards, shard.Options{MinPairs: 16})
	if err != nil {
		return out, err
	}
	defer r.Close()
	key := func(i int) uint64 { return uint64(i) * 11400714819323198485 }

	if mode == "inproc/batch" {
		ops := make([]shard.Op, depth)
		var sc shard.BatchScratch
		m0 := memStart()
		start := time.Now()
		done := 0
		for done < totalOps {
			n := min(depth, totalOps-done)
			for j := 0; j < n; j++ {
				ops[j] = shard.Op{Kind: shard.OpUpsert, Key: base.Key(key(done + j)), Value: base.Value(j)}
			}
			for _, res := range r.ApplyBatchInto(ops[:n], &sc) {
				if res.Err != nil {
					return out, res.Err
				}
			}
			done += n
		}
		out.finish(m0, totalOps, time.Since(start))
		return out, nil
	}

	srv := server.New(r, server.Config{Addr: "127.0.0.1:0", Logf: func(string, ...any) {}})
	if err := srv.Start(); err != nil {
		return out, err
	}
	defer srv.Close()
	conns := 2
	if depth < 2 {
		conns = 1
	}
	cl, err := client.Dial(srv.Addr().String(), client.Options{Conns: conns})
	if err != nil {
		return out, err
	}
	defer cl.Close()
	ctx := context.Background()

	switch mode {
	case "net/pipelined":
		per := totalOps / depth
		if per < 1 {
			per = 1
		}
		var wg sync.WaitGroup
		errCh := make(chan error, depth)
		m0 := memStart()
		start := time.Now()
		for g := 0; g < depth; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					if _, _, err := cl.Upsert(ctx, client.Key(key(g*per+i)), client.Value(i)); err != nil {
						errCh <- err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		elapsed := time.Since(start)
		select {
		case err := <-errCh:
			return out, err
		default:
		}
		out.finish(m0, per*depth, elapsed)
		return out, nil

	case "net/batch":
		ops := make([]client.Op, depth)
		m0 := memStart()
		start := time.Now()
		done := 0
		for done < totalOps {
			n := min(depth, totalOps-done)
			for j := 0; j < n; j++ {
				ops[j] = client.Op{Kind: client.OpUpsert, Key: client.Key(key(done + j)), Value: client.Value(j)}
			}
			results, err := cl.Batch(ctx, ops[:n])
			if err != nil {
				return out, err
			}
			for _, res := range results {
				if res.Err != nil {
					return out, res.Err
				}
			}
			done += n
		}
		out.finish(m0, totalOps, time.Since(start))
		return out, nil
	}
	return out, fmt.Errorf("e13: unknown mode %q", mode)
}
