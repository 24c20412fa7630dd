// Benchmarks regenerating the evaluation experiments of DESIGN.md /
// EXPERIMENTS.md, one bench family per experiment. Run with
//
//	go test -bench=. -benchmem
//
// Absolute numbers are machine-dependent; the claims under test are
// the *relative* shapes (who wins, lock footprints, restart rarity).
package blinktree

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blinktree/client"
	"blinktree/internal/base"
	"blinktree/internal/baseline/coarse"
	"blinktree/internal/baseline/lehmanyao"
	"blinktree/internal/baseline/lockcoupling"
	"blinktree/internal/blink"
	"blinktree/internal/compress"
	"blinktree/internal/harness"
	"blinktree/internal/locks"
	"blinktree/internal/node"
	"blinktree/internal/reclaim"
	"blinktree/internal/repl"
	"blinktree/internal/server"
	"blinktree/internal/shard"
	"blinktree/internal/storage"
	"blinktree/internal/workload"
)

// buildTree constructs a preloaded tree of the given kind.
func buildTree(b *testing.B, kind harness.Kind, k, preload int, keySpace uint64) base.Tree {
	b.Helper()
	inst, err := harness.Build(kind, k, false)
	if err != nil {
		b.Fatal(err)
	}
	stride := keySpace / uint64(preload)
	if stride == 0 {
		stride = 1
	}
	for i := 0; i < preload; i++ {
		key := base.Key(uint64(i) * stride)
		if err := inst.Tree.Insert(key, base.Value(key)); err != nil && !errors.Is(err, base.ErrDuplicate) {
			b.Fatal(err)
		}
	}
	return inst.Tree
}

// benchMix drives RunParallel with a deterministic per-goroutine
// workload generator drawing uniformly from [0, keySpace).
func benchMix(b *testing.B, tr base.Tree, keySpace uint64, mix workload.Mix) {
	benchMixDist(b, tr, workload.Uniform{N: keySpace}, mix)
}

// benchMixDist is benchMix with an arbitrary key distribution.
func benchMixDist(b *testing.B, tr base.Tree, dist workload.KeyDist, mix workload.Mix) {
	b.Helper()
	var seed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		gen, err := workload.NewGenerator(seed.Add(1)*104729, dist, mix)
		if err != nil {
			b.Error(err)
			return
		}
		for pb.Next() {
			if _, err := workload.Apply(tr, gen.Next()); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkE1Throughput: E1 — mixed-workload throughput for every
// implementation (the "higher degree of concurrency" claim, §1).
func BenchmarkE1Throughput(b *testing.B) {
	const keySpace = 1 << 18
	for _, kind := range harness.AllKinds {
		for _, mixCase := range []struct {
			name string
			mix  workload.Mix
		}{
			{"readmostly", workload.ReadMostly},
			{"balanced", workload.Balanced},
			{"writeonly", workload.WriteOnly},
		} {
			b.Run(fmt.Sprintf("%s/%s", kind, mixCase.name), func(b *testing.B) {
				tr := buildTree(b, kind, 16, 50000, keySpace)
				defer tr.Close()
				benchMix(b, tr, keySpace, mixCase.mix)
			})
		}
	}
}

// BenchmarkE2LockFootprint: E2 — insert cost under contention with
// footprint assertions (Sagiv exactly 1 lock; LY ≤ 3; coupling ≥ 2).
func BenchmarkE2LockFootprint(b *testing.B) {
	const keySpace = 1 << 20
	b.Run("sagiv", func(b *testing.B) {
		st := node.NewMemStore()
		tr, err := blink.New(blink.Config{Store: st, MinPairs: 4})
		if err != nil {
			b.Fatal(err)
		}
		benchMix(b, tr, keySpace, workload.InsertHeavy)
		b.StopTimer()
		fp := tr.Stats().InsertLocks
		if fp.Ops > 0 && fp.MaxHeld != 1 {
			b.Fatalf("sagiv insert MaxHeld = %d, want 1", fp.MaxHeld)
		}
		b.ReportMetric(float64(fp.MaxHeld), "max-locks")
	})
	b.Run("lehmanyao", func(b *testing.B) {
		tr, err := lehmanyao.New(lehmanyao.Config{MinPairs: 4})
		if err != nil {
			b.Fatal(err)
		}
		benchMix(b, tr, keySpace, workload.InsertHeavy)
		b.StopTimer()
		fp := tr.Stats().InsertLocks
		if fp.MaxHeld > 3 {
			b.Fatalf("lehman-yao insert MaxHeld = %d, want ≤ 3", fp.MaxHeld)
		}
		b.ReportMetric(float64(fp.MaxHeld), "max-locks")
	})
	b.Run("lockcoupling", func(b *testing.B) {
		tr, err := lockcoupling.New(4)
		if err != nil {
			b.Fatal(err)
		}
		benchMix(b, tr, keySpace, workload.InsertHeavy)
		b.StopTimer()
		fp := tr.Stats().InsertLocks
		b.ReportMetric(float64(fp.MaxHeld), "max-locks")
	})
}

// BenchmarkE3Compression: E3 — cost of compacting a 90%-deleted tree,
// with occupancy restoration asserted.
func BenchmarkE3Compression(b *testing.B) {
	for _, mode := range []string{"scanner", "queue"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st := node.NewMemStore()
				lt := locks.NewTable()
				tr, err := blink.New(blink.Config{Store: st, Locks: lt, MinPairs: 8})
				if err != nil {
					b.Fatal(err)
				}
				var comp *compress.Compressor
				if mode == "queue" {
					comp = compress.NewCompressor(st, lt, 8, nil)
					comp.Attach(tr)
				}
				const n = 50000
				for j := 0; j < n; j++ {
					if err := tr.Insert(base.Key(j), 0); err != nil {
						b.Fatal(err)
					}
				}
				for j := 0; j < n; j++ {
					if j%10 != 0 {
						if err := tr.Delete(base.Key(j)); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StartTimer()
				if mode == "queue" {
					if err := comp.DrainOnce(); err != nil {
						b.Fatal(err)
					}
				}
				sc := compress.NewScanner(st, lt, 8, nil)
				if err := sc.Compact(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				occ, err := tr.OccupancyStats()
				if err != nil {
					b.Fatal(err)
				}
				if occ.Underfull != 0 {
					b.Fatalf("%d underfull after compaction", occ.Underfull)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkE4RestartRate: E4 — search cost while compression churns,
// reporting restarts per million ops.
func BenchmarkE4RestartRate(b *testing.B) {
	st := node.NewMemStore()
	lt := locks.NewTable()
	rec := reclaim.New(st.Free)
	tr, err := blink.New(blink.Config{Store: st, Locks: lt, MinPairs: 4, Reclaimer: rec, Restart: blink.RestartBacktrack})
	if err != nil {
		b.Fatal(err)
	}
	comp := compress.NewCompressor(st, lt, 4, rec)
	comp.Attach(tr)
	const n = 100000
	for i := 0; i < n; i++ {
		if err := tr.Insert(base.Key(i), base.Value(i)); err != nil {
			b.Fatal(err)
		}
	}
	comp.Start(2)
	defer comp.Stop()
	// Background churn keeps the compressor busy.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := base.Key(i % n)
			_ = tr.Delete(k)
			_ = tr.Insert(k, base.Value(k))
		}
	}()
	tr.ResetStats()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			k := base.Key((i * 2654435761) % n)
			if _, err := tr.Search(k); err != nil && !errors.Is(err, base.ErrNotFound) {
				b.Error(err)
				return
			}
			i++
		}
	})
	b.StopTimer()
	stats := tr.Stats()
	if stats.Searches > 0 {
		b.ReportMetric(float64(stats.Restarts)/float64(stats.Searches)*1e6, "restarts/Mop")
	}
}

// BenchmarkE5Compressors: E5 — delete-heavy mutators against 0..8
// background compressor workers.
func BenchmarkE5Compressors(b *testing.B) {
	for _, nComp := range []int{0, 1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", nComp), func(b *testing.B) {
			st := node.NewMemStore()
			lt := locks.NewTable()
			tr, err := blink.New(blink.Config{Store: st, Locks: lt, MinPairs: 8})
			if err != nil {
				b.Fatal(err)
			}
			var comp *compress.Compressor
			if nComp > 0 {
				comp = compress.NewCompressor(st, lt, 8, nil)
				comp.Attach(tr)
				comp.Start(nComp)
				defer comp.Stop()
			}
			const keySpace = 1 << 17
			for i := 0; i < 50000; i++ {
				if err := tr.Insert(base.Key(i*2), 0); err != nil {
					b.Fatal(err)
				}
			}
			benchMix(b, tr, keySpace, workload.DeleteHeavy)
		})
	}
}

// BenchmarkE6DeadlockStress: E6 — the adversarial write-only mix with
// compressors; completing at all is the assertion (Theorem 2).
func BenchmarkE6DeadlockStress(b *testing.B) {
	st := node.NewMemStore()
	lt := locks.NewTable()
	tr, err := blink.New(blink.Config{Store: st, Locks: lt, MinPairs: 2})
	if err != nil {
		b.Fatal(err)
	}
	comp := compress.NewCompressor(st, lt, 2, nil)
	comp.Attach(tr)
	comp.Start(4)
	defer comp.Stop()
	benchMix(b, tr, 5000, workload.WriteOnly)
	b.StopTimer()
	stats := tr.Stats()
	if stats.InsertLocks.MaxHeld > 1 || stats.DeleteLocks.MaxHeld > 1 {
		b.Fatalf("update lock footprint exceeded 1: %+v", stats)
	}
	if fp := comp.Stats().Footprint.Snapshot(); fp.MaxHeld > 3 {
		b.Fatalf("compressor footprint %d > 3", fp.MaxHeld)
	}
}

// BenchmarkE7LinkChase: E7 — search speed vs insert pressure, with
// link hops per op reported.
func BenchmarkE7LinkChase(b *testing.B) {
	for _, mixCase := range []struct {
		name string
		mix  workload.Mix
	}{
		{"readonly", workload.ReadOnly},
		{"readmostly", workload.ReadMostly},
		{"insertheavy", workload.InsertHeavy},
	} {
		b.Run(mixCase.name, func(b *testing.B) {
			st := node.NewMemStore()
			tr, err := blink.New(blink.Config{Store: st, MinPairs: 4})
			if err != nil {
				b.Fatal(err)
			}
			const keySpace = 1 << 17
			for i := 0; i < 20000; i++ {
				key := base.Key(uint64(i) * (keySpace / 20000))
				if err := tr.Insert(key, 0); err != nil && !errors.Is(err, base.ErrDuplicate) {
					b.Fatal(err)
				}
			}
			tr.ResetStats()
			benchMix(b, tr, keySpace, mixCase.mix)
			b.StopTimer()
			stats := tr.Stats()
			total := stats.Searches + stats.Inserts + stats.Deletes
			if total > 0 {
				b.ReportMetric(float64(stats.LinkHops)/float64(total), "linkhops/op")
			}
		})
	}
}

// BenchmarkE8Reclamation: E8 — churn with periodic epoch collection,
// reporting pages freed per second.
func BenchmarkE8Reclamation(b *testing.B) {
	st := node.NewMemStore()
	lt := locks.NewTable()
	rec := reclaim.New(st.Free)
	tr, err := blink.New(blink.Config{Store: st, Locks: lt, MinPairs: 4, Reclaimer: rec})
	if err != nil {
		b.Fatal(err)
	}
	comp := compress.NewCompressor(st, lt, 4, rec)
	comp.Attach(tr)
	comp.Start(2)
	defer comp.Stop()
	const n = 50000
	for i := 0; i < n; i++ {
		if err := tr.Insert(base.Key(i), 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := base.Key(i % n)
		_ = tr.Delete(k)
		_ = tr.Insert(k, 0)
		if i%1024 == 0 {
			if _, err := rec.Collect(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if _, err := rec.Collect(); err != nil {
		b.Fatal(err)
	}
	rs := rec.Stats()
	b.ReportMetric(float64(rs.Freed), "pages-freed")
}

// BenchmarkAblationRestartPolicy compares the two §5.2 restart
// strategies under compression churn (DESIGN.md §6 ablation).
func BenchmarkAblationRestartPolicy(b *testing.B) {
	for _, pol := range []struct {
		name string
		p    blink.RestartPolicy
	}{{"backtrack", blink.RestartBacktrack}, {"fromroot", blink.RestartFromRoot}} {
		b.Run(pol.name, func(b *testing.B) {
			st := node.NewMemStore()
			lt := locks.NewTable()
			tr, err := blink.New(blink.Config{Store: st, Locks: lt, MinPairs: 4, Restart: pol.p})
			if err != nil {
				b.Fatal(err)
			}
			comp := compress.NewCompressor(st, lt, 4, nil)
			comp.Attach(tr)
			comp.Start(2)
			defer comp.Stop()
			const n = 50000
			for i := 0; i < n; i++ {
				if err := tr.Insert(base.Key(i), 0); err != nil {
					b.Fatal(err)
				}
			}
			stop := make(chan struct{})
			defer close(stop)
			go func() {
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					k := base.Key(i % n)
					_ = tr.Delete(k)
					_ = tr.Insert(k, 0)
				}
			}()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, err := tr.Search(base.Key((i * 40503) % n)); err != nil && !errors.Is(err, base.ErrNotFound) {
						b.Error(err)
						return
					}
					i++
				}
			})
		})
	}
}

// BenchmarkAblationStore compares the in-memory node store against the
// paged (codec) store — the copy-on-write vs serialize design choice.
func BenchmarkAblationStore(b *testing.B) {
	build := func(b *testing.B, paged bool) base.Tree {
		var st node.Store = node.NewMemStore()
		if paged {
			var err error
			st, err = node.NewPagedStore(storage.NewMemStore(4096))
			if err != nil {
				b.Fatal(err)
			}
		}
		tr, err := blink.New(blink.Config{Store: st, MinPairs: 16})
		if err != nil {
			b.Fatal(err)
		}
		return tr
	}
	for _, c := range []struct {
		name  string
		paged bool
	}{{"memstore", false}, {"pagedstore", true}} {
		b.Run(c.name, func(b *testing.B) {
			tr := build(b, c.paged)
			for i := 0; i < 20000; i++ {
				if err := tr.Insert(base.Key(i*7), 0); err != nil {
					b.Fatal(err)
				}
			}
			benchMix(b, tr, 1<<18, workload.Balanced)
		})
	}
}

// BenchmarkAblationMinPairs sweeps the branching parameter k — fan-out
// vs height vs lock-contention granularity.
func BenchmarkAblationMinPairs(b *testing.B) {
	for _, k := range []int{2, 8, 32, 128} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			st := node.NewMemStore()
			tr, err := blink.New(blink.Config{Store: st, MinPairs: k})
			if err != nil {
				b.Fatal(err)
			}
			const keySpace = 1 << 18
			for i := 0; i < 50000; i++ {
				key := base.Key(uint64(i) * (keySpace / 50000))
				if err := tr.Insert(key, 0); err != nil && !errors.Is(err, base.ErrDuplicate) {
					b.Fatal(err)
				}
			}
			benchMix(b, tr, keySpace, workload.Balanced)
		})
	}
}

// BenchmarkBulkLoadVsInsert compares bottom-up construction against
// repeated insertion for sorted initial loads.
func BenchmarkBulkLoadVsInsert(b *testing.B) {
	const n = 100000
	b.Run("bulkload", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr, err := blink.New(blink.Config{MinPairs: 16})
			if err != nil {
				b.Fatal(err)
			}
			j := 0
			if err := tr.BulkLoad(func() (base.Key, base.Value, bool) {
				if j >= n {
					return 0, 0, false
				}
				k := base.Key(j)
				j++
				return k, base.Value(k), true
			}, 0); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n), "keys")
	})
	b.Run("insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr, err := blink.New(blink.Config{MinPairs: 16})
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < n; j++ {
				if err := tr.Insert(base.Key(j), base.Value(j)); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(n), "keys")
	})
}

// BenchmarkE9ShardedScaling: the sharded front-end against the single
// tree (shards=1) under the concurrent balanced mix. Keys are spread
// over the full uint64 range so every partition receives traffic.
// Sharding wins twice: contention (locks, queues, root splits) is
// confined to one shard, and each shard is shallower than one big tree
// holding the same population.
func BenchmarkE9ShardedScaling(b *testing.B) {
	const population = 1 << 18
	const preload = 50000
	stride := ^uint64(0)/population + 1
	for _, n := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			idx, err := OpenSharded(n, Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer idx.Close()
			for i := 0; i < preload; i++ {
				k := Key(uint64(i) * (population / preload) * stride)
				if err := idx.Insert(k, Value(k)); err != nil && !errors.Is(err, ErrDuplicate) {
					b.Fatal(err)
				}
			}
			// Oversubscribe goroutines so lock contention — what
			// sharding relieves — shows even at low core counts.
			b.SetParallelism(8)
			benchMixDist(b, idx,
				workload.Stretch{Base: workload.Uniform{N: population}, Stride: stride},
				workload.Balanced)
		})
	}
}

// BenchmarkE10BatchApply: ApplyBatch's grouped dispatch against
// issuing the same cross-shard operations one at a time. The batch
// path spawns one goroutine per touched shard, so it trades fixed
// dispatch overhead for shard-parallel execution: it loses on a single
// core and wins as cores grow (the crossover is the number of cores
// needed to amortize ~3µs of scheduling per shard group).
func BenchmarkE10BatchApply(b *testing.B) {
	const population = 1 << 18
	const batchSize = 512
	stride := ^uint64(0)/population + 1
	build := func(b *testing.B) (*Tree, []BatchOp) {
		idx, err := OpenSharded(8, Options{})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < population; i += 4 {
			k := Key(uint64(i) * stride)
			if err := idx.Insert(k, Value(k)); err != nil {
				b.Fatal(err)
			}
		}
		ops := make([]BatchOp, batchSize)
		for i := range ops {
			ops[i] = BatchOp{Kind: BatchSearch, Key: Key(uint64(i*509%population) * stride)}
		}
		return idx, ops
	}
	b.Run("point", func(b *testing.B) {
		idx, ops := build(b)
		defer idx.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, op := range ops {
				if _, err := idx.Search(op.Key); err != nil && !errors.Is(err, ErrNotFound) {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(batchSize), "ops/batch")
	})
	b.Run("batch", func(b *testing.B) {
		idx, ops := build(b)
		defer idx.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, res := range idx.ApplyBatch(ops) {
				if res.Err != nil && !errors.Is(res.Err, ErrNotFound) {
					b.Fatal(res.Err)
				}
			}
		}
		b.ReportMetric(float64(batchSize), "ops/batch")
	})
}

// BenchmarkE11ConditionalWrites: E11 — the atomic conditional-write
// surface against its pre-API emulation. "atomic" upserts with one
// descent and one leaf lock; "emulated" is what callers had to write
// before: Search, then Delete+Insert on a hit or Insert on a miss —
// two to three descents and no atomicity. Run single-tree and sharded;
// the gap is the price of the emulation, and it widens with height and
// with shard-level parallelism (more concurrent writers per second
// paying the extra descents).
func BenchmarkE11ConditionalWrites(b *testing.B) {
	const keySpace = 1 << 18
	const preload = 50000
	build := func(b *testing.B, shards int) *Tree {
		idx, err := OpenSharded(shards, Options{})
		if err != nil {
			b.Fatal(err)
		}
		stride := ^uint64(0)/keySpace + 1
		for i := 0; i < preload; i++ {
			k := Key(uint64(i) * (keySpace / preload) * stride)
			if err := idx.Insert(k, Value(k)); err != nil && !errors.Is(err, ErrDuplicate) {
				b.Fatal(err)
			}
		}
		return idx
	}
	drive := func(b *testing.B, idx *Tree, emulated bool) {
		stride := ^uint64(0)/keySpace + 1
		var seed atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			rng := seed.Add(1) * 104729
			i := 0
			for pb.Next() {
				// Write-heavy: 75% upsert, 25% read-modify-write.
				rng = rng*6364136223846793005 + 1442695040888963407
				k := Key((uint64(rng>>11) % keySpace) * stride)
				if i++; i%4 != 0 {
					if emulated {
						if _, err := idx.Search(k); err == nil {
							if err := idx.Delete(k); err != nil && !errors.Is(err, ErrNotFound) {
								b.Error(err)
								return
							}
						}
						if err := idx.Insert(k, Value(k)); err != nil && !errors.Is(err, ErrDuplicate) {
							b.Error(err)
							return
						}
					} else if _, _, err := idx.Upsert(k, Value(k)); err != nil {
						b.Error(err)
						return
					}
				} else {
					if emulated {
						v, err := idx.Search(k)
						if errors.Is(err, ErrNotFound) {
							continue
						}
						if err != nil {
							b.Error(err)
							return
						}
						if err := idx.Delete(k); err != nil && !errors.Is(err, ErrNotFound) {
							b.Error(err)
							return
						}
						if err := idx.Insert(k, v); err != nil && !errors.Is(err, ErrDuplicate) {
							b.Error(err)
							return
						}
					} else if _, err := idx.Update(k, func(v Value) Value { return v }); err != nil && !errors.Is(err, ErrNotFound) {
						b.Error(err)
						return
					}
				}
			}
		})
	}
	for _, cfg := range []struct {
		name   string
		shards int
	}{{"tree", 1}, {"sharded=8", 8}} {
		for _, mode := range []struct {
			name     string
			emulated bool
		}{{"atomic", false}, {"emulated", true}} {
			b.Run(fmt.Sprintf("%s/%s", cfg.name, mode.name), func(b *testing.B) {
				idx := build(b, cfg.shards)
				defer idx.Close()
				drive(b, idx, mode.emulated)
			})
		}
	}
}

// BenchmarkE12Durability: E12 — the durability tax and how group
// commit amortizes it. Upserts against volatile vs WAL-backed indexes,
// single tree and sharded; durable runs report the achieved records
// per fsync. At parallelism the tax shrinks because concurrent
// appenders share each sync — the table form lives in
// harness.E12Durability / sagivbench.
func BenchmarkE12Durability(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		shards  int
		durable bool
	}{
		{"tree/volatile", 1, false},
		{"tree/durable", 1, true},
		{"sharded=8/volatile", 8, false},
		{"sharded=8/durable", 8, true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			opts := Options{MinPairs: 16}
			if cfg.durable {
				opts.Durable, opts.Dir = true, b.TempDir()
			}
			idx, err := OpenSharded(cfg.shards, opts)
			if err != nil {
				b.Fatal(err)
			}
			defer idx.Close()
			b.SetParallelism(8)
			var seed atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				g := uint64(seed.Add(1))
				i := uint64(0)
				for pb.Next() {
					k := Key((g<<32 | i) * 11400714819323198485)
					if _, _, err := idx.Upsert(k, Value(i)); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
			if cfg.durable {
				if st, err := idx.Stats(); err == nil {
					b.ReportMetric(st.WAL.MeanGroup(), "recs/fsync")
				}
			}
		})
	}
}

// BenchmarkE13NetPipeline: E13 — point Upserts over TCP loopback
// through the pipelining client, by concurrent-caller depth. The
// client multiplexes the callers onto pipelined bursts and the server
// coalesces each burst into one shard-parallel ApplyBatch; throughput
// should rise steeply with depth (the table form with the in-process
// ceiling lives in harness.E13NetPipeline / sagivbench).
func BenchmarkE13NetPipeline(b *testing.B) {
	for _, depth := range []int{1, 64, 256} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			r, err := shard.NewRouter(8, shard.Options{MinPairs: 16})
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			srv := server.New(r, server.Config{Addr: "127.0.0.1:0", Logf: func(string, ...any) {}})
			if err := srv.Start(); err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			cl, err := client.Dial(srv.Addr().String(), client.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			ctx := context.Background()
			var seed atomic.Int64
			b.SetParallelism(depth) // RunParallel spawns depth×GOMAXPROCS callers
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				g := uint64(seed.Add(1))
				i := uint64(0)
				for pb.Next() {
					k := client.Key((g<<32 | i) * 11400714819323198485)
					if _, _, err := cl.Upsert(ctx, k, client.Value(i)); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
			b.StopTimer()
			polls, reqs := srv.Metrics.Polls.Load(), srv.Metrics.Requests.Load()
			if polls > 0 {
				b.ReportMetric(float64(reqs)/float64(polls), "reqs/poll")
			}
		})
	}
}

// BenchmarkE14Replication: E14 — replicated write throughput and the
// drain it leaves behind. Upserts flow to a durable primary while a
// durable follower streams its WAL over TCP loopback; the reported
// extras are the records the follower still had to apply when the
// writers stopped (lag) and the time it took to drain them (the table
// form with follower read throughput lives in harness.E14Replication
// / sagivbench).
func BenchmarkE14Replication(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			rp, err := shard.NewRouter(shards, shard.Options{MinPairs: 16, Durable: true, Dir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			defer rp.Close()
			srv := server.New(rp, server.Config{Addr: "127.0.0.1:0", Logf: func(string, ...any) {}})
			if err := srv.Start(); err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			rf, err := shard.NewRouter(shards, shard.Options{MinPairs: 16, Durable: true, Dir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			defer rf.Close()
			fl, err := repl.NewFollower(rf, repl.FollowerConfig{Primary: srv.Addr().String()})
			if err != nil {
				b.Fatal(err)
			}
			fl.Start()
			defer fl.Stop()
			cl, err := client.Dial(srv.Addr().String(), client.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			ctx := context.Background()
			var seed atomic.Int64
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				g := uint64(seed.Add(1))
				i := uint64(0)
				for pb.Next() {
					k := client.Key((g<<32 | i) * 11400714819323198485)
					if _, _, err := cl.Upsert(ctx, k, client.Value(i)); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
			b.StopTimer()
			var target uint64
			for i := 0; i < shards; i++ {
				target += rp.Engine(i).WAL().Stats().Records
			}
			lag := uint64(0)
			if a := fl.Stats().Applied; target > a {
				lag = target - a
			}
			drainStart := time.Now()
			for fl.Stats().Applied < target {
				if time.Since(drainStart) > 30*time.Second {
					b.Fatal("follower never drained")
				}
				time.Sleep(time.Millisecond)
			}
			b.ReportMetric(float64(lag), "lag-recs")
			b.ReportMetric(float64(time.Since(drainStart).Microseconds())/1000, "drain-ms")
		})
	}
}

// BenchmarkCoarseFloor pins the coarse baseline cost for reference.
func BenchmarkCoarseFloor(b *testing.B) {
	tr, err := coarse.New(16)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 50000; i++ {
		if err := tr.Insert(base.Key(i), 0); err != nil {
			b.Fatal(err)
		}
	}
	benchMix(b, tr, 1<<17, workload.Balanced)
}

// parallelSearchPairs is the population of BenchmarkParallelSearch:
// large enough that the working set sits far above L2, so the cost of
// each node visit, not the loop around it, is what gets measured.
const parallelSearchPairs = 2_000_000

var (
	parallelSearchOnce sync.Once
	parallelSearchTree *Tree
	parallelSearchErr  error
)

// BenchmarkParallelSearch: 100% Search over a 2M-pair bulk-loaded
// default tree from every P. Searches take no locks (§2.2), so the
// ns/op at -cpu 2 should be close to half that at -cpu 1; run it with
// -cpu 1,2 to see the scaling. The tree is built once and shared by
// every -cpu setting.
func BenchmarkParallelSearch(b *testing.B) {
	parallelSearchOnce.Do(func() {
		tr, err := Open(Options{})
		if err != nil {
			parallelSearchErr = err
			return
		}
		i := 0
		parallelSearchErr = tr.BulkLoad(func() (Key, Value, bool) {
			if i == parallelSearchPairs {
				return 0, 0, false
			}
			i++
			return Key(i - 1), Value(i - 1), true
		}, 0)
		parallelSearchTree = tr
	})
	if parallelSearchErr != nil {
		b.Fatal(parallelSearchErr)
	}
	tr := parallelSearchTree
	var seed atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewPCG(seed.Add(1), 0x9e3779b97f4a7c15))
		for pb.Next() {
			k := Key(rng.Uint64N(parallelSearchPairs))
			if v, err := tr.Search(k); err != nil || v != Value(k) {
				b.Errorf("Search(%d) = %d, %v", k, v, err)
				return
			}
		}
	})
}
