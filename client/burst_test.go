package client

import (
	"context"
	"sync"
	"testing"

	"blinktree/internal/server"
	"blinktree/internal/shard"
)

// TestWriterBurstsCarryManyFrames asserts that concurrent callers on
// one connection share write bursts. The writer yields once after each
// wake-up so the callers the read loop has already made runnable
// enqueue before it swaps the queue out; without the yield it runs
// from the scheduler's runnext slot ahead of them, and bursts carry
// one or two frames. With 32 callers on a 2-vCPU host the mean
// measured 15.5–18.2 frames per burst (21.6 at GOMAXPROCS=1, 10.6–13.3
// at GOMAXPROCS=4) with the yield and 1.2–1.3 without it; the bound
// keeps at least 2x margin below the lowest of those.
func TestWriterBurstsCarryManyFrames(t *testing.T) {
	if raceEnabled {
		t.Skip("scheduling under -race is not representative")
	}
	r, err := shard.NewRouter(8, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	s := server.New(r, server.Config{Addr: "127.0.0.1:0", Logf: func(string, ...any) {}})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr().String(), Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cn := c.slots[0].cn

	const callers, per = 32, 300
	ctx := context.Background()
	bursts := cn.bursts.Load()
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := Key(uint64(w*per+i) * 0x9E3779B97F4A7C15)
				if _, _, err := c.Upsert(ctx, k, Value(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	bursts = cn.bursts.Load() - bursts
	mean := float64(callers*per) / float64(bursts)
	t.Logf("%d frames in %d bursts: %.1f frames per burst", callers*per, bursts, mean)
	if mean < 5 {
		t.Fatalf("%.1f frames per burst, want ≥ 5: the writer is running ahead of runnable callers", mean)
	}
}
