package server

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"slices"
	"testing"
	"time"

	"blinktree/client"
	"blinktree/internal/shard"
	"blinktree/internal/wire"
)

// TestSerialRoundTripHasNoWindowStall asserts that a caller with one
// request in flight never waits on a server-side timer: the poll
// executes as soon as the read buffer is dry. A timed coalescing
// window put about 3.5% of serial requests behind a ~1 ms wait (the
// window's deadline fires from an idle epoll_wait, whose timeout is
// rounded up to whole milliseconds), which made p99 about 1.15 ms; a
// loopback round trip without it has a p99 of 30–45 µs on a 2-vCPU
// host. The bound sits far from both. Like the TestZeroAlloc* gates it
// keeps the best of three attempts, so a neighbour's burst of CPU use
// cannot fail it.
func TestSerialRoundTripHasNoWindowStall(t *testing.T) {
	if raceEnabled {
		t.Skip("latency is not representative under -race")
	}
	if testing.Short() {
		t.Skip("latency measurement skipped in -short mode")
	}
	s, r, _ := start(t, 8, Config{}, shard.Options{})
	c, err := client.Dial(s.Addr().String(), client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	const keys = 100
	for k := uint64(0); k < keys; k++ {
		if err := r.Insert(client.Key(k*0x9E3779B97F4A7C15), client.Value(k)); err != nil {
			t.Fatal(err)
		}
	}

	const ops, bound = 2000, 500 * time.Microsecond
	lat := make([]time.Duration, ops)
	p99 := func() time.Duration {
		for i := range lat {
			k := client.Key(uint64(i%keys) * 0x9E3779B97F4A7C15)
			t0 := time.Now()
			if i%10 == 0 {
				_, _, err = c.Upsert(ctx, k, client.Value(i%keys))
			} else {
				_, err = c.Search(ctx, k)
			}
			lat[i] = time.Since(t0)
			if err != nil {
				t.Fatal(err)
			}
		}
		slices.Sort(lat)
		return lat[ops*99/100]
	}
	best := p99()
	for attempt := 1; attempt < 3 && best >= bound; attempt++ {
		best = min(best, p99())
	}
	t.Logf("serial round trip p99 %v (best of up to 3 attempts of %d ops)", best, ops)
	if best >= bound {
		t.Fatalf("serial round trip p99 %v, want < %v: a lone caller is waiting on the server", best, bound)
	}
}

// rawConn dials s and completes the hello exchange, for tests that
// need to control exactly which bytes arrive in one burst.
func rawConn(t *testing.T, s *Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	if err := wire.WriteHello(nc); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	if _, err := wire.ReadHello(br); err != nil {
		t.Fatal(err)
	}
	return nc, br
}

// sendBurst writes frames with ids 1..n in a single Write and closes
// its side of the connection. It reads responses until the server
// closes too, checks every id is answered exactly once with status OK,
// and returns how many polls the server ran: a poll is counted before
// the server goes back to reading, so by the time the close arrives
// every poll of the burst is in the count.
func sendBurst(t *testing.T, s *Server, nc net.Conn, br *bufio.Reader, n int, op uint8, payload []byte) uint64 {
	t.Helper()
	var burst []byte
	for id := 1; id <= n; id++ {
		var err error
		if burst, err = wire.AppendFrame(burst, uint64(id), op, payload); err != nil {
			t.Fatal(err)
		}
	}
	polls := s.Metrics.Polls.Load()
	if _, err := nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	if err := nc.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	seen := make([]int, n+1)
	for got := 0; ; got++ {
		id, status, _, err := wire.ReadFrame(br, nil)
		if errors.Is(err, io.EOF) {
			if got != n {
				t.Fatalf("%d responses to %d frames", got, n)
			}
			return s.Metrics.Polls.Load() - polls
		}
		if err != nil {
			t.Fatalf("after %d of %d responses: %v", got, n, err)
		}
		if id < 1 || id > uint64(n) {
			t.Fatalf("response for unknown id %d", id)
		}
		if status != wire.StatusOK {
			t.Fatalf("id %d: status %d", id, status)
		}
		if seen[id]++; seen[id] > 1 {
			t.Fatalf("id %d answered twice", id)
		}
	}
}

// TestPollBoundsSplitBursts asserts that MaxBatch and MaxInflight
// still bound a poll now that it ends only when the buffer runs dry:
// a single burst larger than either bound is split over several polls,
// and every frame is still answered exactly once.
func TestPollBoundsSplitBursts(t *testing.T) {
	const maxBatch, maxInflight = 32, 64 << 10
	s, r, _ := start(t, 4, Config{MaxBatch: maxBatch, MaxInflight: maxInflight}, shard.Options{})
	if err := r.Insert(7, 70); err != nil {
		t.Fatal(err)
	}

	t.Run("MaxBatch", func(t *testing.T) {
		nc, br := rawConn(t, s)
		var p wire.Buf
		p.U64(7)
		polls := sendBurst(t, s, nc, br, 3*maxBatch, wire.OpSearch, p.B)
		t.Logf("%d point frames in one burst: %d polls", 3*maxBatch, polls)
		if polls < 3 {
			t.Fatalf("%d frames in %d polls: MaxBatch %d did not split the burst", 3*maxBatch, polls, maxBatch)
		}
	})

	t.Run("MaxInflight", func(t *testing.T) {
		nc, br := rawConn(t, s)
		// Explicit batches of 2000 searches: 50 KB a frame, so a poll
		// stops gathering after its second frame.
		const slots, frames = 2000, 6
		var p wire.Buf
		p.U32(slots)
		for i := 0; i < slots; i++ {
			p.U8(wire.OpSearch)
			p.U64(uint64(i))
			p.U64(0)
			p.U64(0)
		}
		perPoll := (maxInflight + len(p.B) + 13 - 1) / (len(p.B) + 13)
		polls := sendBurst(t, s, nc, br, frames, wire.OpBatch, p.B)
		t.Logf("%d frames of %d B in one burst: %d polls", frames, len(p.B)+13, polls)
		if want := uint64((frames + perPoll - 1) / perPoll); polls < want {
			t.Fatalf("%d frames in %d polls, want ≥ %d: MaxInflight %d did not split the burst", frames, polls, want, maxInflight)
		}
	})
}
