package client_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"blinktree/client"
	"blinktree/internal/server"
	"blinktree/internal/shard"
	"blinktree/internal/wire"
)

// startServer binds a fresh server+router on addr ("127.0.0.1:0" for
// ephemeral) and registers cleanup.
func startServer(t *testing.T, addr string, shards int) (*server.Server, *shard.Router) {
	t.Helper()
	r, err := shard.NewRouter(shards, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(r, server.Config{Addr: addr, Logf: func(string, ...any) {}})
	if err := s.Start(); err != nil {
		r.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		r.Close()
	})
	return s, r
}

func TestDialErrors(t *testing.T) {
	// Nothing listening.
	if _, err := client.Dial("127.0.0.1:1", client.Options{DialTimeout: time.Second}); err == nil {
		t.Fatal("dial to closed port should fail")
	}
	// Listening, but not speaking the protocol.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			fmt.Fprint(c, "HTTP/1.1 400 Bad Request\r\n\r\n")
			c.Close()
		}
	}()
	if _, err := client.Dial(ln.Addr().String(), client.Options{DialTimeout: time.Second}); err == nil {
		t.Fatal("dial to non-blinkserver should fail the hello")
	}
}

func TestRetryOnReconnectForReads(t *testing.T) {
	s, r := startServer(t, "127.0.0.1:0", 2)
	addr := s.Addr().String()
	ctx := context.Background()
	c, err := client.Dial(addr, client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Insert(ctx, 7, 70); err != nil {
		t.Fatal(err)
	}

	// Kill the server, restart on the SAME port with the same router:
	// the next idempotent read must transparently reconnect and succeed.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := server.New(r, server.Config{Addr: addr, Logf: func(string, ...any) {}})
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	v, err := c.Search(ctx, 7)
	if err != nil || v != 70 {
		t.Fatalf("search after reconnect: %d %v", v, err)
	}
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping after reconnect: %v", err)
	}
}

func TestMutationsAreNotRetried(t *testing.T) {
	s, _ := startServer(t, "127.0.0.1:0", 1)
	ctx := context.Background()
	c, err := client.Dial(s.Addr().String(), client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Insert(ctx, 1, 1); err != nil {
		t.Fatal(err)
	}
	s.Close() // no restart: the write path has nowhere to go
	err = c.Insert(ctx, 2, 2)
	if err == nil {
		t.Fatal("insert against a dead server should fail")
	}
	if errors.Is(err, client.ErrDuplicate) || errors.Is(err, client.ErrNotFound) {
		t.Fatalf("expected a transport error, got %v", err)
	}
}

func TestConcurrentCancellation(t *testing.T) {
	s, _ := startServer(t, "127.0.0.1:0", 4)
	c, err := client.Dial(s.Addr().String(), client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Half the goroutines run with an already-cancelled context, half
	// work normally; the connection must survive all of it.
	var wg sync.WaitGroup
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	live := context.Background()
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if w%2 == 0 {
					if _, _, err := c.Upsert(live, client.Key(w*100+i), 1); err != nil {
						t.Error(err)
						return
					}
				} else if err := c.Ping(cancelled); !errors.Is(err, context.Canceled) {
					t.Errorf("cancelled ping: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	n, err := c.Len(context.Background())
	if err != nil || n != 8*100 {
		t.Fatalf("len after cancellation storm: %d %v", n, err)
	}
}

// TestCancelInFlightCall abandons a call whose request is already on
// the wire: the caller gets context.Canceled at once, the late
// response is dropped, and the connection keeps serving.
func TestCancelInFlightCall(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	received := make(chan struct{})
	release := make(chan struct{})
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		br := bufio.NewReader(nc)
		if _, err := wire.ReadHello(br); err != nil {
			return
		}
		if err := wire.WriteHelloVersion(nc, wire.Version); err != nil {
			return
		}
		// Hold the first request's answer until its caller gave up.
		id, _, _, err := wire.ReadFrame(br, nil)
		if err != nil {
			return
		}
		close(received)
		<-release
		if err := wire.WriteFrame(nc, id, wire.StatusOK, nil); err != nil {
			return
		}
		if id, _, _, err = wire.ReadFrame(br, nil); err != nil {
			return
		}
		wire.WriteFrame(nc, id, wire.StatusOK, nil)
	}()
	c, err := client.Dial(ln.Addr().String(), client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- c.Ping(ctx) }()
	<-received
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled in-flight ping: %v", err)
	}
	close(release)
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("ping after an abandoned call: %v", err)
	}
}

// TestConnectionChurnUnderPointOps hammers the pooled point-op path
// while the server is repeatedly killed and restarted on the same
// port. It exists for the race detector: a call completed by a
// connection's fail() may still be referenced by the dead writer
// goroutine (its swapped-out burst holds the request bytes), so the
// client must not return that call to the pool — a new owner's
// encodePoint would race with the dead writer's read.
func TestConnectionChurnUnderPointOps(t *testing.T) {
	s, r := startServer(t, "127.0.0.1:0", 2)
	addr := s.Addr().String()
	ctx := context.Background()
	c, err := client.Dial(addr, client.Options{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Transport errors are expected while the server is
				// down; what matters is that no call storage is reused
				// while a dead connection still references it.
				c.Search(ctx, client.Key(w))
				c.Upsert(ctx, client.Key(1000+w*1000+i%100), client.Value(i))
				c.Ping(ctx)
			}
		}(w)
	}

	cur := s
	defer func() { cur.Close() }()
	for i := 0; i < 5; i++ {
		time.Sleep(20 * time.Millisecond)
		cur.Close()
		next := server.New(r, server.Config{Addr: addr, Logf: func(string, ...any) {}})
		if err := next.Start(); err != nil {
			t.Fatalf("restart %d: %v", i, err)
		}
		cur = next
	}
	close(stop)
	wg.Wait()

	// The pool must still work end to end once the churn stops.
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping after churn: %v", err)
	}
}

func TestClientClosed(t *testing.T) {
	s, _ := startServer(t, "127.0.0.1:0", 1)
	c, err := client.Dial(s.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(context.Background()); !errors.Is(err, client.ErrClientClosed) {
		t.Fatalf("ping after close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestBatchTooLarge(t *testing.T) {
	s, _ := startServer(t, "127.0.0.1:0", 1)
	c, err := client.Dial(s.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ops := make([]client.Op, 10000)
	for i := range ops {
		ops[i] = client.Op{Kind: client.OpSearch, Key: client.Key(i)}
	}
	if _, err := c.Batch(context.Background(), ops); err == nil {
		t.Fatal("oversized batch should be rejected client-side")
	}
}
