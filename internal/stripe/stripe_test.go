package stripe

import (
	"runtime"
	"sync"
	"testing"
)

func TestCounterSumsConcurrentAdds(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				c.Add(2)
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 8*10000*2 {
		t.Fatalf("Load() = %d, want %d", got, 8*10000*2)
	}
	c.Reset()
	if got := c.Load(); got != 0 {
		t.Fatalf("Load() after Reset = %d", got)
	}
}

func TestProcInRange(t *testing.T) {
	for i := 0; i < 100; i++ {
		if p := Proc(); p < 0 || p >= runtime.GOMAXPROCS(0) {
			t.Fatalf("Proc() = %d", p)
		}
	}
}
