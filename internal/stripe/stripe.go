// Package stripe provides Counter, an event counter that goroutines on
// different processors can bump without sharing a cache line.
//
// A plain atomic counter bumped on every operation is a write to one
// line that every core must own in turn, which is enough to stop a
// lock-free read path from scaling. A Counter keeps one padded cell per
// stripe and adds to the cell of the processor (the runtime's P) the
// caller runs on, so concurrent adders on different Ps write different
// lines; readers sum the cells. Reads are therefore slower, and
// intended for reporting, not for the hot path.
package stripe

import (
	"sync/atomic"
	_ "unsafe" // for go:linkname
)

// stripes is the number of cells: 512 bytes a counter. Ps beyond it
// share cells, which is still correct, only less private.
const stripes = 8

type cell struct {
	v atomic.Uint64
	_ [56]byte // one cell per 64-byte cache line
}

// Counter is a striped uint64 counter. The zero Counter reads 0.
type Counter struct {
	cells [stripes]cell
}

// procPin pins the calling goroutine to its P and returns the P's id;
// procUnpin releases the pin. The runtime marks both as reachable by
// linkname (runtime/proc.go), because packages outside the standard
// library use them for exactly this.
//
//go:linkname procPin runtime.procPin
func procPin() int

//go:linkname procUnpin runtime.procUnpin
func procUnpin()

// Proc returns the id of the P the caller is running on, in
// [0, GOMAXPROCS). The goroutine may move to another P right after, so
// the id only spreads writers over cache lines; it never owns anything.
func Proc() int {
	p := procPin()
	procUnpin()
	return p
}

// Add adds n to the counter.
func (c *Counter) Add(n uint64) {
	c.cells[uint(Proc())%stripes].v.Add(n)
}

// Load returns the sum of the cells. Concurrent Adds may or may not be
// included.
func (c *Counter) Load() uint64 {
	var s uint64
	for i := range c.cells {
		s += c.cells[i].v.Load()
	}
	return s
}

// Reset zeroes the counter. Adds concurrent with Reset may survive it.
func (c *Counter) Reset() {
	for i := range c.cells {
		c.cells[i].v.Store(0)
	}
}
