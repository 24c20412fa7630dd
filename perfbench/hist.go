package main

import (
	"math"
	"math/bits"
	"time"

	"blinktree/internal/metrics"
)

// subBits sets the histogram resolution: each power of two is split
// into 2^subBits linear sub-buckets, so a bucket is at most 1/32 of its
// value wide and quantiles interpolated inside it are far finer.
const subBits = 5

// maxBits caps recorded durations at 2^maxBits ns (about 68 s).
const maxBits = 36

const histLen = (maxBits - subBits + 1) << subBits

// hist is a log-linear latency histogram in nanoseconds. One caller
// owns it, so recording is a plain increment; merge combines callers.
type hist struct {
	n   uint64
	sum uint64
	b   [histLen]uint64
}

func bucketOf(ns uint64) int {
	if ns >= 1<<maxBits {
		ns = 1<<maxBits - 1
	}
	if ns < 1<<subBits {
		return int(ns)
	}
	shift := bits.Len64(ns) - subBits - 1
	return (shift+1)<<subBits | int(ns>>shift)&(1<<subBits-1)
}

// bucketRange returns the [lo, hi) nanoseconds bucket i covers.
func bucketRange(i int) (lo, hi float64) {
	if i < 1<<subBits {
		return float64(i), float64(i + 1)
	}
	shift := i>>subBits - 1
	base := uint64(1<<subBits|i&(1<<subBits-1)) << shift
	return float64(base), float64(base + 1<<shift)
}

func (h *hist) add(d time.Duration) {
	ns := uint64(max(d, 0))
	h.b[bucketOf(ns)]++
	h.n++
	h.sum += ns
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	h.sum += o.sum
	for i, c := range o.b {
		h.b[i] += c
	}
}

// mean returns the mean in microseconds.
func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n) / 1e3
}

// quantile returns the q-quantile in microseconds, interpolated
// linearly inside its bucket.
func (h *hist) quantile(q float64) float64 {
	return quantileOf(h.b[:], h.n, q, bucketRange) / 1e3
}

// quantileOf finds the bucket holding the rank-⌈q·n⌉ observation and
// interpolates its position inside the bucket's [lo, hi) range.
func quantileOf(counts []uint64, n uint64, q float64, rng func(int) (lo, hi float64)) float64 {
	if n == 0 {
		return 0
	}
	target := max(math.Ceil(q*float64(n)), 1)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := rng(i)
			return lo + (target-cum-0.5)/float64(c)*(hi-lo)
		}
		cum += float64(c)
	}
	lo, hi := rng(len(counts) - 1)
	return (lo + hi) / 2
}

// beyond counts the observations above the q-quantile's rank: a tail
// percentile is worth reporting only when at least ten lie beyond it.
func beyond(n uint64, q float64) uint64 {
	return n - uint64(math.Ceil(q*float64(n)))
}

// progHist is the bucket counts of one of the program's own
// power-of-two histograms (internal/metrics). The type exposes only
// Quantile, so the counts are recovered by binary search on it: the
// rank-t observation lies in bucket i exactly when Quantile returns
// that bucket's upper bound.
type progHist struct {
	n uint64
	b [64]uint64
}

func readProgHist(h *metrics.Histogram) progHist {
	var p progHist
	n := h.Count()
	if n == 0 {
		return p
	}
	p.n = n
	bucketAt := func(t uint64) int {
		d := uint64(h.Quantile((float64(t) - 0.5) / float64(n)))
		if d <= 1 {
			return 0
		}
		return bits.Len64(d) - 1
	}
	// cum is the number of observations in buckets < i.
	var cum uint64
	for cum < n {
		i := bucketAt(cum + 1)
		// Largest rank still in bucket i.
		lo, hi := cum+1, n
		for lo < hi {
			mid := lo + (hi-lo+1)/2
			if bucketAt(mid) <= i {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		p.b[i] = lo - cum
		cum = lo
	}
	return p
}

func (p *progHist) merge(o progHist) {
	p.n += o.n
	for i, c := range o.b {
		p.b[i] += c
	}
}

// quantile returns the q-quantile in microseconds, interpolated inside
// its power-of-two bucket [2^(i-1), 2^i) ns.
func (p *progHist) quantile(q float64) float64 {
	return quantileOf(p.b[:], p.n, q, func(i int) (float64, float64) {
		if i == 0 {
			return 0, 1
		}
		return float64(uint64(1) << (i - 1)), float64(uint64(1) << i)
	}) / 1e3
}

// subHist is b minus a: the histogram of the window between them.
func subHist(b, a progHist) progHist {
	d := progHist{n: b.n - a.n}
	for i := range b.b {
		d.b[i] = b.b[i] - a.b[i]
	}
	return d
}

// mean of a power-of-two histogram in µs, taking each bucket's
// midpoint.
func (p *progHist) mean() float64 {
	if p.n == 0 {
		return 0
	}
	var s float64
	for i, c := range p.b {
		if c == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = float64(uint64(1) << (i - 1))
		}
		s += float64(c) * (lo + float64(uint64(1)<<i)) / 2
	}
	return s / float64(p.n) / 1e3
}
