package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a tail percentile for it
// to be reported: fewer, and one slow operation moves the figure.
const minBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// summary is the order-statistic view of one run's raw per-operation
// samples. Percentiles use the nearest-rank rule over every sample;
// nothing is bucketed.
type summary struct {
	N      int
	P50    float64
	Tail   float64 // 0 when HasTail is false
	TailP  float64 // the percentile Tail reports
	Beyond int     // samples strictly above Tail's rank
	// HasTail is false when no percentile above p50 leaves minBeyond
	// samples above it.
	HasTail bool
}

// rank returns the 1-based nearest rank of percentile p among n samples.
func rank(p float64, n int) int {
	// The epsilon keeps p99.9 of 20000 at rank 19980, not 19981.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// summarize sorts a copy of samples and reads the median and the
// highest ladder percentile that still has minBeyond samples beyond it.
func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := summary{N: len(s)}
	if len(s) == 0 {
		return out
	}
	r50 := rank(50, len(s))
	out.P50 = s[r50-1]
	for _, p := range tailLadder {
		r := rank(p, len(s))
		if r > r50 && len(s)-r >= minBeyond {
			out.Tail, out.TailP, out.Beyond, out.HasTail = s[r-1], p, len(s)-r, true
			break
		}
	}
	return out
}

// median is the nearest-rank median of xs (0 for none).
func median(xs []float64) float64 { return summarize(xs).P50 }

// mean is the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// opSample is one timed operation.
type opSample struct {
	LatencyMs float64
	// SimMs is the simulated time (warmup + load) the operation's
	// results cover.
	SimMs float64
	// RanSim reports that the operation ran the simulator; results served
	// from a run cache or joined onto another request's simulation did
	// not.
	RanSim bool
}

// hostNsPerSimMs divides the run's host wall time by the simulated
// milliseconds of the operations that ran the simulator. ok is false
// when none did: a cache-served result costs no simulation, so dividing
// by its simulated time would report a kernel speed that was never
// measured.
func hostNsPerSimMs(wallNs float64, ops []opSample) (v float64, ok bool) {
	var simMs float64
	for _, o := range ops {
		if o.RanSim {
			simMs += o.SimMs
		}
	}
	if simMs <= 0 {
		return 0, false
	}
	return wallNs / simMs, true
}
