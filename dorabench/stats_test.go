package main

import (
	"math"
	"math/rand"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestSummarizeNearestRank(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.N != 5 || s.P50 != 3 {
		t.Fatalf("got %+v, want n=5 p50=3", s)
	}
	if s.HasTail {
		t.Fatalf("5 samples cannot support a tail: %+v", s)
	}
	if got := summarize(seq(4)).P50; got != 2 {
		t.Fatalf("p50 of 1..4 = %v, want 2 (rank ceil(0.5*4))", got)
	}
	if got := summarize(nil); got.N != 0 || got.HasTail {
		t.Fatalf("empty input: %+v", got)
	}
}

func TestSummarizeTailRule(t *testing.T) {
	cases := []struct {
		n       int
		hasTail bool
		p       float64
		tail    float64
		beyond  int
	}{
		{20, false, 0, 0, 0},   // p75 rank 15 leaves 5; nothing above p50 qualifies
		{40, true, 75, 30, 10}, // p75 rank 30 leaves exactly 10
		{100, true, 90, 90, 10},
		{199, true, 90, 180, 19}, // p95 rank 190 leaves 9
		{200, true, 95, 190, 10},
		{1000, true, 99, 990, 10},
		{20000, true, 99.9, 19980, 20},
	}
	for _, c := range cases {
		s := summarize(seq(c.n))
		if s.HasTail != c.hasTail || s.TailP != c.p || s.Tail != c.tail || s.Beyond != c.beyond {
			t.Errorf("n=%d: got %+v, want tail=%v p%v beyond=%d", c.n, s, c.hasTail, c.p, c.beyond)
		}
		if s.HasTail && s.Beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", c.n, s.Beyond)
		}
	}
}

func TestTailNeverBelowMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		xs := make([]float64, 1+rng.Intn(300))
		for i := range xs {
			xs[i] = rng.ExpFloat64()
		}
		s := summarize(xs)
		if s.HasTail && s.Tail < s.P50 {
			t.Fatalf("trial %d: tail %v below p50 %v (n=%d)", trial, s.Tail, s.P50, s.N)
		}
	}
}

func TestSummarizeDoesNotReorderInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func TestHostNsPerSimMsCountsOnlySimulatedOps(t *testing.T) {
	ops := []opSample{
		{LatencyMs: 100, SimMs: 2000, RanSim: true},
		{LatencyMs: 0.2, SimMs: 2000, RanSim: false}, // served from the run cache
		{LatencyMs: 90, SimMs: 1000, RanSim: true},
		{LatencyMs: 1, SimMs: 1000, RanSim: false}, // joined an in-flight simulation
	}
	v, ok := hostNsPerSimMs(6e8, ops)
	if !ok || v != 6e8/3000 {
		t.Fatalf("got %v ok=%v, want %v", v, ok, 6e8/3000)
	}
	if _, ok := hostNsPerSimMs(1e6, ops[1:2]); ok {
		t.Fatal("cache-only run must not report a kernel speed")
	}
	if _, ok := hostNsPerSimMs(1e6, nil); ok {
		t.Fatal("empty run must not report a kernel speed")
	}
}

func TestSampledErrorBudget(t *testing.T) {
	want := make([]cellObs, 20)
	for i := range want {
		want[i] = cellObs{LoadS: 1, PowerW: 2, TempC: 40}
	}
	scaled := func(load float64, n int) []cellObs {
		got := append([]cellObs(nil), want...)
		for i := 0; i < n; i++ {
			got[i].LoadS *= load
		}
		return got
	}
	cases := []struct {
		name          string
		got           []cellObs
		meanPct, maxP float64
		ok            bool
	}{
		{"identical", scaled(1, 0), 0, 0, true},
		{"one cell 4% off", scaled(1.04, 1), 0.2, 4, true},
		{"one cell 6% off", scaled(1.06, 1), 0.3, 6, false},
		{"every cell 3% off", scaled(1.03, 20), 3, 3, false},
	}
	for _, c := range cases {
		m, x, ok := sampledError(c.got, want)
		if ok != c.ok || math.Abs(m-c.meanPct) > 1e-9 || math.Abs(x-c.maxP) > 1e-9 {
			t.Errorf("%s: got mean %v max %v ok %v, want %v %v %v", c.name, m, x, ok, c.meanPct, c.maxP, c.ok)
		}
	}
	if _, _, ok := sampledError(want[:19], want); ok {
		t.Error("a grid with a missing cell passed the budget")
	}
}
