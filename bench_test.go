// Benchmarks that regenerate every table and figure of the paper's
// evaluation (one Benchmark per exhibit), plus microbenchmarks of the
// performance-critical simulator paths.
//
// The figure benchmarks share one trained suite (built lazily outside
// the timed region). By default the suite trains on the reduced "fast"
// grid; set DORA_FULL_BENCH=1 for the full paper-scale campaign.
// Results print through -v / b.Log on the first iteration.
package dora

import (
	"os"
	"sync"
	"testing"
	"time"

	"dora/internal/cache"
	"dora/internal/core"
	"dora/internal/corun"
	"dora/internal/experiment"
	"dora/internal/governor"
	"dora/internal/membus"
	"dora/internal/sim"
	"dora/internal/soc"
	"dora/internal/telemetry"
	"dora/internal/webdoc"
	"dora/internal/webgen"
	"dora/internal/workload"
)

var (
	benchOnce  sync.Once
	benchSuite *experiment.Suite
	benchErr   error
)

func suiteForBench(b *testing.B) *experiment.Suite {
	b.Helper()
	benchOnce.Do(func() {
		fast := os.Getenv("DORA_FULL_BENCH") == ""
		benchSuite, benchErr = experiment.NewSuite(TrainOptions{
			Device: soc.NexusFive(), Seed: 1, Fast: fast,
		})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSuite
}

// benchFigure runs one exhibit per iteration (memoized after the first)
// and logs the rendered table once.
func benchFigure(b *testing.B, run func(s *experiment.Suite) (interface{ Table() string }, error)) {
	s := suiteForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := run(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Table())
		}
	}
}

func BenchmarkFig1Interference(b *testing.B) {
	benchFigure(b, func(s *experiment.Suite) (interface{ Table() string }, error) { return s.Fig1() })
}

func BenchmarkFig2LoadTimeEnergy(b *testing.B) {
	benchFigure(b, func(s *experiment.Suite) (interface{ Table() string }, error) { return s.Fig2() })
}

func BenchmarkFig3OptimalMode(b *testing.B) {
	benchFigure(b, func(s *experiment.Suite) (interface{ Table() string }, error) { return s.Fig3() })
}

func BenchmarkTableIIIClassification(b *testing.B) {
	benchFigure(b, func(s *experiment.Suite) (interface{ Table() string }, error) { return s.TableIII() })
}

func BenchmarkFig5ModelAccuracy(b *testing.B) {
	benchFigure(b, func(s *experiment.Suite) (interface{ Table() string }, error) { return s.Fig5(), nil })
}

func BenchmarkFig6Sensitivity(b *testing.B) {
	benchFigure(b, func(s *experiment.Suite) (interface{ Table() string }, error) { return s.Fig6() })
}

func BenchmarkFig7Governors(b *testing.B) {
	benchFigure(b, func(s *experiment.Suite) (interface{ Table() string }, error) { return s.Fig7() })
}

func BenchmarkFig8PerWorkload(b *testing.B) {
	benchFigure(b, func(s *experiment.Suite) (interface{ Table() string }, error) { return s.Fig8() })
}

func BenchmarkFig9Complexity(b *testing.B) {
	benchFigure(b, func(s *experiment.Suite) (interface{ Table() string }, error) { return s.Fig9() })
}

func BenchmarkFig10Leakage(b *testing.B) {
	benchFigure(b, func(s *experiment.Suite) (interface{ Table() string }, error) { return s.Fig10() })
}

func BenchmarkFig11Deadline(b *testing.B) {
	benchFigure(b, func(s *experiment.Suite) (interface{ Table() string }, error) { return s.Fig11() })
}

func BenchmarkHeadline(b *testing.B) {
	benchFigure(b, func(s *experiment.Suite) (interface{ Table() string }, error) { return s.Headline() })
}

func BenchmarkOverhead(b *testing.B) {
	benchFigure(b, func(s *experiment.Suite) (interface{ Table() string }, error) { return s.Overhead() })
}

func BenchmarkIntervalStudy(b *testing.B) {
	benchFigure(b, func(s *experiment.Suite) (interface{ Table() string }, error) { return s.IntervalStudy() })
}

func BenchmarkOfflineOpt(b *testing.B) {
	benchFigure(b, func(s *experiment.Suite) (interface{ Table() string }, error) { return s.OfflineOpt() })
}

func BenchmarkAblationPiecewise(b *testing.B) {
	benchFigure(b, func(s *experiment.Suite) (interface{ Table() string }, error) { return s.PiecewiseAblation() })
}

func BenchmarkAblationReplacement(b *testing.B) {
	benchFigure(b, func(s *experiment.Suite) (interface{ Table() string }, error) { return s.ReplacementAblation() })
}

func BenchmarkComplexitySweep(b *testing.B) {
	benchFigure(b, func(s *experiment.Suite) (interface{ Table() string }, error) { return s.ComplexitySweep() })
}

// --- microbenchmarks of the hot simulator paths ----------------------

// BenchmarkLoadPage is the headline single-run metric: one complete
// measured page load (warmup, governor, browser threads, co-runner)
// per iteration. The ns/sim-ms metric is wall-clock nanoseconds per
// simulated millisecond. Kernel speedups are claimed with
// scripts/bench_ab.sh rows (BENCH_KERNEL.json), not with this number.
func BenchmarkLoadPage(b *testing.B) {
	k, err := corun.ByName("backprop")
	if err != nil {
		b.Fatal(err)
	}
	spec, err := webgen.ByName("Reddit")
	if err != nil {
		b.Fatal(err)
	}
	opts := sim.Options{
		SoC:      soc.NexusFive(),
		Governor: governor.NewInteractive(governor.DefaultInteractiveConfig()),
		Warmup:   500 * time.Millisecond, // the default, explicit so simNs accounting matches
		Seed:     1,
	}
	var simNs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.LoadPage(opts, sim.Workload{Page: spec, CoRun: &k})
		if err != nil {
			b.Fatal(err)
		}
		simNs += int64(res.LoadTime) + int64(opts.Warmup)
	}
	if simNs > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(simNs)/1e6), "ns/sim-ms")
	}
}

// BenchmarkQuantumLoop measures the steady-state quantum loop alone:
// one simulated millisecond per op on a machine with browser-like
// loads on two cores and a memory-heavy co-runner, no telemetry.
// This path must stay at 0 allocs/op (TestQuantumLoopAllocs enforces
// it); machine construction and source attachment are untimed.
func BenchmarkQuantumLoop(b *testing.B) {
	m := quantumLoopMachine(b, 1)
	m.Step(10 * time.Millisecond) // reach steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(time.Millisecond)
	}
}

// quantumLoopMachine builds the machine BenchmarkQuantumLoop and the
// allocation guard share: browser-like kernels on cores 0-1, a
// high-intensity co-runner on core 2.
func quantumLoopMachine(b testing.TB, seed int64) *soc.Machine {
	b.Helper()
	m, err := soc.New(soc.NexusFive(), seed)
	if err != nil {
		b.Fatal(err)
	}
	low, err := corun.Representative(corun.Low)
	if err != nil {
		b.Fatal(err)
	}
	med, err := corun.Representative(corun.Medium)
	if err != nil {
		b.Fatal(err)
	}
	high, err := corun.Representative(corun.High)
	if err != nil {
		b.Fatal(err)
	}
	for i, k := range []corun.Kernel{low, med, high} {
		if err := m.AssignSource(i, workload.Loop(k.New(seed+int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

// BenchmarkAccessN measures the batched cache entry point against the
// same access stream BenchmarkCacheAccess feeds one at a time.
func BenchmarkAccessN(b *testing.B) {
	c, err := cache.New(cache.Config{
		Name: "l2", SizeBytes: 256 << 10, LineBytes: 64, Ways: 16,
		MaxOwners: 4, Replacement: cache.RandomRepl,
	})
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewRefGen(workload.Segment{
		FootprintBytes: 8 << 20, Pattern: workload.Random, Base: 0x1000000,
	}, 1)
	const blk = 256
	addrs := make([]uint64, blk)
	hits := make([]bool, blk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += blk {
		gen.FillBlock(addrs)
		c.AccessN(i&3, addrs, hits)
	}
}

// BenchmarkL1AccessN is BenchmarkAccessN on a private L1: the
// NexusFive geometry after SampleShift scaling (16 KB / 8 = 2 KB,
// 4-way LRU, one owner), which almost every sampled reference probes
// first and almost always misses.
func BenchmarkL1AccessN(b *testing.B) {
	c, err := cache.New(cache.Config{
		Name: "l1", SizeBytes: 2 << 10, LineBytes: 64, Ways: 4,
		MaxOwners: 1, Replacement: cache.LRU,
	})
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewRefGen(workload.Segment{
		FootprintBytes: 8 << 20, Pattern: workload.Random, Base: 0x1000000,
	}, 1)
	const blk = 256
	addrs := make([]uint64, blk)
	hits := make([]bool, blk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += blk {
		gen.FillBlock(addrs)
		c.AccessN(0, addrs, hits)
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c, err := cache.New(cache.Config{
		Name: "l2", SizeBytes: 256 << 10, LineBytes: 64, Ways: 16,
		MaxOwners: 4, Replacement: cache.RandomRepl,
	})
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewRefGen(workload.Segment{
		FootprintBytes: 8 << 20, Pattern: workload.Random, Base: 0x1000000,
	}, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(gen.Next(), i&3)
	}
}

func BenchmarkRefGen(b *testing.B) {
	gen := workload.NewRefGen(workload.Segment{
		FootprintBytes: 4 << 20, Pattern: workload.PointerChase, Base: 0,
	}, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gen.Next()
	}
}

func BenchmarkBusWindow(b *testing.B) {
	bus, err := membus.New(membus.DefaultLPDDR3(), 933)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Add(0, 100)
		if _, err := bus.EndWindow(time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHTMLParse(b *testing.B) {
	spec, err := webgen.ByName("Reddit")
	if err != nil {
		b.Fatal(err)
	}
	html := spec.HTML()
	b.SetBytes(int64(len(html)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := webdoc.Parse(html); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRegressionPredict(b *testing.B) {
	s := suiteForBench(b)
	opp := s.SoC.OPPs.Max()
	x, err := core.InputVector([]float64{2000, 300, 250, 200, 260}, 8, opp, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Models.LoadTime.Predict(opp, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgorithm1Pass(b *testing.B) {
	s := suiteForBench(b)
	page := []float64{2000, 300, 250, 200, 260}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Models.PredictAll(s.SoC.OPPs, page, 8, 1, 45, experiment.Deadline, true); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTelemetryMachine builds a machine with a looping high-intensity
// co-runner for the telemetry-overhead benchmarks.
func benchTelemetryMachine(b *testing.B) *soc.Machine {
	b.Helper()
	k, err := corun.Representative(corun.High)
	if err != nil {
		b.Fatal(err)
	}
	m, err := soc.New(soc.NexusFive(), 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.AssignSource(2, workload.Loop(k.New(1))); err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkTelemetryDisabled measures the per-slice cost of the machine
// with no sink, tracer, or trace callback attached. The disabled path
// must stay allocation-free; TestQuantumLoopAllocs asserts it, OPP
// switches included.
func BenchmarkTelemetryDisabled(b *testing.B) {
	m := benchTelemetryMachine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(time.Millisecond)
	}
}

// BenchmarkTelemetryEnabled is the same workload with a sink and tracer
// attached, to quantify the enabled-path overhead.
func BenchmarkTelemetryEnabled(b *testing.B) {
	m := benchTelemetryMachine(b)
	sink := telemetry.NewSink(telemetry.SinkOptions{})
	sink.Subscribe(func(telemetry.Sample) {})
	m.SetSink(sink)
	m.SetTracer(telemetry.NewTracer())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(time.Millisecond)
	}
}

// BenchmarkSuiteBuildParallel builds the tiny-grid suite end to end
// (campaign, static fit, holdout, model fit) with a 4-way worker pool
// and reports the speedup over an untimed serial build of the same
// grid. The two builds produce bit-identical models, so the metric is
// pure scheduling gain; on a single-CPU machine it reports ~1.
func BenchmarkSuiteBuildParallel(b *testing.B) {
	tc := func(workers int) TrainOptions {
		return TrainOptions{Device: soc.NexusFive(), Seed: 1, Tiny: true, Workers: workers}
	}
	start := time.Now()
	if _, err := experiment.NewSuite(tc(1)); err != nil {
		b.Fatal(err)
	}
	serial := time.Since(start)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.NewSuite(tc(4)); err != nil {
			b.Fatal(err)
		}
	}
	parallel := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup")
	b.ReportMetric(4, "workers")
}

func BenchmarkSimulatedSecond(b *testing.B) {
	// Cost of simulating one virtual second with a browser-like load
	// and a high-intensity co-runner.
	k, err := corun.Representative(corun.High)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := soc.New(soc.NexusFive(), int64(i))
		if err != nil {
			b.Fatal(err)
		}
		m.SetOPP(m.OPP()) // keep floor OPP
		if err := m.AssignSource(2, workload.Loop(k.New(1))); err != nil {
			b.Fatal(err)
		}
		m.Step(time.Second)
	}
}
