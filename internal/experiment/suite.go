// Package experiment reproduces every table and figure of the DORA
// paper's evaluation (Section V) on the simulated device: the
// characterization figures (Fig. 1-3), the workload classification
// (Table III), model accuracy CDFs (Fig. 5), sensitivity analysis
// (Fig. 6), the governor comparison (Fig. 7-9), the leakage ablation
// (Fig. 10), the deadline sweep (Fig. 11), the controller overhead
// analysis (Section V-H), and the headline energy-efficiency numbers.
//
// A Suite owns the trained models and memoizes page-load runs, so the
// full figure set shares one measurement matrix the way the paper's
// evaluation shares one set of phone experiments.
package experiment

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dora/internal/clock"
	"dora/internal/core"
	"dora/internal/corun"
	"dora/internal/fidelity"
	"dora/internal/governor"
	"dora/internal/memo"
	"dora/internal/pool"
	"dora/internal/runcache"
	"dora/internal/sim"
	"dora/internal/soc"
	"dora/internal/telemetry"
	"dora/internal/train"
	"dora/internal/webgen"
)

// Deadline is the paper's default QoS target.
const Deadline = 3 * time.Second

// Suite carries trained models and caches run results.
type Suite struct {
	SoC    soc.Config
	Models *core.Models
	Static core.StaticPower
	// TrainReport holds training-set accuracy; HoldoutReport the
	// Webpage-Neutral accuracy (Fig. 5 uses both).
	TrainReport   train.Report
	HoldoutReport train.Report
	Observations  []train.Observation
	Seed          int64

	// Metrics, when set, counts suite activity (runs executed, memo
	// cache hits) alongside the per-run simulation metrics.
	Metrics *telemetry.Registry

	// Workers bounds Prefetch fan-out (0 = pool.DefaultSize()).
	Workers int
	// RunCache, when set, persists run results across processes; a warm
	// cache serves repeat runs without touching the simulator.
	RunCache *runcache.Cache

	// Clock times the wall-clock portions of the overhead analysis
	// (nil = the monotonic wall clock); tests inject a manual clock so
	// the measurement itself is deterministic.
	Clock clock.Clock

	// FidelityParams tunes sampled-fidelity runs requested through
	// RunOptions.Fidelity (zero = defaults).
	FidelityParams fidelity.Params
	// ckpts shares warm-state checkpoints across the suite's sampled
	// runs (harmless to exact runs, which never consult it).
	ckpts *sim.CheckpointStore

	// runs and kernels memoize measurements by RunOptions and by
	// kernel name; newMemos builds both.
	runs    *memo.Group[RunOptions, sim.Result]
	kernels *memo.Group[string, sim.Result]

	fpOnce sync.Once
	fp     string
}

// newMemos returns the suite's two measurement memos. Both keep every
// successful result for the suite's lifetime.
func newMemos() (*memo.Group[RunOptions, sim.Result], *memo.Group[string, sim.Result]) {
	return memo.New[RunOptions, sim.Result](context.Background(), true),
		memo.New[string, sim.Result](context.Background(), true)
}

// fingerprint lazily hashes the suite's device configuration for
// persistent cache keys.
func (s *Suite) fingerprint() string {
	s.fpOnce.Do(func() { s.fp = sim.ConfigFingerprint(s.SoC) })
	return s.fp
}

// TrainingConfig controls how the suite's models are produced.
type TrainingConfig struct {
	SoC  soc.Config
	Seed int64
	// Fast shrinks the campaign grid (fewer pages/frequencies) for
	// tests; figures built from a Fast suite keep their shape but not
	// their full resolution.
	Fast bool
	// Tiny shrinks the grid further still (4 pages, 3 intensities) —
	// for benchmarks that must build several suites per process. Wins
	// over Fast.
	Tiny bool
	// Workers bounds the campaign fan-out and the suite's Prefetch
	// width (0 = pool.DefaultSize(), 1 = serial).
	Workers int
	// Cache, when set, persists both campaign cells and suite run
	// results across processes.
	Cache *runcache.Cache
	// Fidelity selects the campaign simulation mode (default exact).
	// Sampled trades ≤2% observable error for a multi-x campaign
	// speedup; see DESIGN.md §10.
	Fidelity fidelity.Mode
	// FidelityParams tunes the sampled-mode detector (zero = defaults).
	FidelityParams fidelity.Params
}

// NewSuite runs the training pipeline and returns a ready suite.
func NewSuite(cfg TrainingConfig) (*Suite, error) {
	tc := train.Config{SoC: cfg.SoC, Seed: cfg.Seed, Workers: cfg.Workers, Cache: cfg.Cache,
		Fidelity: cfg.Fidelity, FidelityParams: cfg.FidelityParams}
	switch {
	case cfg.Tiny:
		tc.Pages = []string{"Alipay", "Reddit", "MSN", "Hao123"}
		tc.Intensities = []corun.Intensity{corun.None, corun.Low, corun.High}
		tc.FreqsMHz = []int{652, 729, 960, 1190, 1497, 1728, 1958, 2265}
	case cfg.Fast:
		tc.Pages = []string{"Alipay", "Twitter", "MSN", "Reddit", "Amazon", "ESPN", "Hao123", "Aliexpress"}
		tc.FreqsMHz = []int{652, 729, 883, 960, 1190, 1267, 1497, 1728, 1958, 2265}
	}
	obs, err := train.Campaign(tc)
	if err != nil {
		return nil, fmt.Errorf("experiment: campaign: %w", err)
	}
	static, err := train.FitStatic(train.Config{SoC: cfg.SoC, Seed: cfg.Seed, Workers: cfg.Workers, Cache: cfg.Cache})
	if err != nil {
		return nil, fmt.Errorf("experiment: static fit: %w", err)
	}
	models, rep, err := train.Fit(obs, static, 30)
	if err != nil {
		return nil, fmt.Errorf("experiment: model fit: %w", err)
	}
	s := &Suite{
		SoC:            cfg.SoC,
		Models:         models,
		Static:         static,
		TrainReport:    rep,
		Observations:   obs,
		Seed:           cfg.Seed,
		Workers:        cfg.Workers,
		RunCache:       cfg.Cache,
		FidelityParams: cfg.FidelityParams,
		ckpts:          sim.NewCheckpointStore(),
	}
	s.runs, s.kernels = newMemos()
	// Holdout (Webpage-Neutral) accuracy: measure the 4 held-out pages
	// and evaluate the trained models on them.
	hc := train.Config{SoC: cfg.SoC, Seed: cfg.Seed + 10_000, Pages: webgen.HoldoutNames(),
		Fidelity: cfg.Fidelity, FidelityParams: cfg.FidelityParams,
		Workers: cfg.Workers, Cache: cfg.Cache}
	if cfg.Tiny || cfg.Fast {
		hc.Pages = hc.Pages[:2]
		hc.FreqsMHz = tc.FreqsMHz
		hc.Intensities = tc.Intensities
	}
	hobs, err := train.Campaign(hc)
	if err != nil {
		return nil, fmt.Errorf("experiment: holdout campaign: %w", err)
	}
	s.HoldoutReport, err = train.Evaluate(models, hobs)
	if err != nil {
		return nil, fmt.Errorf("experiment: holdout eval: %w", err)
	}
	return s, nil
}

// NewGovernor builds a fresh governor instance by paper name from the
// core governor table, with the suite's trained models.
func (s *Suite) NewGovernor(name string) (governor.Governor, time.Duration, error) {
	return core.NewGovernor(name, s.Models)
}

// RunOptions identify one memoized measurement.
type RunOptions struct {
	Page       string
	Intensity  corun.Intensity
	KernelIdx  int // rotation index for PickFor
	Governor   string
	Deadline   time.Duration
	FixedMHz   int     // >0 pins a fixed OPP instead of Governor
	AmbientC   float64 // 0 = default
	StartTempC float64 // 0 = default prewarm
	Warmup     time.Duration
	// Fidelity selects the simulation mode for this run (default
	// exact). A fidelity.Mode is a plain int, so RunOptions stays
	// comparable and remains its own memo key — exact and sampled runs
	// of the same cell can never alias in the memo or the run cache.
	Fidelity fidelity.Mode
}

// Run executes (or returns the cached) measurement for the options.
// The normalized RunOptions value itself is the memo key, so the cache
// never aliases two distinct option sets. Concurrent calls with equal
// options are deduplicated: one runs the simulator, the rest wait on
// it — which is what makes naive Prefetch lists (that may repeat an
// option) cost one simulation per distinct option.
func (s *Suite) Run(o RunOptions) (sim.Result, error) {
	return s.RunCtx(context.Background(), o)
}

// RunCtx is Run with cooperative cancellation, under the memo package's
// rules: the measurement runs detached and is aborted only once every
// caller waiting on it has gone, a caller whose own context dies
// returns its ctx.Err(), and live callers retry after an aborted
// measurement, so one impatient caller never poisons the memo for the
// rest.
func (s *Suite) RunCtx(ctx context.Context, o RunOptions) (sim.Result, error) {
	if o.Deadline == 0 {
		o.Deadline = Deadline
	}
	r, out, err := s.runs.Do(ctx, o, func(ctx context.Context) (sim.Result, error) {
		return s.measure(ctx, o)
	})
	switch out {
	case memo.Kept:
		s.Metrics.Counter("dora_suite_cache_hits_total", "memoized measurements served from cache").Inc()
	case memo.Joined:
		s.Metrics.Counter("dora_suite_inflight_dedup_total", "duplicate concurrent measurements coalesced").Inc()
	}
	return r, err
}

// measure performs the actual measurement for normalized options,
// consulting the persistent run cache first.
func (s *Suite) measure(ctx context.Context, o RunOptions) (sim.Result, error) {
	var key string
	if s.RunCache != nil {
		key = runcache.Key("suite-run", s.fingerprint(), s.Seed, o)
		var r sim.Result
		if s.RunCache.Get(key, &r) {
			s.Metrics.Counter("dora_suite_runcache_hits_total", "measurements served from the persistent run cache").Inc()
			return r, nil
		}
	}
	spec, err := webgen.ByName(o.Page)
	if err != nil {
		return sim.Result{}, err
	}
	var gov governor.Governor
	interval := 20 * time.Millisecond
	if o.FixedMHz > 0 {
		opp, err := s.SoC.OPPs.ByFreq(o.FixedMHz)
		if err != nil {
			return sim.Result{}, err
		}
		gov = governor.NewFixed(opp)
	} else {
		gov, interval, err = s.NewGovernor(o.Governor)
		if err != nil {
			return sim.Result{}, err
		}
	}
	wl := sim.Workload{Page: spec}
	if o.Intensity != corun.None {
		k, err := corun.PickFor(o.Intensity, o.KernelIdx)
		if err != nil {
			return sim.Result{}, err
		}
		wl.CoRun = &k
	}
	opts := sim.Options{
		SoC:              s.SoC,
		Governor:         gov,
		Deadline:         o.Deadline,
		DecisionInterval: interval,
		Seed:             s.Seed + int64(o.KernelIdx)*31 + int64(len(o.Page)),
		AmbientC:         o.AmbientC,
		Warmup:           o.Warmup,
		Metrics:          s.Metrics,
		Fidelity:         o.Fidelity,
		FidelityParams:   s.FidelityParams,
		Checkpoints:      s.ckpts,
	}
	s.Metrics.Counter("dora_suite_runs_total", "measurements executed (cache misses)").Inc()
	if o.StartTempC != 0 {
		opts.StartTempC = o.StartTempC
	} else if o.AmbientC != 0 && o.AmbientC < 20 {
		opts.StartTempC = o.AmbientC + 2
	}
	r, err := sim.LoadPageCtx(ctx, opts, wl)
	if err != nil {
		return sim.Result{}, err
	}
	s.RunCache.Put(key, r)
	return r, nil
}

// Prefetch measures the given options concurrently, bounded by
// s.Workers, so the serial per-figure loops that follow are pure memo
// lookups. Duplicate options cost one simulation (singleflight). The
// per-run seed depends only on the options, so a prefetched matrix is
// bit-identical to one built serially.
func (s *Suite) Prefetch(opts []RunOptions) error {
	//doralint:allow detflow pool width (DORA_WORKERS) only warms the run cache concurrently; Run is deterministic per options, so the cache contents are width-invariant
	return pool.Run(len(opts), s.Workers, func(i int) error {
		_, err := s.Run(opts[i])
		return err
	})
}

// WorkloadCombo is one of the 54 evaluated combinations.
type WorkloadCombo struct {
	Index     int
	Page      string
	Intensity corun.Intensity
	Inclusive bool // page was in the training set
}

// Combos returns the paper's 54 workload combinations: 18 pages x 3
// interference intensities, kernels rotated deterministically within
// each intensity class.
func Combos() []WorkloadCombo {
	var out []WorkloadCombo
	idx := 0
	for pi, page := range webgen.Names() {
		for _, in := range []corun.Intensity{corun.Low, corun.Medium, corun.High} {
			out = append(out, WorkloadCombo{
				Index:     idx,
				Page:      page,
				Intensity: in,
				Inclusive: !webgen.IsHoldout(page),
			})
			idx++
			_ = pi
		}
	}
	return out
}

// KernelIdxFor gives the rotation index used for a combo (stable by
// page position so the same page+intensity always gets one kernel).
func KernelIdxFor(c WorkloadCombo) int { return c.Index / 3 }
