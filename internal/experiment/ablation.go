package experiment

import (
	"fmt"
	"time"

	"dora/internal/cache"
	"dora/internal/core"
	"dora/internal/corun"
	"dora/internal/pool"
	"dora/internal/regress"
	"dora/internal/runcache"
	"dora/internal/sim"
	"dora/internal/soc"
	"dora/internal/stats"
	"dora/internal/tablefmt"
	"dora/internal/webgen"
	"dora/internal/workload"
)

// IntervalResult reproduces the paper's Section IV-C decision-interval
// study: DORA evaluated at 50, 100 and 250 ms.
type IntervalResult struct {
	Intervals []time.Duration
	// MeanNormPPW and MissFrac per interval, over a sample of
	// workloads.
	MeanNormPPW []float64
	MissFrac    []float64
	Switches    []float64
}

// IntervalStudy evaluates DORA's decision-interval choices over a
// representative workload slice.
func (s *Suite) IntervalStudy() (*IntervalResult, error) {
	workloads := []struct {
		page string
		in   corun.Intensity
	}{
		{"Reddit", corun.High}, {"MSN", corun.Medium}, {"Amazon", corun.Low},
		{"ESPN", corun.Medium}, {"Hao123", corun.High}, {"Twitter", corun.Low},
	}
	intervals := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond}
	var wanted []RunOptions
	for wi, wl := range workloads {
		wanted = append(wanted, RunOptions{Page: wl.page, Intensity: wl.in, KernelIdx: wi, Governor: "interactive"})
	}
	if err := s.Prefetch(wanted); err != nil {
		return nil, err
	}
	// The interval-varying DORA runs bypass the Run memo (RunOptions has
	// no interval field — 100 ms is the paper's fixed choice everywhere
	// else), so they fan out through the pool directly. Each cell's seed
	// depends only on its workload index, keeping the sweep
	// deterministic at any width.
	type cell struct {
		interval time.Duration
		wi       int
	}
	var cells []cell
	for _, interval := range intervals {
		for wi := range workloads {
			cells = append(cells, cell{interval, wi})
		}
	}
	results := make([]sim.Result, len(cells))
	//doralint:allow detflow pool width (DORA_WORKERS) only schedules independent cells; each result is computed from its own seeded model and written to a fixed index, so observables are width-invariant
	if err := pool.Run(len(cells), s.Workers, func(i int) error {
		c := cells[i]
		wl := workloads[c.wi]
		var key string
		if s.RunCache != nil {
			key = runcache.Key("interval-study", s.fingerprint(), s.Seed, wl.page, wl.in, c.wi, c.interval)
			if s.RunCache.Get(key, &results[i]) {
				s.Metrics.Counter("dora_suite_runcache_hits_total", "measurements served from the persistent run cache").Inc()
				return nil
			}
		}
		gov, _, err := s.NewGovernor("DORA")
		if err != nil {
			return err
		}
		spec, err := webgen.ByName(wl.page)
		if err != nil {
			return err
		}
		k, err := corun.PickFor(wl.in, c.wi)
		if err != nil {
			return err
		}
		r, err := sim.LoadPage(sim.Options{
			SoC:              s.SoC,
			Governor:         gov,
			Deadline:         Deadline,
			DecisionInterval: c.interval,
			Seed:             s.Seed + int64(c.wi),
		}, sim.Workload{Page: spec, CoRun: &k})
		if err != nil {
			return err
		}
		results[i] = r
		s.RunCache.Put(key, r)
		return nil
	}); err != nil {
		return nil, err
	}
	res := &IntervalResult{}
	for ii, interval := range intervals {
		var norms []float64
		miss, switches := 0, 0
		for wi, wl := range workloads {
			base, err := s.Run(RunOptions{Page: wl.page, Intensity: wl.in, KernelIdx: wi, Governor: "interactive"})
			if err != nil {
				return nil, err
			}
			r := results[ii*len(workloads)+wi]
			if base.PPW > 0 {
				norms = append(norms, r.PPW/base.PPW)
			}
			if !r.DeadlineMet {
				miss++
			}
			switches += r.Switches
		}
		res.Intervals = append(res.Intervals, interval)
		res.MeanNormPPW = append(res.MeanNormPPW, stats.Mean(norms))
		res.MissFrac = append(res.MissFrac, float64(miss)/float64(len(workloads)))
		res.Switches = append(res.Switches, float64(switches)/float64(len(workloads)))
	}
	return res, nil
}

// Table renders the interval study.
func (r *IntervalResult) Table() string {
	t := tablefmt.New("Section IV-C — DORA decision-interval study",
		"interval", "mean_ppw_vs_interactive", "deadline_miss_frac", "switches_per_load")
	for i, iv := range r.Intervals {
		t.AddRow(iv.String(), r.MeanNormPPW[i], r.MissFrac[i], r.Switches[i])
	}
	return t.String()
}

// PiecewiseAblationResult compares the paper's piecewise-per-bus-tier
// load-time model against a single pooled model over all tiers.
type PiecewiseAblationResult struct {
	PiecewiseMAPE float64
	PooledMAPE    float64
}

// PiecewiseAblation refits the load-time model without the piecewise
// split and compares accuracy on the suite's observations.
func (s *Suite) PiecewiseAblation() (*PiecewiseAblationResult, error) {
	obs := s.Observations
	if len(obs) == 0 {
		return nil, fmt.Errorf("experiment: suite has no observations")
	}
	feat := core.FeatureNames()
	xs := make([][]float64, len(obs))
	yt := make([]float64, len(obs))
	for i, o := range obs {
		xs[i] = o.X
		yt[i] = o.LoadTimeS
	}
	surface := regress.Interaction
	if len(obs) < surface.TermCount(len(feat))+2 {
		surface = regress.Linear
	}
	pooled, err := regress.Fit(surface, feat, xs, yt)
	if err != nil {
		return nil, err
	}
	pred, err := pooled.PredictAll(xs)
	if err != nil {
		return nil, err
	}
	pooledMAPE, err := stats.MAPE(pred, yt)
	if err != nil {
		return nil, err
	}
	return &PiecewiseAblationResult{
		PiecewiseMAPE: s.TrainReport.TimeMetrics.MAPE,
		PooledMAPE:    pooledMAPE,
	}, nil
}

// Table renders the piecewise ablation.
func (r *PiecewiseAblationResult) Table() string {
	t := tablefmt.New("Ablation — piecewise (per bus tier) vs pooled load-time model",
		"model", "mean_error_pct")
	t.AddRow("piecewise (paper)", r.PiecewiseMAPE*100)
	t.AddRow("pooled", r.PooledMAPE*100)
	return t.String()
}

// ReplacementAblationResult quantifies how much of the measured
// interference depends on the L2's pseudo-random replacement.
type ReplacementAblationResult struct {
	RandomSlowdown float64 // high-interference slowdown with random repl.
	LRUSlowdown    float64 // same with an LRU L2
}

// ReplacementAblation reruns the Fig. 1-style victim experiment with an
// LRU shared L2.
func (s *Suite) ReplacementAblation() (*ReplacementAblationResult, error) {
	measure := func(lru bool) (float64, error) {
		cfg := s.SoC
		slow, err := victimSlowdown(cfg, s.Seed, lru)
		if err != nil {
			return 0, err
		}
		return slow, nil
	}
	random, err := measure(false)
	if err != nil {
		return nil, err
	}
	lru, err := measure(true)
	if err != nil {
		return nil, err
	}
	return &ReplacementAblationResult{RandomSlowdown: random, LRUSlowdown: lru}, nil
}

// victimSlowdown measures Reddit's high-interference slowdown at the
// top frequency with the chosen L2 replacement policy.
func victimSlowdown(cfg soc.Config, seed int64, lru bool) (float64, error) {
	if lru {
		cfg.L2Replacement = cache.LRU
	} else {
		cfg.L2Replacement = cache.RandomRepl
	}
	run := func(withCo bool) (time.Duration, error) {
		m, err := soc.New(cfg, seed)
		if err != nil {
			return 0, err
		}
		m.SetOPP(cfg.OPPs.Max())
		spec, err := webgen.ByName("Reddit")
		if err != nil {
			return 0, err
		}
		plan, err := sim.PagePlan(spec)
		if err != nil {
			return 0, err
		}
		if withCo {
			k, err := corun.Representative(corun.High)
			if err != nil {
				return 0, err
			}
			if err := m.AssignSource(sim.CoRunCore, workload.Loop(k.New(seed+1))); err != nil {
				return 0, err
			}
			m.Step(500 * time.Millisecond)
		}
		start := m.Now()
		if err := m.AssignSource(sim.BrowserMainCore, plan.MainSource()); err != nil {
			return 0, err
		}
		if err := m.AssignSource(sim.BrowserHelperCore, plan.HelperSource()); err != nil {
			return 0, err
		}
		for !(m.CoreDone(sim.BrowserMainCore) && m.CoreDone(sim.BrowserHelperCore)) &&
			m.Now()-start < 60*time.Second {
			m.Step(10 * time.Millisecond)
		}
		return m.Now() - start, nil
	}
	alone, err := run(false)
	if err != nil {
		return 0, err
	}
	crowded, err := run(true)
	if err != nil {
		return 0, err
	}
	return float64(crowded)/float64(alone) - 1, nil
}

// Table renders the replacement ablation.
func (r *ReplacementAblationResult) Table() string {
	t := tablefmt.New("Ablation — shared-L2 replacement policy vs interference magnitude",
		"l2_replacement", "high_interference_slowdown_pct")
	t.AddRow("pseudo-random (Krait-class)", r.RandomSlowdown*100)
	t.AddRow("LRU", r.LRUSlowdown*100)
	return t.String()
}

// OfflineOptResult compares DORA against the static offline-optimal
// frequency (the paper's Offline_opt reference) on a workload sample.
type OfflineOptResult struct {
	Workloads    int
	DORAMeanNorm float64 // vs interactive
	OptMeanNorm  float64
}

// OfflineOpt enumerates all fixed frequencies for ten workloads (as the
// paper does — full enumeration everywhere is prohibitive) and keeps
// the best deadline-meeting PPW.
func (s *Suite) OfflineOpt() (*OfflineOptResult, error) {
	combos := Combos()
	sample := []int{1, 7, 13, 19, 25, 31, 37, 43, 49, 53} // spread over the 54
	res := &OfflineOptResult{Workloads: len(sample)}
	var wanted []RunOptions
	for _, ci := range sample {
		c := combos[ci]
		wanted = append(wanted,
			RunOptions{Page: c.Page, Intensity: c.Intensity, KernelIdx: KernelIdxFor(c), Governor: "interactive"},
			RunOptions{Page: c.Page, Intensity: c.Intensity, KernelIdx: KernelIdxFor(c), Governor: "DORA"})
		for _, opp := range s.SoC.OPPs.PaperSubset() {
			wanted = append(wanted, RunOptions{Page: c.Page, Intensity: c.Intensity, KernelIdx: KernelIdxFor(c), FixedMHz: opp.FreqMHz, Governor: "fixed"})
		}
	}
	if err := s.Prefetch(wanted); err != nil {
		return nil, err
	}
	var dn, on []float64
	for _, ci := range sample {
		c := combos[ci]
		base, err := s.Run(RunOptions{Page: c.Page, Intensity: c.Intensity, KernelIdx: KernelIdxFor(c), Governor: "interactive"})
		if err != nil {
			return nil, err
		}
		dora, err := s.Run(RunOptions{Page: c.Page, Intensity: c.Intensity, KernelIdx: KernelIdxFor(c), Governor: "DORA"})
		if err != nil {
			return nil, err
		}
		bestPPW, anyMet := 0.0, false
		var fallback float64
		for _, opp := range s.SoC.OPPs.PaperSubset() {
			r, err := s.Run(RunOptions{Page: c.Page, Intensity: c.Intensity, KernelIdx: KernelIdxFor(c), FixedMHz: opp.FreqMHz, Governor: "fixed"})
			if err != nil {
				return nil, err
			}
			if r.DeadlineMet && r.PPW > bestPPW {
				bestPPW, anyMet = r.PPW, true
			}
			if opp.FreqMHz == 2265 {
				fallback = r.PPW
			}
		}
		if !anyMet {
			bestPPW = fallback // infeasible: fastest load, like DORA
		}
		if base.PPW > 0 {
			dn = append(dn, dora.PPW/base.PPW)
			on = append(on, bestPPW/base.PPW)
		}
	}
	res.DORAMeanNorm = stats.Mean(dn)
	res.OptMeanNorm = stats.Mean(on)
	return res, nil
}

// Table renders the offline-optimal comparison.
func (r *OfflineOptResult) Table() string {
	t := tablefmt.New("Offline_opt — DORA vs static offline-optimal frequency (10 workloads)",
		"policy", "mean_ppw_vs_interactive")
	t.AddRow("Offline_opt", r.OptMeanNorm)
	t.AddRow("DORA", r.DORAMeanNorm)
	return t.String() + fmt.Sprintf("DORA achieves %.1f%% of the offline-optimal efficiency gain\n",
		safePct(r.DORAMeanNorm-1, r.OptMeanNorm-1))
}

func safePct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b * 100
}
