// Package train implements the paper's offline training methodology
// (Section IV-C): a measurement campaign of fixed-frequency page loads
// across the 14 training pages, the interference intensity classes and
// the OPP ladder, followed by least-squares fitting of the piecewise
// load-time and dynamic-power response surfaces and a Nelder-Mead fit
// of the Eq. (5) static/leakage model from idle sweeps.
package train

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"dora/internal/core"
	"dora/internal/corun"
	"dora/internal/dvfs"
	"dora/internal/fidelity"
	"dora/internal/governor"
	"dora/internal/nlfit"
	"dora/internal/pool"
	"dora/internal/regress"
	"dora/internal/runcache"
	"dora/internal/sim"
	"dora/internal/soc"
	"dora/internal/stats"
	"dora/internal/webgen"
)

// Observation is one labelled measurement.
type Observation struct {
	Page      string
	Kernel    string
	Intensity corun.Intensity
	FreqMHz   int
	BusMHz    int
	VoltV     float64

	X         []float64 // the 9 Table I inputs
	LoadTimeS float64
	PowerW    float64 // whole-device average power over the load
	AvgTempC  float64
	Met3s     bool
}

// Config controls the campaign.
type Config struct {
	SoC soc.Config
	// Pages defaults to the 14 training pages.
	Pages []string
	// Intensities defaults to none/low/medium/high.
	Intensities []corun.Intensity
	// FreqsMHz defaults to the OPP ladder from 652 MHz up (the two
	// lowest settings are outside the paper's operating range and are
	// never chosen by any governor under study).
	FreqsMHz []int
	Seed     int64
	// Warmup shortens the per-run lead-in for campaign speed.
	Warmup time.Duration
	// Workers bounds the measurement fan-out (0 = pool.DefaultSize(),
	// 1 = serial). Any width produces bit-identical observations: each
	// grid cell's seed derives from its (page, kernel, frequency)
	// position, never from execution order.
	Workers int
	// Cache, when set, serves previously measured cells from the
	// persistent run cache and records fresh measurements into it.
	Cache *runcache.Cache
	// Fidelity selects the simulation mode for campaign cells (default
	// exact; the golden campaign fingerprint is pinned to exact).
	// Sampled campaigns share one warm-checkpoint store across all
	// cells and workers.
	Fidelity fidelity.Mode
	// FidelityParams tunes the sampled-mode detector (zero = defaults).
	FidelityParams fidelity.Params
}

func (c *Config) fillDefaults() {
	if c.Pages == nil {
		c.Pages = webgen.TrainingNames()
	}
	if c.Intensities == nil {
		c.Intensities = []corun.Intensity{corun.None, corun.Low, corun.Medium, corun.High}
	}
	if c.FreqsMHz == nil {
		for _, opp := range c.SoC.OPPs.All() {
			if opp.FreqMHz >= 652 {
				c.FreqsMHz = append(c.FreqsMHz, opp.FreqMHz)
			}
		}
	}
	if c.Warmup == 0 {
		c.Warmup = 300 * time.Millisecond
	}
}

// gridCell is one (page, intensity, frequency) combination of the
// measurement grid, with its identity-derived seed precomputed so the
// cell measures identically regardless of which worker runs it when.
type gridCell struct {
	page      string
	spec      webgen.Spec
	intensity corun.Intensity
	kname     string
	kernel    *corun.Kernel
	opp       dvfs.OPP
	seed      int64
}

// grid enumerates the campaign cells in the canonical page-major,
// intensity-middle, frequency-minor order. Each cell's seed is
// Seed + 1 + its flat index — exactly the numbering the serial loop
// used, so campaigns are byte-identical across pool widths and to
// observation files recorded before the pool existed.
func (c Config) grid() ([]gridCell, error) {
	var cells []gridCell
	for pi, page := range c.Pages {
		spec, err := webgen.ByName(page)
		if err != nil {
			return nil, err
		}
		for _, in := range c.Intensities {
			var kptr *corun.Kernel
			kname := "none"
			if in != corun.None {
				k, err := corun.PickFor(in, pi)
				if err != nil {
					return nil, err
				}
				kptr, kname = &k, k.Name
			}
			for _, f := range c.FreqsMHz {
				opp, err := c.SoC.OPPs.ByFreq(f)
				if err != nil {
					return nil, err
				}
				cells = append(cells, gridCell{
					page:      page,
					spec:      spec,
					intensity: in,
					kname:     kname,
					kernel:    kptr,
					opp:       opp,
					seed:      c.Seed + int64(len(cells)) + 1,
				})
			}
		}
	}
	return cells, nil
}

// measureCell simulates one grid cell and labels the result.
func measureCell(cfg Config, c gridCell, ckpts *sim.CheckpointStore) (Observation, error) {
	r, err := sim.LoadPage(sim.Options{
		SoC:            cfg.SoC,
		Governor:       governor.NewFixed(c.opp),
		Seed:           c.seed,
		Warmup:         cfg.Warmup,
		Fidelity:       cfg.Fidelity,
		FidelityParams: cfg.FidelityParams,
		Checkpoints:    ckpts,
	}, sim.Workload{Page: c.spec, CoRun: c.kernel})
	if err != nil {
		return Observation{}, fmt.Errorf("train: %s+%s@%d: %w", c.page, c.kname, c.opp.FreqMHz, err)
	}
	x, err := core.InputVector(r.Features.Vector(), r.AvgCoRunMPKI, c.opp, r.AvgCoRunUtil)
	if err != nil {
		return Observation{}, err
	}
	return Observation{
		Page:      c.page,
		Kernel:    c.kname,
		Intensity: c.intensity,
		FreqMHz:   c.opp.FreqMHz,
		BusMHz:    c.opp.BusFreqMHz,
		VoltV:     c.opp.VoltageV,
		X:         x,
		LoadTimeS: r.LoadTime.Seconds(),
		PowerW:    r.AvgPowerW,
		AvgTempC:  r.AvgSoCTempC,
		Met3s:     r.DeadlineMet,
	}, nil
}

// Campaign runs the fixed-frequency measurement sweep and returns the
// labelled observations (pages x intensities x frequencies). Cells are
// measured by cfg.Workers concurrent workers; per-cell seeds are
// derived from grid position, so the output is identical at any width.
func Campaign(cfg Config) ([]Observation, error) {
	cfg.fillDefaults()
	if cfg.SoC.OPPs == nil {
		return nil, errors.New("train: missing OPP table")
	}
	cells, err := cfg.grid()
	if err != nil {
		return nil, err
	}
	if len(cells) == 0 {
		return nil, nil
	}
	var fp string
	if cfg.Cache != nil {
		fp = sim.ConfigFingerprint(cfg.SoC)
	}
	// Sampled campaigns share one warm-checkpoint store: any cells that
	// agree on everything the warmup depends on resume from whichever
	// worker warmed the state first (the content is a pure function of
	// the key, so results stay identical at any pool width).
	var ckpts *sim.CheckpointStore
	if cfg.Fidelity == fidelity.Sampled {
		ckpts = sim.NewCheckpointStore()
	}
	out := make([]Observation, len(cells))
	//doralint:allow detflow pool width (DORA_WORKERS) only schedules independent cells; each observation is seeded per cell and written to a fixed index, so the dataset is width-invariant
	err = pool.Run(len(cells), cfg.Workers, func(i int) error {
		c := cells[i]
		var key string
		if cfg.Cache != nil {
			key = runcache.Key("train-observation", ObservationFileVersion, fp,
				c.page, c.kname, c.opp.FreqMHz, c.seed, cfg.Warmup,
				cfg.Fidelity.String(), cfg.FidelityParams)
			if cfg.Cache.Get(key, &out[i]) {
				return nil
			}
		}
		obs, err := measureCell(cfg, c, ckpts)
		if err != nil {
			return err
		}
		out[i] = obs
		cfg.Cache.Put(key, obs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FitStatic measures idle device power across the OPP ladder and a
// temperature sweep, then fits the Eq. (5) leakage form plus a constant
// floor. This mirrors isolating static power on the bench: no workload
// is running, so everything measured is leakage + fixed components.
func FitStatic(cfg Config) (core.StaticPower, error) {
	cfg.fillDefaults()
	var key string
	if cfg.Cache != nil {
		// The idle sweep and fit are fully determined by the device
		// configuration, the frequency list and the seed, so the fitted
		// parameters can be cached whole.
		key = runcache.Key("static-power", ObservationFileVersion,
			sim.ConfigFingerprint(cfg.SoC), cfg.FreqsMHz, cfg.Seed)
		var cached core.StaticPower
		if cfg.Cache.Get(key, &cached) {
			return cached, nil
		}
	}
	type idleCell struct {
		opp  dvfs.OPP
		temp float64
	}
	var cells []idleCell
	for _, f := range cfg.FreqsMHz {
		opp, err := cfg.SoC.OPPs.ByFreq(f)
		if err != nil {
			return core.StaticPower{}, err
		}
		for _, temp := range []float64{25, 35, 45, 55, 65} {
			cells = append(cells, idleCell{opp, temp})
		}
	}
	type sample struct {
		v, t, p float64
	}
	samples := make([]sample, len(cells))
	//doralint:allow detflow pool width (DORA_WORKERS) only schedules independent cells; each sample is seeded per cell and written to a fixed index, so observables are width-invariant
	if err := pool.Run(len(cells), cfg.Workers, func(i int) error {
		cell := cells[i]
		m, err := soc.New(cfg.SoC, cfg.Seed)
		if err != nil {
			return err
		}
		m.SetOPP(cell.opp)
		m.Prewarm(cell.temp)
		// A few slices to settle the meters; idle cores burn no
		// dynamic power, so LastPower is the static component.
		m.Step(5 * time.Millisecond)
		samples[i] = sample{cell.opp.VoltageV, m.SoCTemp(), m.LastPower().Total()}
		return nil
	}); err != nil {
		return core.StaticPower{}, err
	}
	// params = [k1, alpha, beta, k2, gamma, delta, const]
	model := func(p, x []float64) float64 {
		if p[0] < 0 || p[3] < 0 {
			return 1e9 // forbid negative leakage coefficients
		}
		return core.StaticPower{Params: p[:6], ConstW: p[6]}.At(x[0], x[1])
	}
	xs := make([][]float64, len(samples))
	ys := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = []float64{s.v, s.t}
		ys[i] = s.p
	}
	obj := nlfit.SumSquaredResiduals(model, xs, ys)
	start := []float64{1e-5, 1.5, 0.01, 0.1, 1.0, -1.5, 1.0}
	res, err := nlfit.Minimize(obj, start, nlfit.Options{MaxIter: 80000, Tol: 1e-14})
	if err != nil {
		return core.StaticPower{}, err
	}
	sp := core.StaticPower{Params: res.X[:6], ConstW: res.X[6]}
	cfg.Cache.Put(key, sp)
	return sp, nil
}

// Report summarizes a training run.
type Report struct {
	Observations int
	TimeMetrics  regress.Metrics
	PowerMetrics regress.Metrics
	// TimeErrors and PowerErrors are the per-observation absolute
	// relative errors (for the Fig. 5 CDFs).
	TimeErrors  []float64
	PowerErrors []float64
}

// Fit trains the piecewise models from campaign observations, using
// the paper's selected surfaces: interaction for load time, linear for
// dynamic power.
func Fit(obs []Observation, static core.StaticPower) (*core.Models, Report, error) {
	if len(obs) == 0 {
		return nil, Report{}, errors.New("train: no observations")
	}
	feat := core.FeatureNames()
	byBus := map[int][]Observation{}
	for _, o := range obs {
		byBus[o.BusMHz] = append(byBus[o.BusMHz], o)
	}
	lt := core.NewPiecewise()
	dp := core.NewPiecewise()
	linTerms := regress.Linear.TermCount(len(feat))
	// Fit tiers in ascending bus order: the per-tier fits are
	// independent, but on failure the error that surfaces (and any
	// future per-tier diagnostics) must not depend on map order.
	buses := make([]int, 0, len(byBus))
	for bus := range byBus {
		buses = append(buses, bus)
	}
	sort.Ints(buses)
	for _, bus := range buses {
		group := byBus[bus]
		// A tier too sparse even for the linear surface pools the full
		// observation set instead (reduced campaigns only).
		if len(group) < linTerms+2 {
			group = obs
		}
		xs := make([][]float64, len(group))
		yt := make([]float64, len(group))
		yp := make([]float64, len(group))
		for i, o := range group {
			xs[i] = o.X
			yt[i] = o.LoadTimeS
			// Dynamic component: measured whole-device power minus the
			// fitted static power at the run's voltage/temperature.
			yp[i] = o.PowerW - static.At(o.VoltV, o.AvgTempC)
		}
		// The paper selects the interaction surface for load time. On
		// reduced campaigns with fewer observations than interaction
		// terms, fit the same surface with ridge regularization — the
		// cross terms (notably page-work x frequency) are what make the
		// model usable at all, so dropping to a plain linear surface
		// loses far more accuracy than the ridge penalty does.
		timeSurface := regress.Interaction
		var mt *regress.Model
		var err error
		if len(group) >= timeSurface.TermCount(len(feat))+2 {
			mt, err = regress.Fit(timeSurface, feat, xs, yt)
		} else {
			mt, err = regress.FitRidge(timeSurface, feat, xs, yt, 1e-3)
		}
		if err != nil {
			return nil, Report{}, fmt.Errorf("train: load-time fit, bus %d: %w", bus, err)
		}
		mp, err := regress.Fit(regress.Linear, feat, xs, yp)
		if err != nil {
			return nil, Report{}, fmt.Errorf("train: power fit, bus %d: %w", bus, err)
		}
		lt.Add(bus, mt)
		dp.Add(bus, mp)
	}
	models := &core.Models{
		Features: feat,
		LoadTime: lt,
		DynPower: dp,
		Static:   static,
		RefTempC: refTempC,
	}
	rep, err := Evaluate(models, obs)
	if err != nil {
		return nil, Report{}, err
	}
	return models, rep, nil
}

// Evaluate measures model accuracy against a labelled observation set
// (the training set for Fig. 5, or held-out pages for generalization).
func Evaluate(models *core.Models, obs []Observation) (Report, error) {
	if err := models.Validate(); err != nil {
		return Report{}, err
	}
	var predT, obsT, predP, obsP []float64
	for _, o := range obs {
		opp := dvfs.OPP{FreqMHz: o.FreqMHz, BusFreqMHz: o.BusMHz, VoltageV: o.VoltV}
		pt, err := models.LoadTime.Predict(opp, o.X)
		if err != nil {
			return Report{}, err
		}
		pd, err := models.DynPower.Predict(opp, o.X)
		if err != nil {
			return Report{}, err
		}
		pp := pd + models.Static.At(o.VoltV, o.AvgTempC)
		predT = append(predT, pt)
		obsT = append(obsT, o.LoadTimeS)
		predP = append(predP, pp)
		obsP = append(obsP, o.PowerW)
	}
	tm, err := metricsOf(predT, obsT)
	if err != nil {
		return Report{}, err
	}
	pm, err := metricsOf(predP, obsP)
	if err != nil {
		return Report{}, err
	}
	return Report{
		Observations: len(obs),
		TimeMetrics:  tm,
		PowerMetrics: pm,
		TimeErrors:   stats.AbsRelErrors(predT, obsT),
		PowerErrors:  stats.AbsRelErrors(predP, obsP),
	}, nil
}

func metricsOf(pred, obs []float64) (regress.Metrics, error) {
	mape, err := stats.MAPE(pred, obs)
	if err != nil {
		return regress.Metrics{}, err
	}
	mse, err := stats.MSE(pred, obs)
	if err != nil {
		return regress.Metrics{}, err
	}
	errs := stats.AbsRelErrors(pred, obs)
	return regress.Metrics{
		N:      len(obs),
		MAPE:   mape,
		RMSE:   math.Sqrt(mse),
		MaxAPE: stats.Max(errs),
	}, nil
}
