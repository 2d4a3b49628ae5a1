package train

import (
	"fmt"

	"dora/internal/core"
	"dora/internal/corun"
	"dora/internal/fidelity"
	"dora/internal/runcache"
	"dora/internal/soc"
	"dora/internal/webgen"
)

// refTempC is the temperature the fitted models freeze leakage at when
// a governor ignores the live temperature (core.Models.RefTempC).
const refTempC = 30

// Options configures the whole offline pipeline: which grid preset the
// campaign measures, and how its cells are scheduled, cached and
// simulated.
type Options struct {
	Device soc.Config
	Seed   int64
	// Fast shrinks the campaign grid (8 pages, 10 frequencies) for
	// demos and tests; figures built from it keep their shape but not
	// their full resolution.
	Fast bool
	// Tiny shrinks it further to a minimal demo grid (4 pages, 3
	// intensities, 8 frequencies); model fidelity is reduced but the
	// governor behaviours survive. Wins over Fast.
	Tiny bool
	// Workers bounds the measurement fan-out: 0 = one worker per CPU
	// (or the DORA_WORKERS environment override), 1 = serial. Results
	// are identical at any width.
	Workers int
	// Cache, when set, serves previously measured cells and static fits
	// from disk and records fresh ones.
	Cache *runcache.Cache
	// Fidelity selects the campaign simulation mode (default exact).
	// Sampled trades ≤2% observable error for a multi-x campaign
	// speedup; see DESIGN.md §10.
	Fidelity fidelity.Mode
	// FidelityParams tunes sampled mode (zero value = defaults).
	FidelityParams fidelity.Params
}

// campaignConfig returns the campaign configuration of the options'
// grid preset. Tiny wins over Fast; neither leaves the paper-scale
// defaults.
func (o Options) campaignConfig() Config {
	c := Config{SoC: o.Device, Seed: o.Seed, Workers: o.Workers, Cache: o.Cache,
		Fidelity: o.Fidelity, FidelityParams: o.FidelityParams}
	switch {
	case o.Tiny:
		c.Pages = []string{"Alipay", "Reddit", "MSN", "Hao123"}
		c.Intensities = []corun.Intensity{corun.None, corun.Low, corun.High}
		c.FreqsMHz = []int{652, 729, 960, 1190, 1497, 1728, 1958, 2265}
	case o.Fast:
		c.Pages = []string{"Alipay", "Twitter", "MSN", "Reddit", "Amazon", "ESPN", "Hao123", "Aliexpress"}
		c.FreqsMHz = []int{652, 729, 883, 960, 1190, 1267, 1497, 1728, 1958, 2265}
	}
	return c
}

// HoldoutConfig returns the Webpage-Neutral campaign of the same
// preset: the held-out pages under a disjoint seed range, cut to two
// pages on a reduced preset's grid.
func (o Options) HoldoutConfig() Config {
	c := o.campaignConfig()
	c.Seed += 10_000
	holdout := webgen.HoldoutNames()
	if c.Pages != nil {
		holdout = holdout[:2]
	}
	c.Pages = holdout
	return c
}

// Trained is what the pipeline produces.
type Trained struct {
	Models *core.Models
	Static core.StaticPower
	// Report is the training-set accuracy.
	Report       Report
	Observations []Observation
}

// Run runs the paper's offline methodology: the fixed-frequency
// measurement campaign of the options' preset, then FitObservations.
func Run(o Options) (Trained, error) {
	obs, err := Campaign(o.campaignConfig())
	if err != nil {
		return Trained{}, err
	}
	return FitObservations(o, obs)
}

// FitObservations is the fit half of Run, for a saved campaign: the
// static/leakage fit from idle sweeps over the full frequency ladder,
// then the piecewise response-surface fits.
func FitObservations(o Options, obs []Observation) (Trained, error) {
	static, err := FitStatic(Config{SoC: o.Device, Seed: o.Seed, Workers: o.Workers, Cache: o.Cache})
	if err != nil {
		return Trained{}, fmt.Errorf("train: static fit: %w", err)
	}
	models, rep, err := Fit(obs, static)
	if err != nil {
		return Trained{}, err
	}
	return Trained{Models: models, Static: static, Report: rep, Observations: obs}, nil
}
