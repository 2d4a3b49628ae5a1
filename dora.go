// Package dora is the public facade of the DORA reproduction: a
// full-system simulation of the paper "DORA: Optimizing Smartphone
// Energy Efficiency and Web Browser Performance under Interference"
// (Shingari, Arunkumar, Gaudette, Vrudhula, Wu — ISPASS 2018).
//
// The library bundles:
//
//   - a simulated Google Nexus 5 class SoC (quad-core, private L1,
//     shared 2 MB L2 with random replacement, LPDDR3 memory channel,
//     MSM8974 DVFS ladder, RC thermal network, whole-device power
//     model);
//   - a browser rendering-engine model driven by real parsed HTML
//     (the 18-page synthetic Alexa corpus);
//   - the nine Rodinia-class co-scheduled kernels of the paper's
//     Table III;
//   - the Android interactive / performance / powersave governors;
//   - DORA itself (Algorithm 1) plus the DL and EE comparison
//     governors, trained by the included offline pipeline;
//   - an experiment suite reproducing every figure and table of the
//     paper's evaluation.
//
// Train and NewSuiteOpts run the same offline pipeline (measurement
// campaign, static/leakage fit, response-surface fits) from one
// TrainOptions; NewSuiteOpts then builds the evaluation suite on the
// trained models. Per-slice telemetry (frequency, power, temperature,
// bus utilization) reaches callers through LoadOptions.Sink.
//
// # Quick start
//
//	cfg := dora.DefaultDevice()
//	models, _, err := dora.Train(dora.TrainOptions{Device: cfg, Fast: true})
//	if err != nil { ... }
//	gov, err := dora.NewDORA(models)
//	if err != nil { ... }
//	res, err := dora.LoadPage(dora.LoadOptions{
//		Device:   cfg,
//		Governor: gov,
//		Page:     "Reddit",
//		CoRunner: "backprop",
//	})
//	fmt.Printf("load %v, %.2f J, PPW %.3f\n", res.LoadTime, res.EnergyJ, res.PPW)
package dora

import (
	"context"
	"fmt"
	"time"

	"dora/internal/core"
	"dora/internal/corun"
	"dora/internal/experiment"
	"dora/internal/fidelity"
	"dora/internal/governor"
	"dora/internal/runcache"
	"dora/internal/sim"
	"dora/internal/soc"
	"dora/internal/telemetry"
	"dora/internal/train"
	"dora/internal/webgen"
)

// Re-exported core types. Aliases keep one definition of truth in the
// internal packages while giving users a single import.
type (
	// Device is the full simulated-device configuration.
	Device = soc.Config
	// Governor decides the operating point each interval.
	Governor = governor.Governor
	// Models is DORA's trained predictor bundle.
	Models = core.Models
	// Result is one measured page load.
	Result = sim.Result
	// Observation is one labelled training measurement.
	Observation = train.Observation
	// TrainReport summarizes model accuracy.
	TrainReport = train.Report
	// TrainOptions configures the offline training pipeline: the grid
	// preset (Fast, Tiny), seed, fan-out, cache and campaign fidelity.
	TrainOptions = train.Options
	// Suite reproduces the paper's evaluation figures.
	Suite = experiment.Suite
	// Intensity is a co-runner memory-intensity class.
	Intensity = corun.Intensity

	// Telemetry types (see internal/telemetry). Sample is one per-slice
	// observability record; Sink fans samples out to subscribers with
	// optional decimation; Tracer records Chrome trace_event spans;
	// DecisionLog captures one record per governor decision; Registry
	// accumulates counters, gauges, and histograms with Prometheus/JSON
	// exposition.
	Sample      = telemetry.Sample
	Sink        = telemetry.Sink
	SinkOptions = telemetry.SinkOptions
	Tracer      = telemetry.Tracer
	DecisionLog = telemetry.DecisionLog
	Registry    = telemetry.Registry

	// RunCache persists simulation results across process invocations;
	// a warm cache lets repeat campaigns and suite builds skip the
	// simulator entirely. A nil *RunCache disables caching.
	RunCache = runcache.Cache

	// Fidelity selects the simulation mode: ExactFidelity simulates
	// every sampled reference (the default), SampledFidelity detects
	// stable phases and extrapolates them from measured rates for a
	// multi-x speedup at ≤2% mean observable error (DESIGN.md §10).
	Fidelity = fidelity.Mode
	// FidelityParams tunes the sampled-mode phase detector.
	FidelityParams = fidelity.Params
	// CheckpointStore shares sampled-mode warm-state checkpoints across
	// page loads: runs that agree on device, seed, co-runner, governor
	// configuration, and warmup resume from a shared warm snapshot
	// instead of re-simulating the lead-in.
	CheckpointStore = sim.CheckpointStore
)

// OpenRunCache loads (or creates) the persistent run cache at path.
// Call Save when done to flush new entries back to disk.
func OpenRunCache(path string) (*RunCache, error) { return runcache.Open(path) }

// NewSink builds a telemetry sink (decimating fan-out to subscribers).
func NewSink(opts SinkOptions) *Sink { return telemetry.NewSink(opts) }

// NewTracer builds a Chrome trace_event recorder; pass it via
// LoadOptions.Tracer and write the result with Tracer.WriteJSON.
func NewTracer() *Tracer { return telemetry.NewTracer() }

// NewDecisionLog builds a governor decision log (JSONL/CSV exposition).
func NewDecisionLog() *DecisionLog { return telemetry.NewDecisionLog() }

// NewRegistry builds a metrics registry (Prometheus-text/JSON exposition).
func NewRegistry() *Registry { return telemetry.NewRegistry() }

// Intensity classes (Table III).
const (
	LowIntensity    = corun.Low
	MediumIntensity = corun.Medium
	HighIntensity   = corun.High
	NoCoRunner      = corun.None
)

// Fidelity modes.
const (
	ExactFidelity   = fidelity.Exact
	SampledFidelity = fidelity.Sampled
)

// ParseFidelity parses a -fidelity flag or request-field value
// ("", "exact", or "sampled"; empty means exact).
func ParseFidelity(s string) (Fidelity, error) { return fidelity.ParseMode(s) }

// NewCheckpointStore builds an empty warm-checkpoint store to share
// across sampled-fidelity loads (safe for concurrent use).
func NewCheckpointStore() *CheckpointStore { return sim.NewCheckpointStore() }

// DefaultDevice returns the calibrated Nexus 5 (MSM8974) configuration
// of the paper's Table II.
func DefaultDevice() Device { return soc.NexusFive() }

// Pages lists the 18-page web corpus (Table III).
func Pages() []string { return webgen.Names() }

// TrainingPages lists the 14 pages used for model fitting.
func TrainingPages() []string { return webgen.TrainingNames() }

// CoRunners lists the nine co-scheduled kernels (Table III).
func CoRunners() []string {
	var out []string
	for _, k := range corun.Kernels() {
		out = append(out, k.Name)
	}
	return out
}

// Train runs the paper's offline methodology: the fixed-frequency
// measurement campaign, the static/leakage fit, and the piecewise
// response-surface fits. It returns the trained models and the
// training-set accuracy report.
func Train(opts TrainOptions) (*Models, TrainReport, error) {
	t, err := train.Run(opts)
	return t.Models, t.Report, err
}

// NewDORA builds the DORA governor (Algorithm 1) from trained models.
func NewDORA(models *Models) (Governor, error) { return modelGovernor("DORA", models) }

// NewDORAWithoutLeakage builds the Fig. 10 ablation that ignores the
// live temperature.
func NewDORAWithoutLeakage(models *Models) (Governor, error) {
	return modelGovernor("DORA_no_lkg", models)
}

// NewDeadlineOnly builds the paper's DL comparison governor.
func NewDeadlineOnly(models *Models) (Governor, error) { return modelGovernor("DL", models) }

// NewEnergyOnly builds the paper's EE comparison governor.
func NewEnergyOnly(models *Models) (Governor, error) { return modelGovernor("EE", models) }

// NewInteractive builds the Android default governor (the paper's
// baseline).
func NewInteractive() Governor { return tableGovernor("interactive") }

// NewPerformance builds the max-frequency governor.
func NewPerformance() Governor { return tableGovernor("performance") }

// NewPowersave builds the min-frequency governor.
func NewPowersave() Governor { return tableGovernor("powersave") }

// NewOndemand builds the classic Linux ondemand governor.
func NewOndemand() Governor { return tableGovernor("ondemand") }

// NewConservative builds the step-at-a-time conservative governor.
func NewConservative() Governor { return tableGovernor("conservative") }

// modelGovernor builds a model-based governor from the core table.
func modelGovernor(name string, models *Models) (Governor, error) {
	g, _, err := core.NewGovernor(name, models)
	return g, err
}

// tableGovernor builds a model-free governor from the core table,
// which cannot fail for those names.
func tableGovernor(name string) Governor {
	g, _, _ := core.NewGovernor(name, nil)
	return g
}

// NewFixed pins the closest OPP at or above the given frequency.
func NewFixed(dev Device, freqMHz int) Governor {
	return governor.NewFixed(dev.OPPs.Ceil(freqMHz))
}

// LoadOptions configures one measured page load.
type LoadOptions struct {
	Device   Device
	Governor Governor
	// Page is a corpus page name (see Pages).
	Page string
	// CoRunner is a kernel name (see CoRunners); empty = browser alone.
	CoRunner string
	// Deadline is the QoS target (default 3 s).
	Deadline time.Duration
	// DecisionInterval is the governor cadence (default 20 ms for the
	// cpufreq baselines; use 100 ms for model-based governors, as the
	// paper does).
	DecisionInterval time.Duration
	// Warmup is the co-runner-only lead-in before the measured load
	// begins (default 500 ms).
	Warmup time.Duration
	// MaxLoadTime aborts a load that runs past the cutoff (default 30 s).
	MaxLoadTime time.Duration
	Seed        int64
	// AmbientC overrides ambient temperature (0 = 25 degC).
	AmbientC float64
	// Sink, when set, receives one observability sample per simulated
	// millisecond (frequency, power, temperature, bus utilization)
	// through the multi-subscriber telemetry sink.
	Sink *Sink
	// Tracer records Chrome trace_event spans for the run.
	Tracer *Tracer
	// Decisions receives one record per governor decision interval.
	Decisions *DecisionLog
	// Fidelity selects the simulation mode (default exact).
	Fidelity Fidelity
	// FidelityParams tunes sampled mode (zero value = defaults).
	FidelityParams FidelityParams
	// Checkpoints, when set with SampledFidelity, shares warm-state
	// checkpoints across loads (only consulted when no observer of the
	// warmup — Sink, Tracer, Decisions — is attached). A restored load
	// still reports its warmup in Result.Counts.
	Checkpoints *CheckpointStore
}

// LoadPage performs one end-to-end measured page load.
func LoadPage(opts LoadOptions) (Result, error) {
	return LoadPageContext(context.Background(), opts)
}

// LoadPageContext is LoadPage with cooperative cancellation: a
// cancelled or deadline-expired context aborts the simulation promptly
// and returns an error wrapping ctx.Err(). A run that completes is
// bit-identical to LoadPage with the same options — cancellation can
// only abort, never perturb. This is the entry point the dorad daemon
// uses to honor per-request deadlines.
func LoadPageContext(ctx context.Context, opts LoadOptions) (Result, error) {
	spec, err := webgen.ByName(opts.Page)
	if err != nil {
		return Result{}, err
	}
	wl := sim.Workload{Page: spec}
	if opts.CoRunner != "" {
		k, err := corun.ByName(opts.CoRunner)
		if err != nil {
			return Result{}, err
		}
		wl.CoRun = &k
	}
	if opts.Governor == nil {
		return Result{}, fmt.Errorf("dora: nil governor")
	}
	return sim.LoadPageCtx(ctx, sim.Options{
		SoC:              opts.Device,
		Governor:         opts.Governor,
		Deadline:         opts.Deadline,
		DecisionInterval: opts.DecisionInterval,
		Warmup:           opts.Warmup,
		MaxLoadTime:      opts.MaxLoadTime,
		Seed:             opts.Seed,
		AmbientC:         opts.AmbientC,
		Sink:             opts.Sink,
		Tracer:           opts.Tracer,
		Decisions:        opts.Decisions,
		Fidelity:         opts.Fidelity,
		FidelityParams:   opts.FidelityParams,
		Checkpoints:      opts.Checkpoints,
	}, wl)
}

// NewSuiteOpts trains models and returns the paper-evaluation suite.
// Workers also bounds the suite's exhibit prefetching, and Cache also
// persists its exhibit runs.
func NewSuiteOpts(opts TrainOptions) (*Suite, error) { return experiment.NewSuite(opts) }
