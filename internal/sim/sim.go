// Package sim drives end-to-end experiments on the simulated device:
// it places the browser's two threads and the co-scheduled application
// on cores the way the paper does (Firefox on two cores, the co-runner
// on the third, the fourth core off), runs the governor at its decision
// interval, and measures the quantities the paper reports — page load
// time, whole-device energy, PPW, co-runner MPKI and utilization, and
// frequency residency.
package sim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dora/internal/corun"
	"dora/internal/fidelity"
	"dora/internal/governor"
	"dora/internal/perfmon"
	"dora/internal/power"
	"dora/internal/render"
	"dora/internal/soc"
	"dora/internal/telemetry"
	"dora/internal/webdoc"
	"dora/internal/webgen"
	"dora/internal/workload"
)

// Core placement, as in the paper's methodology section.
const (
	BrowserMainCore   = 0
	BrowserHelperCore = 1
	CoRunCore         = 2
	OffCore           = 3
)

// Options configures a run.
type Options struct {
	SoC              soc.Config
	Governor         governor.Governor
	Deadline         time.Duration // QoS target (default 3 s)
	DecisionInterval time.Duration // governor cadence (default 20 ms)
	Warmup           time.Duration // co-runner-only lead-in (default 500 ms)
	MaxLoadTime      time.Duration // abort cutoff (default 30 s)
	Seed             int64
	AmbientC         float64        // 0 = config default
	StartTempC       float64        // SoC prewarm temperature (default 38)
	RenderConfig     *render.Config // nil = render.DefaultConfig()
	// TraceFn, when set, receives one observability sample per
	// simulated millisecond (frequency, power, temperature, bus
	// utilization) for the whole run including warmup. It is the
	// legacy single-subscriber hook; prefer Sink.
	TraceFn func(soc.TraceSample)

	// Sink, when set, receives the same per-slice samples through the
	// multi-subscriber telemetry sink (ring buffer + decimation).
	Sink *telemetry.Sink
	// Tracer, when set, records Chrome trace_event spans: per-core
	// workload segments (render phases, co-runner kernels), governor
	// decisions, DVFS transitions, thermal-throttle episodes, and the
	// warmup/load run phases.
	Tracer *telemetry.Tracer
	// Decisions, when set, receives one record per governor decision
	// interval (model inputs and the chosen OPP).
	Decisions *telemetry.DecisionLog
	// Metrics, when set, accumulates run counters, gauges, and
	// histograms (decisions, DVFS switches, MPKI distribution, ...).
	Metrics *telemetry.Registry

	// Fidelity selects the simulation fidelity: fidelity.Exact (the
	// zero value, and the mode the golden campaign fingerprint is
	// pinned to) replays every sampled reference through the cache
	// hierarchy; fidelity.Sampled detects stable phases and
	// extrapolates most slices from measured rates (see DESIGN.md §10).
	Fidelity fidelity.Mode
	// FidelityParams tunes sampled mode; zero fields take the
	// calibrated defaults.
	FidelityParams fidelity.Params
	// Checkpoints, when set in sampled mode, shares warm-state
	// checkpoints across runs: runs with an identical warm prefix
	// (device, seed, co-runner, governor configuration and cadence,
	// warmup, thermal start, fidelity parameters — see warmKey) restore
	// it instead of re-simulating the warmup. Ignored in exact mode,
	// when the governor does not implement governor.Snapshotter, and
	// whenever any observer (TraceFn/Sink/Tracer/Decisions/Metrics) is
	// attached, since a restored run would hide the warmup from it.
	Checkpoints *CheckpointStore
}

func (o *Options) fillDefaults() {
	if o.Deadline == 0 {
		o.Deadline = 3 * time.Second
	}
	if o.DecisionInterval == 0 {
		o.DecisionInterval = 20 * time.Millisecond
	}
	if o.Warmup == 0 {
		o.Warmup = 500 * time.Millisecond
	}
	if o.MaxLoadTime == 0 {
		o.MaxLoadTime = 30 * time.Second
	}
	if o.StartTempC == 0 {
		o.StartTempC = 38
	}
}

// Workload pairs a page with a co-scheduled kernel.
type Workload struct {
	Page  webgen.Spec
	CoRun *corun.Kernel // nil = browser alone
}

// Result is one measured page load.
type Result struct {
	Page      string
	CoRunName string
	Intensity corun.Intensity
	Governor  string

	LoadTime    time.Duration
	DeadlineMet bool
	TimedOut    bool

	EnergyJ   float64 // whole-device energy over the load
	AvgPowerW float64
	PPW       float64 // 1 / (load time x avg power)

	AvgCoRunMPKI float64
	AvgCoRunUtil float64
	// CoRunInstructions is the number of co-runner instructions that
	// executed during the load (for energy-attribution analyses).
	CoRunInstructions uint64
	StartTempC        float64
	AvgSoCTempC       float64
	MaxSoCTempC       float64
	Switches          int

	// FreqResidency maps core frequency (MHz) to time spent there
	// during the load.
	FreqResidency map[int]time.Duration

	Features webdoc.Features
}

// LoadPage runs one page load under the configured governor and
// returns its measurements.
func LoadPage(opts Options, wl Workload) (Result, error) {
	return LoadPageCtx(context.Background(), opts, wl)
}

// LoadPageCtx is LoadPage with cooperative cancellation: the context is
// polled once per accounting slice (and during warmup), so a cancelled
// or deadline-expired context aborts the simulation within one
// simulated millisecond of wall work and returns ctx.Err() (wrapped;
// test with errors.Is). Cancellation only ever aborts — it cannot
// perturb the observables of a run that completes, so results remain
// bit-identical to LoadPage whenever the context stays live.
func LoadPageCtx(ctx context.Context, opts Options, wl Workload) (Result, error) {
	opts.fillDefaults()
	if opts.Governor == nil {
		return Result{}, errors.New("sim: nil governor")
	}
	if wl.Page.Name == "" {
		return Result{}, errors.New("sim: empty page")
	}
	rcfg := render.DefaultConfig()
	if opts.RenderConfig != nil {
		rcfg = *opts.RenderConfig
	}
	doc, err := webdoc.Parse(wl.Page.HTML())
	if err != nil {
		return Result{}, fmt.Errorf("sim: parse %s: %w", wl.Page.Name, err)
	}
	plan, err := render.BuildPlan(rcfg, doc)
	if err != nil {
		return Result{}, fmt.Errorf("sim: plan %s: %w", wl.Page.Name, err)
	}

	m, err := soc.New(opts.SoC, opts.Seed)
	if err != nil {
		return Result{}, err
	}
	if opts.AmbientC != 0 {
		m.SetAmbient(opts.AmbientC)
	}
	m.Prewarm(opts.StartTempC)
	if opts.TraceFn != nil {
		m.SetTraceFn(opts.TraceFn)
	}
	m.SetSink(opts.Sink)
	m.SetTracer(opts.Tracer)
	tr := opts.Tracer
	if tr != nil {
		tr.NameThread(BrowserMainCore, "core0 browser-main")
		tr.NameThread(BrowserHelperCore, "core1 browser-helper")
		tr.NameThread(CoRunCore, "core2 corun")
		tr.NameThread(OffCore, "core3 off")
		tr.NameThread(telemetry.TidGovernor, "governor")
		tr.NameThread(telemetry.TidDVFS, "dvfs")
		tr.NameThread(telemetry.TidThermal, "thermal")
		tr.NameThread(telemetry.TidRun, "run")
	}
	gov := governor.WithDecisionLog(opts.Governor, opts.Decisions)
	gov.Reset()

	res := Result{
		Page:          wl.Page.Name,
		Governor:      gov.Name(),
		Intensity:     corun.None,
		Features:      plan.Features,
		FreqResidency: map[int]time.Duration{},
	}
	if wl.CoRun != nil {
		res.CoRunName = wl.CoRun.Name
		res.Intensity = wl.CoRun.Intensity
		if err := m.AssignSource(CoRunCore, workload.Loop(wl.CoRun.New(opts.Seed+1))); err != nil {
			return Result{}, err
		}
	}

	var (
		decisionsC *telemetry.Counter
		mpkiH      *telemetry.Histogram
		freqG      *telemetry.Gauge
		tempG      *telemetry.Gauge
	)
	if reg := opts.Metrics; reg != nil {
		decisionsC = reg.Counter("dora_governor_decisions_total", "governor decision intervals executed")
		mpkiH = reg.Histogram("dora_decision_corun_mpki", "co-run L2 MPKI observed at decision points", telemetry.LinearBuckets(0, 4, 12))
		freqG = reg.Gauge("dora_core_freq_mhz", "core frequency chosen at the last decision")
		tempG = reg.Gauge("dora_soc_temp_c", "SoC temperature at the last decision")
	}
	decideName := "decide:" + gov.Name()

	sampler := perfmon.NewSampler()
	cores := opts.SoC.Cores
	decide := func(features []float64, elapsed time.Duration) {
		windows := make([]perfmon.Counters, cores)
		for i := 0; i < cores; i++ {
			windows[i] = sampler.Window(i, m.Counters(i))
		}
		ctx := governor.Context{
			Now:          m.Now(),
			Elapsed:      elapsed,
			Deadline:     opts.Deadline,
			Table:        opts.SoC.OPPs,
			Current:      m.OPP(),
			Windows:      windows,
			BrowserCores: []int{BrowserMainCore, BrowserHelperCore},
			CoRunCores:   []int{CoRunCore},
			PageFeatures: features,
			SoCTempC:     m.SoCTemp(),
		}
		chosen := gov.Decide(ctx)
		if tr != nil {
			tr.Span("governor", decideName, telemetry.TidGovernor,
				m.Now(), m.Now()+opts.DecisionInterval, map[string]float64{
					"corun_mpki": ctx.CoRunMPKI(),
					"corun_util": ctx.CoRunUtilization(),
					"soc_temp_c": ctx.SoCTempC,
					"chosen_mhz": float64(chosen.FreqMHz),
				})
			tr.Counter("core_freq_mhz", m.Now(), map[string]float64{"freq": float64(chosen.FreqMHz)})
		}
		if opts.Metrics != nil {
			decisionsC.Inc()
			mpkiH.Observe(ctx.CoRunMPKI())
			freqG.Set(float64(chosen.FreqMHz))
			tempG.Set(ctx.SoCTempC)
		}
		m.SetOPP(chosen)
	}

	// Fidelity changes only how a slice advances: exact mode simulates
	// every slice in detail, sampled mode lets the phase detector
	// extrapolate stable ones and may restore a shared warm state.
	slice := time.Duration(opts.SoC.SliceNs)
	step := func() { m.Step(slice) }
	var smp *sampledStepper
	if opts.Fidelity == fidelity.Sampled {
		smp = newSampledStepper(m, &opts)
		step = smp.step
	}
	slot := warmSlotFor(&opts, gov, res.CoRunName)
	warmed, err := slot.restore(m, sampler, smp)
	if err != nil {
		return Result{}, err
	}

	// Warmup: the co-runner (if any) runs alone; the governor is live.
	if !warmed {
		end := warmupEnd(&opts)
		nextDecision := m.Now()
		for m.Now() < end {
			if err := ctx.Err(); err != nil {
				return Result{}, fmt.Errorf("sim: load aborted during warmup: %w", err)
			}
			if m.Now() >= nextDecision {
				decide(nil, 0)
				nextDecision = m.Now() + opts.DecisionInterval
			}
			step()
		}
		slot.save(m, sampler, smp)
	}
	if tr != nil && m.Now() > 0 {
		tr.Span("run", "warmup", telemetry.TidRun, 0, m.Now(), nil)
	}

	// Page load begins.
	start := m.Now()
	startEnergy := m.EnergyJ()
	startSwitches := m.Switches()
	res.StartTempC = m.SoCTemp()
	res.MaxSoCTempC = res.StartTempC
	coRunStart := m.Counters(CoRunCore)
	features := plan.Features.Vector()
	if err := m.AssignSource(BrowserMainCore, plan.MainSource()); err != nil {
		return Result{}, err
	}
	if len(plan.Helper) > 0 {
		if err := m.AssignSource(BrowserHelperCore, plan.HelperSource()); err != nil {
			return Result{}, err
		}
	}
	// New sources start executing: the phase is discontinuous.
	smp.forceDetail()
	doneMain := m.CoreDone(BrowserMainCore)
	doneHelper := m.CoreDone(BrowserHelperCore)

	var tempSum float64
	var tempN int
	nextDecision := m.Now() // decide immediately at load start
	for {
		if err := ctx.Err(); err != nil {
			return Result{}, fmt.Errorf("sim: load aborted: %w", err)
		}
		dm, dh := m.CoreDone(BrowserMainCore), m.CoreDone(BrowserHelperCore)
		if dm && dh {
			break
		}
		if dm != doneMain || dh != doneHelper {
			// A browser core completed: the workload mix changed.
			smp.forceDetail()
			doneMain, doneHelper = dm, dh
		}
		if m.Now()-start >= opts.MaxLoadTime {
			res.TimedOut = true
			break
		}
		if m.Now() >= nextDecision {
			decide(features, m.Now()-start)
			nextDecision = m.Now() + opts.DecisionInterval
		}
		res.FreqResidency[m.OPP().FreqMHz] += slice
		step()
		t := m.SoCTemp()
		tempSum += t
		tempN++
		if t > res.MaxSoCTempC {
			res.MaxSoCTempC = t
		}
	}
	if tempN > 0 {
		res.AvgSoCTempC = tempSum / float64(tempN)
	} else {
		res.AvgSoCTempC = res.StartTempC
	}

	res.LoadTime = m.Now() - start
	res.DeadlineMet = !res.TimedOut && res.LoadTime <= opts.Deadline
	res.EnergyJ = m.EnergyJ() - startEnergy
	if res.LoadTime > 0 {
		res.AvgPowerW = res.EnergyJ / res.LoadTime.Seconds()
	}
	res.PPW = power.PPW(res.LoadTime, res.AvgPowerW)
	res.Switches = m.Switches() - startSwitches

	coRunDelta := m.Counters(CoRunCore).Sub(coRunStart)
	res.AvgCoRunMPKI = coRunDelta.MPKI()
	res.AvgCoRunUtil = coRunDelta.Utilization()
	res.CoRunInstructions = coRunDelta.Instructions

	if tr != nil {
		tr.Span("run", "load:"+wl.Page.Name, telemetry.TidRun, start, m.Now(), map[string]float64{
			"load_ms":  float64(res.LoadTime) / 1e6,
			"energy_j": res.EnergyJ,
		})
	}
	m.FlushTrace()
	if reg := opts.Metrics; reg != nil {
		reg.Counter("dora_page_loads_total", "page loads completed").Inc()
		reg.Counter("dora_dvfs_switches_total", "OPP transitions performed").Add(uint64(res.Switches))
		reg.Gauge("dora_last_load_time_s", "load time of the most recent page load").Set(res.LoadTime.Seconds())
		reg.Gauge("dora_last_energy_j", "whole-device energy of the most recent page load").Set(res.EnergyJ)
		reg.Histogram("dora_load_time_s", "page load time distribution", telemetry.LinearBuckets(0, 0.5, 12)).Observe(res.LoadTime.Seconds())
	}
	return res, nil
}

// warmupEnd returns the simulated time at which the warmup stops.
// Sampled mode stops at the first slice at or past Warmup. Exact mode
// warms up in whole decision periods (DecisionInterval rounded up to
// whole slices), so it stops at the first period boundary at or past
// Warmup. The two agree whenever Warmup is a multiple of the period.
func warmupEnd(opts *Options) time.Duration {
	unit := time.Duration(opts.SoC.SliceNs)
	if opts.Fidelity != fidelity.Sampled {
		unit = max(roundUp(opts.DecisionInterval, unit), unit)
	}
	return roundUp(opts.Warmup, unit)
}

// roundUp rounds d up to a multiple of unit.
func roundUp(d, unit time.Duration) time.Duration {
	return (d + unit - 1) / unit * unit
}

// RunKernelInstructions runs a co-run kernel alone until it has
// executed at least n instructions and returns the whole-device energy
// consumed — the instruction-matched E_O term of the paper's Fig. 2(b)
// analysis (matching instructions rather than wall time avoids crediting
// the solo run with work the co-run never finished).
func RunKernelInstructions(opts Options, k corun.Kernel, n uint64) (energyJ float64, elapsed time.Duration, err error) {
	opts.fillDefaults()
	if opts.Governor == nil {
		return 0, 0, errors.New("sim: nil governor")
	}
	if n == 0 {
		return 0, 0, nil
	}
	m, err := soc.New(opts.SoC, opts.Seed)
	if err != nil {
		return 0, 0, err
	}
	if opts.AmbientC != 0 {
		m.SetAmbient(opts.AmbientC)
	}
	m.Prewarm(opts.StartTempC)
	if opts.TraceFn != nil {
		m.SetTraceFn(opts.TraceFn)
	}
	m.SetSink(opts.Sink)
	m.SetTracer(opts.Tracer)
	gov := governor.WithDecisionLog(opts.Governor, opts.Decisions)
	gov.Reset()
	if err := m.AssignSource(CoRunCore, workload.Loop(k.New(opts.Seed+1))); err != nil {
		return 0, 0, err
	}
	sampler := perfmon.NewSampler()
	limit := 10 * time.Minute
	for m.Counters(CoRunCore).Instructions < n && m.Now() < limit {
		windows := make([]perfmon.Counters, opts.SoC.Cores)
		for i := 0; i < opts.SoC.Cores; i++ {
			windows[i] = sampler.Window(i, m.Counters(i))
		}
		m.SetOPP(gov.Decide(governor.Context{
			Now:        m.Now(),
			Table:      opts.SoC.OPPs,
			Current:    m.OPP(),
			Windows:    windows,
			CoRunCores: []int{CoRunCore},
			SoCTempC:   m.SoCTemp(),
		}))
		m.Step(opts.DecisionInterval)
	}
	m.FlushTrace()
	return m.EnergyJ(), m.Now(), nil
}

// RunKernelAlone runs a co-run kernel by itself for the given duration
// under the governor and returns the whole-device energy consumed —
// the E_O term of the paper's Fig. 2(b) energy-overhead analysis.
func RunKernelAlone(opts Options, k corun.Kernel, d time.Duration) (energyJ float64, err error) {
	opts.fillDefaults()
	if opts.Governor == nil {
		return 0, errors.New("sim: nil governor")
	}
	m, err := soc.New(opts.SoC, opts.Seed)
	if err != nil {
		return 0, err
	}
	if opts.AmbientC != 0 {
		m.SetAmbient(opts.AmbientC)
	}
	m.Prewarm(opts.StartTempC)
	if opts.TraceFn != nil {
		m.SetTraceFn(opts.TraceFn)
	}
	m.SetSink(opts.Sink)
	m.SetTracer(opts.Tracer)
	gov := governor.WithDecisionLog(opts.Governor, opts.Decisions)
	gov.Reset()
	if err := m.AssignSource(CoRunCore, workload.Loop(k.New(opts.Seed+1))); err != nil {
		return 0, err
	}
	sampler := perfmon.NewSampler()
	for m.Now() < d {
		windows := make([]perfmon.Counters, opts.SoC.Cores)
		for i := 0; i < opts.SoC.Cores; i++ {
			windows[i] = sampler.Window(i, m.Counters(i))
		}
		m.SetOPP(gov.Decide(governor.Context{
			Now:        m.Now(),
			Table:      opts.SoC.OPPs,
			Current:    m.OPP(),
			Windows:    windows,
			CoRunCores: []int{CoRunCore},
			SoCTempC:   m.SoCTemp(),
		}))
		m.Step(opts.DecisionInterval)
	}
	m.FlushTrace()
	return m.EnergyJ(), nil
}
