package sim

// Sampled-fidelity page loads: the same experiment protocol as the
// exact path in sim.go — identical core placement, governor cadence,
// warmup, and observable assembly — but driven slice by slice through
// the phase detector, so stable phases are extrapolated from measured
// rates instead of simulated in detail, and warmups shared between
// campaign grid points are restored from warm-state checkpoints.
//
// The exact path's body is deliberately left untouched (it is pinned
// by the golden campaign fingerprint); this file duplicates its
// skeleton rather than threading fidelity branches through it.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dora/internal/corun"
	"dora/internal/fidelity"
	"dora/internal/governor"
	"dora/internal/perfmon"
	"dora/internal/power"
	"dora/internal/render"
	"dora/internal/runcache"
	"dora/internal/soc"
	"dora/internal/telemetry"
	"dora/internal/webdoc"
	"dora/internal/workload"
)

// checkpoint is one shared warm state: the machine snapshot plus the
// sim-layer state that shapes post-warmup decisions — the perf-counter
// windows, the governor's internal state, and the phase detector's
// rates and stability streak. Immutable once stored.
type checkpoint struct {
	mach       *soc.MachineSnapshot
	sampler    map[int]perfmon.Counters
	govState   any
	det        fidelity.State
	rates      []soc.CoreRates
	ratesValid bool
}

// CheckpointStore shares warm-state checkpoints across sampled-mode
// runs. It is safe for concurrent use by campaign pool workers; the
// checkpoint content is a pure function of its key, so whichever
// worker warms a key first produces the same bytes any other would
// have.
type CheckpointStore struct {
	mu sync.RWMutex
	m  map[string]*checkpoint
}

// NewCheckpointStore returns an empty store.
func NewCheckpointStore() *CheckpointStore {
	return &CheckpointStore{m: make(map[string]*checkpoint)}
}

// Len returns the number of warm checkpoints held.
func (s *CheckpointStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

func (s *CheckpointStore) get(key string) *checkpoint {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[key]
}

func (s *CheckpointStore) put(key string, c *checkpoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.m[key]; !dup {
		s.m[key] = c
	}
}

// warmKey keys a checkpoint by everything that shapes the warmup: the
// device fingerprint and seed, the co-runner (the only source running
// during warmup — the browser attaches after, which is why the page is
// not part of the key and all of a page sweep shares one warm state),
// the governor's full configuration (StateKey, not Name: every fixed
// governor is named "fixed") and its cadence, the warmup length,
// thermal boundary conditions, and the fidelity mode and parameters.
func warmKey(opts *Options, corunName, govKey string) string {
	return runcache.Key("warm-ckpt", ConfigFingerprint(opts.SoC), opts.Seed,
		corunName, govKey, opts.Warmup, opts.DecisionInterval,
		opts.AmbientC, opts.StartTempC, opts.Fidelity.String(),
		opts.FidelityParams)
}

// loadPageSampled is the sampled-fidelity twin of LoadPageCtx's exact
// body.
func loadPageSampled(ctx context.Context, opts Options, wl Workload) (Result, error) {
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

		// Slices by how the driver ran them: extrapolated, or detailed
		// for one of three reasons.
		noRatesC  *telemetry.Counter
		unstableC *telemetry.Counter
		cadenceC  *telemetry.Counter
		extrapC   *telemetry.Counter
	)
	if reg := opts.Metrics; reg != nil {
		decisionsC = reg.Counter("dora_governor_decisions_total", "governor decision intervals executed")
		mpkiH = reg.Histogram("dora_decision_corun_mpki", "co-run L2 MPKI observed at decision points", telemetry.LinearBuckets(0, 4, 12))
		freqG = reg.Gauge("dora_core_freq_mhz", "core frequency chosen at the last decision")
		tempG = reg.Gauge("dora_soc_temp_c", "SoC temperature at the last decision")
		noRatesC = reg.Counter("dora_sampled_no_rates_slices_total", "sampled-mode detailed slices run before any extrapolation rates existed")
		unstableC = reg.Counter("dora_sampled_unstable_slices_total", "sampled-mode detailed slices run because the phase was not yet stable")
		cadenceC = reg.Counter("dora_sampled_cadence_slices_total", "sampled-mode detailed slices run because the periodic cadence was due")
		extrapC = reg.Counter("dora_sampled_extrapolated_slices_total", "sampled-mode slices fast-forwarded from measured rates")
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

	// The sampled slice driver: one detailed or extrapolated slice per
	// call, with OPP changes forcing a return to detailed sampling. A
	// governor decision that keeps the OPP changes nothing the detector
	// measures, so it costs no detailed slice.
	det := fidelity.NewDetector(opts.FidelityParams)
	stats := &soc.SliceStats{Cores: make([]soc.CoreSliceStats, cores)}
	rates := make([]soc.CoreRates, cores)
	kinds := make([]string, cores)
	ratesValid := false
	lastFreq := m.OPP().FreqMHz
	sliceNs := opts.SoC.SliceNs
	stepSampled := func() {
		if f := m.OPP().FreqMHz; f != lastFreq {
			det.ForceDetail()
			lastFreq = f
		}
		if ratesValid && det.CanExtrapolate() {
			m.FastForwardSlice(rates)
			det.NoteExtrapolated()
			if opts.Metrics != nil {
				extrapC.Inc()
			}
			return
		}
		if opts.Metrics != nil {
			switch {
			case !ratesValid:
				noRatesC.Inc()
			case !det.Stable():
				unstableC.Inc()
			default:
				cadenceC.Inc()
			}
		}
		m.StepSliceStats(stats)
		for i := range kinds {
			kinds[i] = m.CoreSegKind(i)
		}
		det.Observe(fidelity.Signature(stats, sliceNs, kinds), stats.SwitchStall)
		if !stats.SwitchStall {
			for i := range rates {
				rates[i] = soc.RatesFrom(stats.Cores[i])
			}
			ratesValid = true
		}
	}

	// Warm-state checkpointing is only sound when nothing observes the
	// warmup: every observer would otherwise miss the warmup's samples
	// on a checkpoint hit.
	useCkpt := opts.Checkpoints != nil && opts.TraceFn == nil && opts.Sink == nil &&
		opts.Tracer == nil && opts.Decisions == nil && opts.Metrics == nil
	snap, _ := gov.(governor.Snapshotter)
	useCkpt = useCkpt && snap != nil

	var key string
	warmed := false
	if useCkpt {
		key = warmKey(&opts, res.CoRunName, snap.StateKey())
		if ck := opts.Checkpoints.get(key); ck != nil {
			if err := m.RestoreSnapshot(ck.mach); err != nil {
				return Result{}, fmt.Errorf("sim: restore warm checkpoint: %w", err)
			}
			sampler.Restore(ck.sampler)
			snap.RestoreState(ck.govState)
			det.RestoreState(ck.det)
			copy(rates, ck.rates)
			ratesValid = ck.ratesValid
			lastFreq = m.OPP().FreqMHz
			warmed = true
		} else {
			m.StartRNGLog()
		}
	}

	// Warmup: the co-runner (if any) runs alone; the governor is live.
	if !warmed {
		nextDecision := m.Now()
		for m.Now() < opts.Warmup {
			if err := ctx.Err(); err != nil {
				return Result{}, fmt.Errorf("sim: load aborted during warmup: %w", err)
			}
			if m.Now() >= nextDecision {
				decide(nil, 0)
				nextDecision = m.Now() + opts.DecisionInterval
			}
			stepSampled()
		}
		if useCkpt {
			ck := &checkpoint{
				mach:       m.Snapshot(),
				sampler:    sampler.Snapshot(),
				govState:   snap.StateSnapshot(),
				det:        det.State(),
				rates:      append([]soc.CoreRates(nil), rates...),
				ratesValid: ratesValid,
			}
			opts.Checkpoints.put(key, ck)
			m.StopRNGLog()
		}
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
	det.ForceDetail()
	doneMain := m.CoreDone(BrowserMainCore)
	doneHelper := m.CoreDone(BrowserHelperCore)

	slice := time.Duration(opts.SoC.SliceNs)
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
			det.ForceDetail()
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
		stepSampled()
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
