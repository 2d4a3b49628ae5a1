package sim

import (
	"math"
	"reflect"
	"testing"
	"time"

	"dora/internal/dvfs"
	"dora/internal/fidelity"
	"dora/internal/governor"
	"dora/internal/soc"
	"dora/internal/telemetry"
)

// sampledSlices is one sampled run's slice accounting, read from the
// driver's dora_sampled_*_slices_total counters: detailed slices by
// the reason they ran, and extrapolated slices.
type sampledSlices struct {
	NoRates      uint64 `json:"no_rates"`
	Unstable     uint64 `json:"unstable"`
	Cadence      uint64 `json:"cadence"`
	Extrapolated uint64 `json:"extrapolated"`
}

func readSampledSlices(reg *telemetry.Registry) sampledSlices {
	get := func(reason string) uint64 {
		return reg.Counter("dora_sampled_"+reason+"_slices_total", "").Value()
	}
	return sampledSlices{
		NoRates:      get("no_rates"),
		Unstable:     get("unstable"),
		Cadence:      get("cadence"),
		Extrapolated: get("extrapolated"),
	}
}

func (s sampledSlices) detailed() uint64 { return s.NoRates + s.Unstable + s.Cadence }

func (s *sampledSlices) add(o sampledSlices) {
	s.NoRates += o.NoRates
	s.Unstable += o.Unstable
	s.Cadence += o.Cadence
	s.Extrapolated += o.Extrapolated
}

// countedSampledLoad runs one sampled load with a fresh registry and
// returns its result and slice accounting.
func countedSampledLoad(t testing.TB, opts Options, wl Workload) (Result, sampledSlices) {
	t.Helper()
	opts.Fidelity = fidelity.Sampled
	opts.Metrics = telemetry.NewRegistry()
	res, err := LoadPage(opts, wl)
	if err != nil {
		t.Fatal(err)
	}
	return res, readSampledSlices(opts.Metrics)
}

// TestSampledFixedOPPCadence pins the detector's cadence at a fixed
// OPP: governor decisions that keep the OPP cost no detailed slice, so
// the run and its slice accounting are the same at any decision
// interval, and inside a stable phase a detailed slice comes at most
// once per Interval.
func TestSampledFixedOPPCadence(t *testing.T) {
	cfg := soc.NexusFive()
	wl := fidelityWorkload(t, "Reddit", "backprop")
	base := Options{SoC: cfg, Governor: governor.NewFixed(cfg.OPPs.Ceil(1190)), Seed: 1}

	var ref Result
	var refSlices sampledSlices
	for i, di := range []time.Duration{time.Millisecond, 7 * time.Millisecond, 20 * time.Millisecond, 100 * time.Millisecond} {
		opts := base
		opts.DecisionInterval = di
		res, s := countedSampledLoad(t, opts, wl)
		t.Logf("decision interval %v: %+v", di, s)
		interval := uint64(fidelity.DefaultParams().Interval)
		if s.Cadence == 0 || s.Cadence*(interval-1) > s.Extrapolated {
			t.Errorf("decision interval %v: %d cadence slices for %d extrapolated, want 0 < cadence ≤ extrapolated/%d",
				di, s.Cadence, s.Extrapolated, interval-1)
		}
		if i == 0 {
			ref, refSlices = res, s
			continue
		}
		if s != refSlices {
			t.Errorf("decision interval %v changed the slice accounting: %+v, at %v: %+v", di, s, time.Millisecond, refSlices)
		}
		if !reflect.DeepEqual(res, ref) {
			t.Errorf("decision interval %v changed a fixed-OPP sampled result", di)
		}
	}

	// The cadence is the knob: a shorter Interval buys more detail.
	opts := base
	opts.FidelityParams = fidelity.Params{Interval: 8}
	_, fine := countedSampledLoad(t, opts, wl)
	if fine.Cadence <= refSlices.Cadence || fine.Extrapolated >= refSlices.Extrapolated {
		t.Errorf("Interval 8 gave %+v, not more detail than the default's %+v", fine, refSlices)
	}
}

// toggleGov switches between two OPPs at every decision and counts
// the switches it asked for.
type toggleGov struct {
	a, b     dvfs.OPP
	switches int
}

func (g *toggleGov) Name() string { return "toggle" }
func (g *toggleGov) Reset()       { g.switches = 0 }
func (g *toggleGov) Decide(ctx governor.Context) dvfs.OPP {
	next := g.a
	if ctx.Current.FreqMHz == g.a.FreqMHz {
		next = g.b
	}
	g.switches++
	return next
}

// TestSampledOPPSwitchForcesDetail pins the other half of the policy:
// a decision that switches the OPP invalidates the phase, so at least
// Stable detailed slices follow it before extrapolation resumes.
func TestSampledOPPSwitchForcesDetail(t *testing.T) {
	cfg := soc.NexusFive()
	wl := fidelityWorkload(t, "Reddit", "backprop")
	gov := &toggleGov{a: cfg.OPPs.Ceil(960), b: cfg.OPPs.Ceil(1574)}
	const decide = 12 * time.Millisecond // room for Stable slices and some extrapolation
	_, s := countedSampledLoad(t, Options{SoC: cfg, Governor: gov, Seed: 1, DecisionInterval: decide}, wl)
	t.Logf("%d switches: %+v", gov.switches, s)

	stable := uint64(fidelity.DefaultParams().Stable)
	if gov.switches == 0 || s.Unstable < stable*uint64(gov.switches) {
		t.Errorf("%d unstable-phase slices for %d OPP switches, want ≥ %d per switch", s.Unstable, gov.switches, stable)
	}
	if s.Extrapolated == 0 {
		t.Error("no slice was extrapolated between switches")
	}
}

// neverExtrapolate is a detector setting under which no phase ever
// becomes stable, so every slice of a sampled run is detailed.
var neverExtrapolate = fidelity.Params{Stable: math.MaxInt32}

// TestSampledWithoutExtrapolationIsExact pins that fidelity changes
// only how a slice advances: a sampled run whose detector can never
// extrapolate, with no checkpoints, is the exact run, for the
// interactive governor and for a fixed OPP with a co-runner.
func TestSampledWithoutExtrapolationIsExact(t *testing.T) {
	cfg := soc.NexusFive()
	cases := []struct {
		name string
		gov  governor.Governor
		wl   Workload
	}{
		{"interactive", governor.NewInteractive(governor.DefaultInteractiveConfig()), fidelityWorkload(t, "Alipay", "")},
		{"fixed+corun", governor.NewFixed(cfg.OPPs.Ceil(1190)), fidelityWorkload(t, "Reddit", "kmeans")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{SoC: cfg, Governor: tc.gov, Seed: 1}
			exact, err := LoadPage(opts, tc.wl)
			if err != nil {
				t.Fatal(err)
			}
			opts.Fidelity, opts.FidelityParams = fidelity.Sampled, neverExtrapolate
			samp, err := LoadPage(opts, tc.wl)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(exact, samp) {
				t.Errorf("all-detailed sampled run differs from the exact run:\nexact:   %+v\nsampled: %+v", exact, samp)
			}
		})
	}
}

// TestWarmupShape pins the one place the fidelities' protocols differ:
// exact mode warms up in whole decision intervals, so a 30 ms warmup at
// a 20 ms cadence runs to 40 ms, while sampled mode stops at the first
// slice at or past Warmup. A fixed OPP makes the decision interval
// itself irrelevant, which isolates where the warmup ends.
func TestWarmupShape(t *testing.T) {
	cfg := soc.NexusFive()
	wl := fidelityWorkload(t, "Alipay", "backprop")
	run := func(mode fidelity.Mode, warmup, interval time.Duration) Result {
		t.Helper()
		res, err := LoadPage(Options{
			SoC: cfg, Governor: governor.NewFixed(cfg.OPPs.Ceil(1190)), Seed: 1,
			Warmup: warmup, DecisionInterval: interval,
			Fidelity: mode, FidelityParams: neverExtrapolate,
		}, wl)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	const ms = time.Millisecond
	exact30 := run(fidelity.Exact, 30*ms, 20*ms)
	if !reflect.DeepEqual(exact30, run(fidelity.Exact, 40*ms, 20*ms)) {
		t.Error("exact mode at a 30 ms warmup and 20 ms cadence did not warm up to 40 ms")
	}
	sampled30 := run(fidelity.Sampled, 30*ms, 20*ms)
	if !reflect.DeepEqual(sampled30, run(fidelity.Exact, 30*ms, 10*ms)) {
		t.Error("sampled mode at a 30 ms warmup did not stop at 30 ms")
	}
	if reflect.DeepEqual(exact30, sampled30) {
		t.Error("a 30 ms and a 40 ms warmup gave the same result: the test cannot tell them apart")
	}
}
