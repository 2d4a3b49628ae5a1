package sim

import (
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
