package sim

import (
	"testing"
	"time"

	"dora/internal/corun"
	"dora/internal/governor"
	"dora/internal/soc"
	"dora/internal/webgen"
)

func fixedAt(t *testing.T, cfg soc.Config, mhz int) governor.Governor {
	t.Helper()
	opp, err := cfg.OPPs.ByFreq(mhz)
	if err != nil {
		t.Fatal(err)
	}
	return governor.NewFixed(opp)
}

func load(t *testing.T, page string, in corun.Intensity, gov governor.Governor) Result {
	t.Helper()
	cfg := soc.NexusFive()
	spec, err := webgen.ByName(page)
	if err != nil {
		t.Fatal(err)
	}
	wl := Workload{Page: spec}
	if in != corun.None {
		k, err := corun.Representative(in)
		if err != nil {
			t.Fatal(err)
		}
		wl.CoRun = &k
	}
	r, err := LoadPage(Options{SoC: cfg, Governor: gov, Seed: 1}, wl)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestLoadPageErrors(t *testing.T) {
	cfg := soc.NexusFive()
	if _, err := LoadPage(Options{SoC: cfg}, Workload{}); err == nil {
		t.Fatal("nil governor must error")
	}
	if _, err := LoadPage(Options{SoC: cfg, Governor: governor.NewPerformance()}, Workload{}); err == nil {
		t.Fatal("empty page must error")
	}
}

func TestTableIIIClasses(t *testing.T) {
	// Pages loaded alone at the top frequency split at the 2 s line.
	cfg := soc.NexusFive()
	gov := fixedAt(t, cfg, 2265)
	for _, name := range []string{"Alipay", "Twitter", "Reddit", "Alibaba"} {
		r := load(t, name, corun.None, gov)
		if r.LoadTime >= 2*time.Second {
			t.Errorf("%s: %v, want < 2 s (low class)", name, r.LoadTime)
		}
	}
	for _, name := range []string{"IMDB", "Hao123", "Aliexpress"} {
		r := load(t, name, corun.None, gov)
		if r.LoadTime <= 2*time.Second {
			t.Errorf("%s: %v, want > 2 s (high class)", name, r.LoadTime)
		}
	}
}

func TestInterferenceIncreasesLoadTimeAndEnergy(t *testing.T) {
	cfg := soc.NexusFive()
	gov := fixedAt(t, cfg, 2265)
	alone := load(t, "Reddit", corun.None, gov)
	high := load(t, "Reddit", corun.High, gov)
	if float64(high.LoadTime) < float64(alone.LoadTime)*1.15 {
		t.Fatalf("high interference too weak: %v vs %v alone", high.LoadTime, alone.LoadTime)
	}
	low := load(t, "Reddit", corun.Low, gov)
	if low.LoadTime >= high.LoadTime {
		t.Fatalf("low interference (%v) must cost less than high (%v)", low.LoadTime, high.LoadTime)
	}
	if high.AvgCoRunMPKI <= 7 {
		t.Fatalf("high co-runner MPKI = %v, want > 7", high.AvgCoRunMPKI)
	}
	if low.AvgCoRunMPKI >= 1 {
		t.Fatalf("low co-runner MPKI = %v, want < 1", low.AvgCoRunMPKI)
	}
}

func TestFig1DeadlineCrossover(t *testing.T) {
	// Reddit at a mid frequency meets 3 s with low interference but
	// misses it with high interference — the paper's Fig. 1 story.
	cfg := soc.NexusFive()
	gov := fixedAt(t, cfg, 1190)
	low := load(t, "Reddit", corun.Low, gov)
	high := load(t, "Reddit", corun.High, gov)
	if !low.DeadlineMet {
		t.Fatalf("Reddit+low at 1.19 GHz missed 3 s: %v", low.LoadTime)
	}
	if high.DeadlineMet {
		t.Fatalf("Reddit+high at 1.19 GHz met 3 s: %v; interference must break it", high.LoadTime)
	}
}

func TestPPWInteriorOptimum(t *testing.T) {
	// PPW must peak strictly inside the frequency range (neither
	// extreme), which is what makes frequency selection non-trivial.
	cfg := soc.NexusFive()
	var best int
	bestPPW := 0.0
	var minPPW, maxPPW float64
	for _, opp := range cfg.OPPs.PaperSubset() {
		r := load(t, "MSN", corun.Medium, governor.NewFixed(opp))
		if r.PPW > bestPPW {
			bestPPW, best = r.PPW, opp.FreqMHz
		}
		switch opp.FreqMHz {
		case 729:
			minPPW = r.PPW
		case 2265:
			maxPPW = r.PPW
		}
	}
	if best == 729 || best == 2265 {
		t.Fatalf("PPW peaks at the range edge (%d MHz)", best)
	}
	if bestPPW < minPPW*1.05 || bestPPW < maxPPW*1.05 {
		t.Fatalf("PPW optimum not pronounced: best %v, edges %v/%v", bestPPW, minPPW, maxPPW)
	}
}

func TestFig3Categories(t *testing.T) {
	// ESPN+medium: the PPW-optimal frequency violates the 3 s deadline
	// (f_E < f_D); MSN+medium: the PPW-optimal frequency meets it
	// (f_D <= f_E). These are the two regimes of Eq. (1).
	cfg := soc.NexusFive()
	type sweep struct {
		fE          int
		fEMeets     bool
		anyFeasible bool
	}
	run := func(page string) sweep {
		var s sweep
		best := 0.0
		for _, opp := range cfg.OPPs.PaperSubset() {
			r := load(t, page, corun.Medium, governor.NewFixed(opp))
			if r.PPW > best {
				best = r.PPW
				s.fE = opp.FreqMHz
				s.fEMeets = r.DeadlineMet
			}
			if r.DeadlineMet {
				s.anyFeasible = true
			}
		}
		return s
	}
	espn := run("ESPN")
	if !espn.anyFeasible {
		t.Fatal("ESPN+medium must be feasible at some frequency")
	}
	if espn.fEMeets {
		t.Fatalf("ESPN+medium f_E (%d MHz) meets the deadline; want f_E < f_D regime", espn.fE)
	}
	msn := run("MSN")
	if !msn.fEMeets {
		t.Fatalf("MSN+medium f_E (%d MHz) violates the deadline; want f_D <= f_E regime", msn.fE)
	}
}

func TestInfeasibleWorkloadTimesOutOrMisses(t *testing.T) {
	// Aliexpress+high cannot meet 3 s even at the maximum frequency —
	// the paper's 18% bucket where DORA matches interactive.
	r := load(t, "Aliexpress", corun.High, fixedAt(t, soc.NexusFive(), 2265))
	if r.DeadlineMet {
		t.Fatalf("Aliexpress+high met 3 s at max freq (%v); should be infeasible", r.LoadTime)
	}
}

func TestInteractiveGovernorRuns(t *testing.T) {
	gov := governor.NewInteractive(governor.DefaultInteractiveConfig())
	r := load(t, "Amazon", corun.Medium, gov)
	if r.TimedOut {
		t.Fatal("interactive run timed out")
	}
	if r.Governor != "interactive" {
		t.Fatalf("governor name = %q", r.Governor)
	}
	// Under full load interactive ramps up: residency must not sit at
	// the floor.
	var floor, total time.Duration
	for f, d := range r.FreqResidency {
		total += d
		if f <= 422 {
			floor += d
		}
	}
	if total <= 0 || floor > total/2 {
		t.Fatalf("interactive stuck at floor: %v of %v", floor, total)
	}
}

func TestResultAccounting(t *testing.T) {
	r := load(t, "Twitter", corun.Medium, fixedAt(t, soc.NexusFive(), 1497))
	if r.EnergyJ <= 0 || r.AvgPowerW <= 0 || r.PPW <= 0 {
		t.Fatalf("energy accounting broken: %+v", r)
	}
	// PPW = 1/(t*P) consistency.
	want := 1 / (r.LoadTime.Seconds() * r.AvgPowerW)
	if diff := r.PPW - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("PPW inconsistent: %v vs %v", r.PPW, want)
	}
	var resid time.Duration
	for _, d := range r.FreqResidency {
		resid += d
	}
	if resid < r.LoadTime-10*time.Millisecond || resid > r.LoadTime+10*time.Millisecond {
		t.Fatalf("residency %v vs load time %v", resid, r.LoadTime)
	}
	if r.Features.DOMNodes == 0 {
		t.Fatal("features missing from result")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := load(t, "CNN", corun.High, fixedAt(t, soc.NexusFive(), 1190))
	b := load(t, "CNN", corun.High, fixedAt(t, soc.NexusFive(), 1190))
	if a.LoadTime != b.LoadTime || a.EnergyJ != b.EnergyJ {
		t.Fatalf("same seed diverged: %v/%v vs %v/%v", a.LoadTime, a.EnergyJ, b.LoadTime, b.EnergyJ)
	}
	c := load(t, "CNN", corun.High, fixedAt(t, soc.NexusFive(), 1190))
	_ = c
}

func TestSeedJitterVariesLoadTime(t *testing.T) {
	cfg := soc.NexusFive()
	gov := fixedAt(t, cfg, 1497)
	spec, _ := webgen.ByName("BBC")
	k, _ := corun.Representative(corun.Medium)
	a, err := LoadPage(Options{SoC: cfg, Governor: gov, Seed: 1}, Workload{Page: spec, CoRun: &k})
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadPage(Options{SoC: cfg, Governor: gov, Seed: 2}, Workload{Page: spec, CoRun: &k})
	if err != nil {
		t.Fatal(err)
	}
	if a.LoadTime == b.LoadTime {
		t.Fatal("different seeds should jitter the load time (real-phone nondeterminism)")
	}
	rel := float64(a.LoadTime-b.LoadTime) / float64(a.LoadTime)
	if rel < 0 {
		rel = -rel
	}
	if rel > 0.2 {
		t.Fatalf("jitter too large: %v", rel)
	}
}

func TestColdAmbientLowersPower(t *testing.T) {
	cfg := soc.NexusFive()
	gov := fixedAt(t, cfg, 1958)
	spec, _ := webgen.ByName("Amazon")
	k, _ := corun.Representative(corun.Medium)
	room, err := LoadPage(Options{SoC: cfg, Governor: gov, Seed: 1, Warmup: 3 * time.Second}, Workload{Page: spec, CoRun: &k})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := LoadPage(Options{SoC: cfg, Governor: gov, Seed: 1, Warmup: 3 * time.Second, AmbientC: 10, StartTempC: 12}, Workload{Page: spec, CoRun: &k})
	if err != nil {
		t.Fatal(err)
	}
	if cold.AvgPowerW >= room.AvgPowerW {
		t.Fatalf("cold ambient power %v >= room %v; leakage must shrink", cold.AvgPowerW, room.AvgPowerW)
	}
}

func TestRunKernelInstructions(t *testing.T) {
	cfg := soc.NexusFive()
	k, _ := corun.Representative(corun.High)
	e, dur, err := RunKernelInstructions(Options{SoC: cfg, Governor: fixedAt(t, cfg, 1497), Seed: 1}, k, 1_000_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if dur <= 0 || e <= 0 {
		t.Fatalf("implausible: %v J over %v", e, dur)
	}
	// 1e9 instructions at ~1.5 GHz x IPC ~1.4 with heavy stalls: within
	// a sane wall-clock band.
	if dur < 200*time.Millisecond || dur > 5*time.Second {
		t.Fatalf("duration %v outside sane band", dur)
	}
	// Zero instructions: free.
	e0, d0, err := RunKernelInstructions(Options{SoC: cfg, Governor: fixedAt(t, cfg, 1497), Seed: 1}, k, 0)
	if err != nil || e0 != 0 || d0 != 0 {
		t.Fatalf("zero-instruction run: %v %v %v", e0, d0, err)
	}
	if _, _, err := RunKernelInstructions(Options{SoC: cfg}, k, 1); err == nil {
		t.Fatal("nil governor must error")
	}
}

func TestCoRunInstructionsRecorded(t *testing.T) {
	r := load(t, "Twitter", corun.High, fixedAt(t, soc.NexusFive(), 2265))
	if r.CoRunInstructions == 0 {
		t.Fatal("co-run instruction count missing")
	}
}
