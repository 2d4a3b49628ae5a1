package experiment

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dora/internal/core"
	"dora/internal/corun"
	"dora/internal/fidelity"
	"dora/internal/runcache"
	"dora/internal/sim"
	"dora/internal/soc"
	"dora/internal/telemetry"
	"dora/internal/train"
)

// tinySuite trains on a minimal grid — enough to exercise the figure
// plumbing in -short runs.
var (
	tinyOnce sync.Once
	tiny     *Suite
	tinyErr  error
)

func tinySuite(t *testing.T) *Suite {
	t.Helper()
	tinyOnce.Do(func() {
		cfg := soc.NexusFive()
		obs, err := train.Campaign(train.Config{
			SoC:         cfg,
			Seed:        3,
			Pages:       []string{"Alipay", "MSN", "Hao123"},
			Intensities: []corun.Intensity{corun.None, corun.High},
			FreqsMHz:    []int{652, 729, 960, 1190, 1497, 1728, 1958, 2265},
		})
		if err != nil {
			tinyErr = err
			return
		}
		tr, err := train.FitObservations(train.Options{Device: cfg}, obs)
		if err != nil {
			tinyErr = err
			return
		}
		tiny = &Suite{
			SoC: cfg, Models: tr.Models, Static: tr.Static,
			TrainReport: tr.Report, HoldoutReport: tr.Report,
			Observations: obs, Seed: 3,
		}
		tiny.runs, tiny.kernels = newMemos()
	})
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	return tiny
}

// fastSuite is the full-fidelity (but reduced-grid) suite used by the
// heavier shape tests.
var (
	fastOnce sync.Once
	fast     *Suite
	fastErr  error
)

func fastSuite(t *testing.T) *Suite {
	t.Helper()
	fastOnce.Do(func() {
		fast, fastErr = NewSuite(train.Options{Device: soc.NexusFive(), Seed: 1, Fast: true})
	})
	if fastErr != nil {
		t.Fatal(fastErr)
	}
	return fast
}

func TestCombos(t *testing.T) {
	combos := Combos()
	if len(combos) != 54 {
		t.Fatalf("combos = %d, want 54 (18 pages x 3 intensities)", len(combos))
	}
	incl, neu := 0, 0
	for i, c := range combos {
		if c.Index != i {
			t.Fatal("combo indices must be dense")
		}
		if c.Inclusive {
			incl++
		} else {
			neu++
		}
	}
	if incl != 42 || neu != 12 {
		t.Fatalf("inclusive/neutral = %d/%d, want 42/12", incl, neu)
	}
}

func TestNewGovernorNames(t *testing.T) {
	s := tinySuite(t)
	for _, name := range core.GovernorNames() {
		g, interval, err := s.NewGovernor(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.Name() != name {
			t.Fatalf("governor %q reports name %q", name, g.Name())
		}
		if interval <= 0 {
			t.Fatalf("%s: non-positive interval", name)
		}
	}
	if _, _, err := s.NewGovernor("bogus"); err == nil {
		t.Fatal("unknown governor must error")
	}
}

func TestRunCaching(t *testing.T) {
	s := tinySuite(t)
	o := RunOptions{Page: "Alipay", Intensity: corun.None, FixedMHz: 2265, Governor: "fixed"}
	a, err := s.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	before := len(s.runs.Values())
	b, err := s.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.runs.Values()) != before {
		t.Fatal("second identical run must be served from cache")
	}
	if a.LoadTime != b.LoadTime {
		t.Fatal("cached result differs")
	}
	if _, err := s.Run(RunOptions{Page: "NoSuchPage", Governor: "DORA"}); err == nil {
		t.Fatal("unknown page must error")
	}
}

func TestFig5FromReports(t *testing.T) {
	s := tinySuite(t)
	f5 := s.Fig5()
	// At(+Inf) is 1 over any sample and 0 over none.
	if f5.TimeCDF.At(math.Inf(1)) != 1 || f5.PowerCDF.At(math.Inf(1)) != 1 {
		t.Fatal("error CDFs empty")
	}
	out := f5.Table()
	if !strings.Contains(out, "Figure 5") || !strings.Contains(out, "paper: 2.5%") {
		t.Fatalf("table rendering wrong:\n%s", out)
	}
}

func TestFig11DeadlineSweepShape(t *testing.T) {
	s := tinySuite(t)
	f11, err := s.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(f11.FreqMHz) != 10 {
		t.Fatalf("deadline sweep has %d points", len(f11.FreqMHz))
	}
	// Tight deadlines demand at least as much frequency as loose ones.
	if f11.FreqMHz[0] < f11.FreqMHz[len(f11.FreqMHz)-1] {
		t.Fatalf("1 s deadline picked %d < 10 s deadline %d", f11.FreqMHz[0], f11.FreqMHz[len(f11.FreqMHz)-1])
	}
	// The tail is the relaxed f_E regime.
	if f11.Regime[len(f11.Regime)-1] != "fE" {
		t.Fatalf("10 s deadline should be in the f_E regime: %v", f11.Regime)
	}
	if !strings.Contains(f11.Table(), "Figure 11") {
		t.Fatal("table rendering wrong")
	}
}

func TestTableIIIClassification(t *testing.T) {
	if testing.Short() {
		t.Skip("18-page classification is heavy")
	}
	s := fastSuite(t)
	t3, err := s.TableIII()
	if err != nil {
		t.Fatal(err)
	}
	ok, total := t3.Matches()
	if total != 18+9 {
		t.Fatalf("classified %d entries, want 27", total)
	}
	if ok < total-2 {
		t.Fatalf("only %d/%d Table III classifications match the paper:\n%s", ok, total, t3.Table())
	}
}

func TestFig1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	s := fastSuite(t)
	f1, err := s.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	// Load time falls with frequency and rises with intensity.
	byKey := map[corun.Intensity]map[int]time.Duration{}
	for _, row := range f1.Rows {
		if byKey[row.Intensity] == nil {
			byKey[row.Intensity] = map[int]time.Duration{}
		}
		byKey[row.Intensity][row.FreqMHz] = row.LoadTime
	}
	for in, m := range byKey {
		if m[729] <= m[2265] {
			t.Fatalf("intensity %v: no frequency speedup", in)
		}
	}
	for _, f := range []int{729, 2265} {
		if byKey[corun.High][f] <= byKey[corun.None][f] {
			t.Fatalf("interference does not slow Reddit at %d MHz", f)
		}
	}
	// The paper's crossover: some frequency meets 3 s with low
	// interference but misses with high.
	crossover := false
	for f, tl := range byKey[corun.Low] {
		if tl <= 3*time.Second && byKey[corun.High][f] > 3*time.Second {
			crossover = true
		}
	}
	if !crossover {
		t.Fatalf("no Fig. 1 deadline crossover found:\n%s", f1.Table())
	}
}

func TestFig3Regimes(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	s := fastSuite(t)
	f3, err := s.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	var espn, msn *Fig3Sweep
	for i := range f3.Sweeps {
		switch f3.Sweeps[i].Page {
		case "ESPN":
			espn = &f3.Sweeps[i]
		case "MSN":
			msn = &f3.Sweeps[i]
		}
	}
	if espn == nil || msn == nil {
		t.Fatal("sweeps missing")
	}
	if espn.FD == 0 {
		t.Fatal("ESPN must be feasible at some frequency")
	}
	if espn.FD <= espn.FE {
		t.Fatalf("ESPN regime wrong: f_D=%d should exceed f_E=%d", espn.FD, espn.FE)
	}
	if msn.FD > msn.FE {
		t.Fatalf("MSN regime wrong: f_D=%d should be <= f_E=%d", msn.FD, msn.FE)
	}
	// Pinning max frequency wastes PPW for both pages.
	for _, sw := range f3.Sweeps {
		if sw.OptPPW <= sw.MaxFreqPPW {
			t.Fatalf("%s: f_opt PPW %.4f not above max-frequency PPW %.4f",
				sw.Page, sw.OptPPW, sw.MaxFreqPPW)
		}
	}
}

func TestFig6Sensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	s := fastSuite(t)
	f6, err := s.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if f6.FOpt == 729 || f6.FOpt == 2265 {
		t.Fatalf("YouTube+high f_opt at the edge: %d", f6.FOpt)
	}
	// Neighbour deltas have the right signs: lower frequency is slower
	// and cheaper; higher is faster and hungrier.
	if f6.DeltaTDown <= 0 || f6.DeltaPDown >= 0 {
		t.Fatalf("below-f_opt deltas wrong: dt=%v dP=%v", f6.DeltaTDown, f6.DeltaPDown)
	}
	if f6.DeltaTUp >= 0 || f6.DeltaPUp <= 0 {
		t.Fatalf("above-f_opt deltas wrong: dt=%v dP=%v", f6.DeltaTUp, f6.DeltaPUp)
	}
	if tol := f6.ErrorTolerance(); tol <= 0 {
		t.Fatalf("error tolerance %v must be positive", tol)
	}
}

func TestHeadlineAndFig7(t *testing.T) {
	if testing.Short() {
		t.Skip("full 54x5 matrix is minutes-long")
	}
	s := fastSuite(t)
	h, err := s.Headline()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("headline:\n%s", h.Table())
	if h.MeanGainAll < 0.05 {
		t.Errorf("DORA mean gain %.1f%% too small (paper: 16%%)", h.MeanGainAll*100)
	}
	if h.MaxGain < 0.15 {
		t.Errorf("DORA max gain %.1f%% too small (paper: 35%%)", h.MaxGain*100)
	}
	if h.EEViolationFrac <= 0 {
		t.Error("EE should violate deadlines on some workloads (paper: 21%)")
	}
	if h.FeasibleFrac < 0.6 || h.FeasibleFrac > 0.95 {
		t.Errorf("feasible fraction %.0f%% out of band (paper: 82%%)", h.FeasibleFrac*100)
	}

	f7, err := s.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	// DORA beats interactive on average; performance does not.
	if f7.MeanNormPPW["DORA"][2] <= 1.0 {
		t.Errorf("DORA mean normalized PPW %.3f <= 1", f7.MeanNormPPW["DORA"][2])
	}
	if f7.MeanNormPPW["performance"][2] >= f7.MeanNormPPW["DORA"][2] {
		t.Errorf("performance (%.3f) should not beat DORA (%.3f)",
			f7.MeanNormPPW["performance"][2], f7.MeanNormPPW["DORA"][2])
	}
	// DORA's violations no worse than EE's.
	if f7.ViolationFrac["DORA"] > f7.ViolationFrac["EE"] {
		t.Errorf("DORA misses more deadlines (%.0f%%) than EE (%.0f%%)",
			f7.ViolationFrac["DORA"]*100, f7.ViolationFrac["EE"]*100)
	}
}

func TestOverheadSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	s := fastSuite(t)
	ov, err := s.Overhead()
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports <1% decision overhead; our Algorithm 1 pass
	// must be far below the 100 ms interval.
	if ov.DecideFracOfSlot > 0.01 {
		t.Errorf("decision cost %.2f%% of the interval, want < 1%%", ov.DecideFracOfSlot*100)
	}
	if ov.SwitchTimeFrac > 0.03 {
		t.Errorf("switch stall %.2f%% of load time, want <= 3%%", ov.SwitchTimeFrac*100)
	}
	if !strings.Contains(ov.Table(), "Algorithm 1") {
		t.Error("overhead table rendering wrong")
	}
}

// cloneSuite shares a trained suite's models but gives the copy its own
// memo cache, worker width, run cache and metrics — for tests that
// compare measurement strategies on identical models.
func cloneSuite(s *Suite, workers int, rc *runcache.Cache, m *telemetry.Registry) *Suite {
	c := &Suite{
		SoC: s.SoC, Models: s.Models, Static: s.Static,
		TrainReport: s.TrainReport, HoldoutReport: s.HoldoutReport,
		Observations: s.Observations, Seed: s.Seed,
		Workers: workers, RunCache: rc, Metrics: m,
	}
	c.runs, c.kernels = newMemos()
	return c
}

// The tentpole guarantee at the suite layer: exhibits built with a wide
// worker pool are identical to serially built ones, because each run's
// seed depends only on its options.
func TestSuiteParallelMatchesSerial(t *testing.T) {
	s := tinySuite(t)
	serial := cloneSuite(s, 1, nil, nil)
	par := cloneSuite(s, 8, nil, nil)
	f11s, err := serial.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	f11p, err := par.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f11s, f11p) {
		t.Fatalf("parallel Fig11 differs from serial:\n%+v\n%+v", f11s, f11p)
	}
	if !reflect.DeepEqual(serial.runs.Values(), par.runs.Values()) {
		t.Fatal("parallel memo cache differs from serial")
	}
}

// Prefetch with duplicate options must simulate each distinct option
// once: duplicates either hit the memo or wait on the in-flight run.
func TestPrefetchSingleflight(t *testing.T) {
	s := tinySuite(t)
	m := telemetry.NewRegistry()
	c := cloneSuite(s, 4, nil, m)
	base := RunOptions{Page: "Alipay", Intensity: corun.None, FixedMHz: 2265, Governor: "fixed"}
	other := RunOptions{Page: "Alipay", Intensity: corun.None, FixedMHz: 1958, Governor: "fixed"}
	opts := []RunOptions{base, base, other, base, other, base}
	if err := c.Prefetch(opts); err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("dora_suite_runs_total", "").Value(); got != 2 {
		t.Fatalf("executed %d simulations for 2 distinct options", got)
	}
	if n := len(c.runs.Values()); n != 2 {
		t.Fatalf("memo holds %d entries, want 2", n)
	}
}

// A suite's metrics registry counts suite activity and observes no
// run, so a suite that has one still shares warm checkpoints.
func TestSuiteMetricsKeepCheckpoints(t *testing.T) {
	m := telemetry.NewRegistry()
	s := &Suite{SoC: soc.NexusFive(), Seed: 1, Metrics: m, ckpts: sim.NewCheckpointStore()}
	s.runs, s.kernels = newMemos()
	o := RunOptions{Page: "Alipay", Intensity: corun.Low, FixedMHz: 1190, Governor: "fixed", Fidelity: fidelity.Sampled}
	if _, err := s.Run(o); err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("dora_suite_runs_total", "").Value(); got != 1 {
		t.Fatalf("executed %d simulations, want 1", got)
	}
	if n := s.ckpts.Len(); n != 1 {
		t.Fatalf("checkpoint store holds %d entries after one sampled run, want 1", n)
	}
}

// A warm persistent run cache serves a repeat exhibit without running
// the simulator at all, and reproduces the cold results exactly.
func TestSuiteRunCacheWarm(t *testing.T) {
	s := tinySuite(t)
	path := filepath.Join(t.TempDir(), "runs.json")
	cold, err := runcache.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	coldSuite := cloneSuite(s, 2, cold, telemetry.NewRegistry())
	f11cold, err := coldSuite.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, stores := cold.Stats(); stores == 0 {
		t.Fatal("cold run stored nothing")
	}
	if err := cold.Save(); err != nil {
		t.Fatal(err)
	}

	warm, err := runcache.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	m := telemetry.NewRegistry()
	warmSuite := cloneSuite(s, 2, warm, m)
	f11warm, err := warmSuite.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f11cold, f11warm) {
		t.Fatal("warm-cache Fig11 differs from cold run")
	}
	if got := m.Counter("dora_suite_runs_total", "").Value(); got != 0 {
		t.Fatalf("warm run executed %d simulations, want 0", got)
	}
	hits := m.Counter("dora_suite_runcache_hits_total", "").Value()
	if _, _, coldStores := cold.Stats(); hits != coldStores {
		t.Fatalf("runcache hits %d != cold stores %d — some runs were re-simulated", hits, coldStores)
	}
}
