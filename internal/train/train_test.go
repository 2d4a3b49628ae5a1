package train

import (
	"math"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"dora/internal/core"
	"dora/internal/corun"
	"dora/internal/fidelity"
	"dora/internal/power"
	"dora/internal/runcache"
	"dora/internal/soc"
	"dora/internal/stats"
	"dora/internal/webgen"
)

// smallCfg is a reduced campaign grid that keeps unit tests fast.
func smallCfg() Config {
	return Config{
		SoC:         soc.NexusFive(),
		Pages:       []string{"Alipay", "MSN", "Hao123"},
		Intensities: []corun.Intensity{corun.None, corun.High},
		FreqsMHz:    []int{652, 729, 960, 1190, 1497, 1728, 1958, 2265},
		Seed:        100,
	}
}

var (
	smallObsOnce sync.Once
	smallObs     []Observation
	smallObsErr  error
)

// smallCampaign runs the reduced campaign once per test process.
func smallCampaign(t *testing.T) []Observation {
	t.Helper()
	smallObsOnce.Do(func() {
		smallObs, smallObsErr = Campaign(smallCfg())
	})
	if smallObsErr != nil {
		t.Fatal(smallObsErr)
	}
	return smallObs
}

func TestCampaignShape(t *testing.T) {
	obs := smallCampaign(t)
	want := 3 * 2 * 8
	if len(obs) != want {
		t.Fatalf("observations = %d, want %d", len(obs), want)
	}
	for _, o := range obs {
		if len(o.X) != 9 {
			t.Fatalf("X has %d features", len(o.X))
		}
		if o.LoadTimeS <= 0 || o.PowerW <= 0 || o.AvgTempC <= 0 {
			t.Fatalf("implausible observation: %+v", o)
		}
		if o.Intensity == corun.High && o.Kernel == "none" {
			t.Fatal("high-intensity observation has no kernel")
		}
		if o.Intensity == corun.None && o.X[5] != 0 {
			t.Fatalf("no co-runner but MPKI = %v", o.X[5])
		}
	}
	// Load time decreases with frequency for a fixed workload.
	byKey := map[string][]Observation{}
	for _, o := range obs {
		byKey[o.Page+o.Kernel] = append(byKey[o.Page+o.Kernel], o)
	}
	for k, group := range byKey {
		for i := 1; i < len(group); i++ {
			if group[i].FreqMHz > group[i-1].FreqMHz && group[i].LoadTimeS >= group[i-1].LoadTimeS {
				t.Fatalf("%s: load time not decreasing with frequency", k)
			}
		}
	}
}

// TestOptionsPresets pins the grid presets: Tiny wins over Fast, the
// full preset leaves every grid list to the defaults, and the holdout
// campaign keeps the preset's grid on two held-out pages (all four on
// the full preset) under a disjoint seed range.
func TestOptionsPresets(t *testing.T) {
	dev := soc.NexusFive()
	tiny := Options{Device: dev, Seed: 7, Tiny: true, Fast: true}.campaignConfig()
	if len(tiny.Pages) != 4 || len(tiny.Intensities) != 3 || len(tiny.FreqsMHz) != 8 {
		t.Fatalf("Tiny+Fast grid = %d pages x %d intensities x %d freqs, want 4x3x8",
			len(tiny.Pages), len(tiny.Intensities), len(tiny.FreqsMHz))
	}
	fast := Options{Device: dev, Fast: true}.campaignConfig()
	if len(fast.Pages) != 8 || fast.Intensities != nil || len(fast.FreqsMHz) != 10 {
		t.Fatalf("Fast grid = %v / %v / %v", fast.Pages, fast.Intensities, fast.FreqsMHz)
	}
	full := Options{Device: dev}.campaignConfig()
	if full.Pages != nil || full.Intensities != nil || full.FreqsMHz != nil {
		t.Fatalf("full preset must leave the grid to the defaults: %+v", full)
	}
	for _, tc := range []struct {
		opts  Options
		pages int
	}{
		{Options{Device: dev, Seed: 7, Tiny: true}, 2},
		{Options{Device: dev, Seed: 7, Fast: true}, 2},
		{Options{Device: dev, Seed: 7}, len(webgen.HoldoutNames())},
	} {
		h := tc.opts.HoldoutConfig()
		grid := tc.opts.campaignConfig()
		if len(h.Pages) != tc.pages || h.Seed != 10_007 ||
			!reflect.DeepEqual(h.FreqsMHz, grid.FreqsMHz) || !reflect.DeepEqual(h.Intensities, grid.Intensities) {
			t.Errorf("holdout of %+v = %+v", tc.opts, h)
		}
		for _, p := range h.Pages {
			if !webgen.IsHoldout(p) {
				t.Errorf("holdout page %s is a training page", p)
			}
		}
	}
}

func TestCampaignErrors(t *testing.T) {
	cfg := smallCfg()
	cfg.SoC.OPPs = nil
	if _, err := Campaign(cfg); err == nil {
		t.Fatal("missing OPP table must error")
	}
	cfg = smallCfg()
	cfg.Pages = []string{"NoSuchPage"}
	if _, err := Campaign(cfg); err == nil {
		t.Fatal("unknown page must error")
	}
	cfg = smallCfg()
	cfg.FreqsMHz = []int{777}
	if _, err := Campaign(cfg); err == nil {
		t.Fatal("unknown frequency must error")
	}
}

func TestFitStaticRecoversLeakageShape(t *testing.T) {
	cfg := smallCfg()
	static, err := FitStatic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Compare against simulator ground truth: leakage + uncore idle +
	// bus idle + baseline.
	gt := func(v, temp float64) float64 {
		return power.DefaultLeakage().Power(v, temp) +
			power.DefaultDevice().UncoreIdleW +
			power.DefaultDevice().BaselineW + 0.035 // bus idle
	}
	worst := 0.0
	for _, v := range []float64{0.85, 0.95, 1.05, 1.15} {
		for _, temp := range []float64{28, 40, 55, 62} {
			got := static.At(v, temp)
			want := gt(v, temp)
			rel := math.Abs(got-want) / want
			if rel > worst {
				worst = rel
			}
		}
	}
	if worst > 0.05 {
		t.Fatalf("static fit worst error %.1f%% > 5%%", worst*100)
	}
	// Leakage component must grow with temperature at fixed voltage.
	if static.At(1.1, 65) <= static.At(1.1, 30) {
		t.Fatal("fitted static power must grow with temperature")
	}
}

func TestFitAndEvaluate(t *testing.T) {
	cfg := smallCfg()
	obs := smallCampaign(t)
	static, err := FitStatic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	models, rep, err := Fit(obs, static)
	if err != nil {
		t.Fatal(err)
	}
	if err := models.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.Observations != len(obs) {
		t.Fatalf("report N = %d", rep.Observations)
	}
	// The small grid forces the linear fallback (too few observations
	// per tier for the interaction surface), which cannot represent the
	// work/frequency interaction — so only a loose in-sample bound
	// applies here; the paper-class accuracy check lives in
	// TestFullTrainingAccuracy.
	if rep.TimeMetrics.MAPE > 0.70 {
		t.Fatalf("load-time MAPE = %.1f%%, too high even for the linear fallback", rep.TimeMetrics.MAPE*100)
	}
	if rep.PowerMetrics.MAPE > 0.10 {
		t.Fatalf("power MAPE = %.1f%%, too high even in-sample", rep.PowerMetrics.MAPE*100)
	}
	if len(rep.TimeErrors) != len(obs) || len(rep.PowerErrors) != len(obs) {
		t.Fatal("per-observation errors missing")
	}
	// Fit of empty set must error.
	if _, _, err := Fit(nil, static); err == nil {
		t.Fatal("empty fit must error")
	}
}

func TestSplit(t *testing.T) {
	obs := []Observation{
		{Page: "MSN"}, {Page: "Imgur"}, {Page: "BBC"}, {Page: "Reddit"},
	}
	tr, ho := Split(obs)
	if len(tr) != 2 || len(ho) != 2 {
		t.Fatalf("split = %d/%d", len(tr), len(ho))
	}
	for _, o := range ho {
		if !webgen.IsHoldout(o.Page) {
			t.Fatalf("%s in holdout split", o.Page)
		}
	}
}

func TestShuffleDeterministic(t *testing.T) {
	mk := func() []Observation {
		var o []Observation
		for i := 0; i < 20; i++ {
			o = append(o, Observation{FreqMHz: i})
		}
		return o
	}
	a, b := mk(), mk()
	Shuffle(a, 7)
	Shuffle(b, 7)
	for i := range a {
		if a[i].FreqMHz != b[i].FreqMHz {
			t.Fatal("shuffle must be deterministic per seed")
		}
	}
	c := mk()
	Shuffle(c, 8)
	same := true
	for i := range a {
		if a[i].FreqMHz != c[i].FreqMHz {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should permute differently")
	}
}

// tinyCfg is an 8-cell grid for tests that must run the campaign more
// than once.
func tinyCfg() Config {
	return Config{
		SoC:         soc.NexusFive(),
		Pages:       []string{"Alipay", "Reddit"},
		Intensities: []corun.Intensity{corun.None, corun.High},
		FreqsMHz:    []int{960, 2265},
		Seed:        100,
	}
}

// The tentpole guarantee: a campaign fanned out over many workers is
// byte-identical to the serial sweep, because seeds derive from grid
// position rather than execution order.
func TestCampaignParallelMatchesSerial(t *testing.T) {
	serialCfg := tinyCfg()
	serialCfg.Workers = 1
	serial, err := Campaign(serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	parCfg := tinyCfg()
	parCfg.Workers = 8
	par, err := Campaign(parCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatal("parallel campaign differs from serial campaign")
	}
}

func TestFitStaticParallelMatchesSerial(t *testing.T) {
	serialCfg := tinyCfg()
	serialCfg.Workers = 1
	serial, err := FitStatic(serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	parCfg := tinyCfg()
	parCfg.Workers = 8
	par, err := FitStatic(parCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatal("parallel idle sweep fit differs from serial")
	}
}

// A warm run cache must serve every campaign cell and the static fit
// without touching the simulator, and reproduce the cold results
// exactly — including across a save/reopen cycle.
func TestCampaignRunCacheWarm(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.json")
	cache, err := runcache.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyCfg()
	cfg.Cache = cache
	cold, err := Campaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coldStatic, err := FitStatic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, stores := cache.Stats(); stores != uint64(len(cold))+1 {
		t.Fatalf("cold run stored %d entries, want %d cells + 1 static fit", stores, len(cold)+1)
	}
	if err := cache.Save(); err != nil {
		t.Fatal(err)
	}

	warm, err := runcache.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = warm
	obs, err := Campaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	static, err := FitStatic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses, stores := warm.Stats()
	if misses != 0 || stores != 0 {
		t.Fatalf("warm run missed %d / stored %d — simulator was re-run", misses, stores)
	}
	if want := uint64(len(cold)) + 1; hits != want {
		t.Fatalf("warm run hit %d entries, want %d", hits, want)
	}
	if !reflect.DeepEqual(cold, obs) {
		t.Fatal("cached observations differ from measured ones")
	}
	if !reflect.DeepEqual(coldStatic, static) {
		t.Fatal("cached static fit differs from measured one")
	}

	// A different seed must not alias into the cached entries.
	missCfg := tinyCfg()
	missCfg.Cache = warm
	missCfg.Seed = 101
	if _, err := Campaign(missCfg); err != nil {
		t.Fatal(err)
	}
	if _, misses, _ := warm.Stats(); misses == 0 {
		t.Fatal("seed change must invalidate cached cells")
	}
}

// Integration: the full paper-scale training campaign achieves the
// paper's accuracy class (a few percent mean error). Heavy — skipped
// with -short.
func TestFullTrainingAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign is minutes-long")
	}
	cfg := Config{SoC: soc.NexusFive(), Seed: 1}
	obs, err := Campaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	static, err := FitStatic(Config{SoC: soc.NexusFive()})
	if err != nil {
		t.Fatal(err)
	}
	models, rep, err := Fit(obs, static)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("training: N=%d time MAPE=%.2f%% power MAPE=%.2f%%",
		rep.Observations, rep.TimeMetrics.MAPE*100, rep.PowerMetrics.MAPE*100)
	if rep.TimeMetrics.MAPE > 0.08 {
		t.Errorf("load-time MAPE %.2f%% exceeds the paper-class bound", rep.TimeMetrics.MAPE*100)
	}
	if rep.PowerMetrics.MAPE > 0.08 {
		t.Errorf("power MAPE %.2f%% exceeds the paper-class bound", rep.PowerMetrics.MAPE*100)
	}
	// Error CDF shape (Fig. 5a): most pages under 10% error.
	cdf := stats.NewCDF(rep.TimeErrors)
	if cdf.At(0.10) < 0.80 {
		t.Errorf("only %.0f%% of load-time predictions under 10%% error", cdf.At(0.10)*100)
	}
	_ = models
	_ = core.FeatureNames()
}

// The sampled-fidelity twin of TestCampaignParallelMatchesSerial: the
// warm-checkpoint store is shared across workers, so the guarantee is
// stronger — whichever worker warms a checkpoint first, every cell
// must measure bit-identically at any pool width.
func TestSampledCampaignParallelMatchesSerial(t *testing.T) {
	serialCfg := tinyCfg()
	serialCfg.Fidelity = fidelity.Sampled
	serialCfg.Workers = 1
	serial, err := Campaign(serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	parCfg := tinyCfg()
	parCfg.Fidelity = fidelity.Sampled
	parCfg.Workers = 8
	par, err := Campaign(parCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatal("parallel sampled campaign differs from serial sampled campaign")
	}
}

// Exact and sampled measurements of the same cell must never alias in
// the run cache: a warm cache written by an exact campaign must not
// serve a sampled campaign, and vice versa.
func TestCampaignCacheNeverAliasesFidelity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.json")
	cache, err := runcache.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyCfg()
	cfg.Cache = cache
	exact, err := Campaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entriesAfterExact := cache.Len()

	scfg := tinyCfg()
	scfg.Cache = cache
	scfg.Fidelity = fidelity.Sampled
	sampled, err := Campaign(scfg)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() <= entriesAfterExact {
		t.Fatalf("sampled campaign reused exact cache entries (len stayed %d)", cache.Len())
	}
	// The two campaigns measure the same grid: near-equal observables,
	// but genuinely distinct measurements.
	if reflect.DeepEqual(exact, sampled) {
		t.Fatal("sampled observations identical to exact: cache aliased the fidelity modes")
	}
	for i := range exact {
		rel := (sampled[i].LoadTimeS - exact[i].LoadTimeS) / exact[i].LoadTimeS
		if rel < -0.05 || rel > 0.05 {
			t.Errorf("cell %d (%s+%s@%d): sampled load time off by %.1f%%",
				i, exact[i].Page, exact[i].Kernel, exact[i].FreqMHz, 100*rel)
		}
	}

	// A re-run of each mode must now be served entirely from cache,
	// reproducing its own mode's observations exactly.
	exact2, err := Campaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sampled2, err := Campaign(scfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exact, exact2) || !reflect.DeepEqual(sampled, sampled2) {
		t.Fatal("cache-served re-run diverged from its own fidelity mode")
	}
}
