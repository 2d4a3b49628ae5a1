package core

import (
	"testing"
	"time"

	"math/rand"

	"dora/internal/dvfs"
	"dora/internal/governor"
	"dora/internal/power"
	"dora/internal/regress"
)

// syntheticModels builds a model bundle from a known ground truth:
//
//	load time  = work / f(GHz) + mpki*0.05  (seconds)
//	dyn power  = 0.8 * f(GHz)^2            (watts)
//
// fitted exactly, so governor decisions can be verified analytically.
func syntheticModels(t *testing.T) *Models {
	t.Helper()
	tab := dvfs.MSM8974()
	feat := FeatureNames()
	lt := NewPiecewise()
	dp := NewPiecewise()
	rng := rand.New(rand.NewSource(9))
	for _, grp := range tab.BusGroups() {
		var xs [][]float64
		var yt, yp []float64
		for _, opp := range grp {
			for s := 0; s < 40; s++ {
				work := 1 + rng.Float64()*5
				mpki := rng.Float64() * 15
				util := rng.Float64()
				// Decorrelated auxiliary page features so the design
				// matrix has full rank; ground truth depends on work
				// (encoded in X1) only.
				page := []float64{
					work * 1000,
					rng.Float64() * 500,
					rng.Float64() * 300,
					rng.Float64() * 200,
					rng.Float64() * 400,
				}
				x, err := InputVector(page, mpki, opp, util)
				if err != nil {
					t.Fatal(err)
				}
				xs = append(xs, x)
				yt = append(yt, work/opp.FreqGHz()+mpki*0.05)
				yp = append(yp, 0.8*opp.FreqGHz()*opp.FreqGHz())
			}
		}
		mt, err := regress.Fit(regress.Interaction, feat, xs, yt)
		if err != nil {
			t.Fatal(err)
		}
		mp, err := regress.Fit(regress.Linear, feat, xs, yp)
		if err != nil {
			t.Fatal(err)
		}
		lt.Add(grp[0].BusFreqMHz, mt)
		dp.Add(grp[0].BusFreqMHz, mp)
	}
	l := power.DefaultLeakage()
	return &Models{
		Features: feat,
		LoadTime: lt,
		DynPower: dp,
		Static:   StaticPower{Params: []float64{l.K1, l.Alpha, l.Beta, l.K2, l.Gamma, l.Delta}, ConstW: 1.3},
		RefTempC: 30,
	}
}

func pageFor(work float64) []float64 {
	return []float64{work * 1000, work * 100, work * 50, work * 40, work * 60}
}

func ctx(t *testing.T, page []float64, deadline time.Duration, tempC float64) governor.Context {
	t.Helper()
	tab := dvfs.MSM8974()
	return governor.Context{
		Table:        tab,
		Current:      tab.Min(),
		Deadline:     deadline,
		PageFeatures: page,
		SoCTempC:     tempC,
	}
}

func TestFeatureNamesAndInputVector(t *testing.T) {
	if len(FeatureNames()) != 9 {
		t.Fatal("Table I has 9 independent variables")
	}
	opp := dvfs.OPP{FreqMHz: 1500, VoltageV: 1.0, BusFreqMHz: 800}
	x, err := InputVector([]float64{1, 2, 3, 4, 5}, 6.5, opp, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3, 4, 5, 6.5, 1.5, 800, 0.75}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("InputVector = %v", x)
		}
	}
	if _, err := InputVector([]float64{1, 2}, 0, opp, 0); err == nil {
		t.Fatal("short page vector must error")
	}
}

func TestModelsValidate(t *testing.T) {
	m := syntheticModels(t)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	var nilM *Models
	if err := nilM.Validate(); err == nil {
		t.Fatal("nil models must fail")
	}
	bad := *m
	bad.LoadTime = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("missing load-time model must fail")
	}
	bad = *m
	bad.Static = StaticPower{}
	if err := bad.Validate(); err == nil {
		t.Fatal("missing static params must fail")
	}
	if _, err := New(&bad, Options{}); err == nil {
		t.Fatal("New must reject invalid models")
	}
}

func TestPredictAllShape(t *testing.T) {
	m := syntheticModels(t)
	tab := dvfs.MSM8974()
	preds, err := m.PredictAll(tab, pageFor(2), 5, 1, 45, 3*time.Second, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != tab.Len() {
		t.Fatalf("predictions = %d, want %d", len(preds), tab.Len())
	}
	for i := 1; i < len(preds); i++ {
		if preds[i].LoadTimeS >= preds[i-1].LoadTimeS {
			t.Fatalf("load time must fall with frequency: %v then %v",
				preds[i-1].LoadTimeS, preds[i].LoadTimeS)
		}
		if preds[i].PowerW <= preds[i-1].PowerW {
			t.Fatalf("power must rise with frequency")
		}
	}
	// Feasibility respects ground truth: t = 2/f + 0.25.
	for _, p := range preds {
		wantFeasible := 2/p.OPP.FreqGHz()+0.25 <= 3.0+0.02
		if p.Feasible != wantFeasible && p.OPP.FreqGHz() > 0.7 {
			t.Fatalf("feasibility at %d MHz = %v, ground truth says %v",
				p.OPP.FreqMHz, p.Feasible, wantFeasible)
		}
	}
}

func TestDORAPicksMaxPPWFeasible(t *testing.T) {
	m := syntheticModels(t)
	g, err := New(m, Options{Mode: ModeDORA, UseLeakage: true})
	if err != nil {
		t.Fatal(err)
	}
	c := ctx(t, pageFor(2), 3*time.Second, 45)
	got := g.Decide(c)
	// Verify against brute force over predictions.
	preds, _ := m.PredictAll(c.Table, c.PageFeatures, 0, 0, 45, c.Deadline, true)
	var best *Prediction
	for i := range preds {
		if preds[i].Feasible && (best == nil || preds[i].PPW > best.PPW) {
			best = &preds[i]
		}
	}
	if best == nil || got.FreqMHz != best.OPP.FreqMHz {
		t.Fatalf("DORA chose %d, brute force says %v", got.FreqMHz, best)
	}
}

func TestDORAInfeasibleGoesMax(t *testing.T) {
	m := syntheticModels(t)
	g, _ := New(m, Options{Mode: ModeDORA, UseLeakage: true})
	// work=6: t = 6/f + mpki effect; even at 2.265 GHz t=2.65s; with a
	// 1 s deadline nothing is feasible.
	c := ctx(t, pageFor(6), time.Second, 45)
	if got := g.Decide(c); got.FreqMHz != c.Table.Max().FreqMHz {
		t.Fatalf("infeasible load must go to max, got %d", got.FreqMHz)
	}
}

func TestDLPicksLowestFeasible(t *testing.T) {
	m := syntheticModels(t)
	g, _ := New(m, Options{Mode: ModeDL, UseLeakage: true})
	c := ctx(t, pageFor(2), 3*time.Second, 45)
	got := g.Decide(c)
	// Ground truth: lowest f with 2/f <= 2.75 -> f >= 0.727 GHz -> 729.
	if got.FreqMHz != 729 {
		t.Fatalf("DL chose %d, want 729", got.FreqMHz)
	}
	// Infeasible: max.
	c2 := ctx(t, pageFor(6), time.Second, 45)
	if got := g.Decide(c2); got.FreqMHz != c2.Table.Max().FreqMHz {
		t.Fatalf("infeasible DL must go max, got %d", got.FreqMHz)
	}
}

func TestEEIgnoresDeadline(t *testing.T) {
	m := syntheticModels(t)
	g, _ := New(m, Options{Mode: ModeEE, UseLeakage: true})
	// Tight deadline that EE must ignore.
	tight := g.Decide(ctx(t, pageFor(4), 100*time.Millisecond, 45))
	loose := g.Decide(ctx(t, pageFor(4), time.Hour, 45))
	if tight.FreqMHz != loose.FreqMHz {
		t.Fatalf("EE must ignore the deadline: %d vs %d", tight.FreqMHz, loose.FreqMHz)
	}
}

func TestDORAEqualsEEWhenDeadlineLoose(t *testing.T) {
	m := syntheticModels(t)
	dora, _ := New(m, Options{Mode: ModeDORA, UseLeakage: true})
	ee, _ := New(m, Options{Mode: ModeEE, UseLeakage: true})
	c := ctx(t, pageFor(1), time.Hour, 45)
	if dora.Decide(c).FreqMHz != ee.Decide(c).FreqMHz {
		t.Fatal("with a loose deadline DORA must match EE (f_opt = f_E)")
	}
}

func TestDORADeadlineSweepSwitchesFDToFE(t *testing.T) {
	// Fig. 11: tight deadlines pin f_opt to f_D (falling as the
	// deadline relaxes), then f_opt settles at f_E.
	m := syntheticModels(t)
	g, _ := New(m, Options{Mode: ModeDORA, UseLeakage: true})
	var freqs []int
	for d := 1; d <= 10; d++ {
		got := g.Decide(ctx(t, pageFor(4), time.Duration(d)*time.Second, 45))
		freqs = append(freqs, got.FreqMHz)
	}
	// Non-increasing, and the tail is constant (= f_E).
	for i := 1; i < len(freqs); i++ {
		if freqs[i] > freqs[i-1] {
			t.Fatalf("f_opt must not rise as deadline relaxes: %v", freqs)
		}
	}
	if freqs[0] != 2265 {
		t.Fatalf("1 s deadline for work=4 must pin max, got %d", freqs[0])
	}
	if freqs[len(freqs)-1] == 2265 {
		t.Fatalf("10 s deadline must relax to f_E below max: %v", freqs)
	}
	if freqs[len(freqs)-1] != freqs[len(freqs)-2] {
		t.Fatalf("tail must settle at f_E: %v", freqs)
	}
}

func TestLeakageAwareShiftsWithTemperature(t *testing.T) {
	m := syntheticModels(t)
	aware, _ := New(m, Options{Mode: ModeEE, UseLeakage: true})
	blind, _ := New(m, Options{Mode: ModeEE, UseLeakage: false})
	cold := ctx(t, pageFor(2), time.Hour, 20)
	hot := ctx(t, pageFor(2), time.Hour, 75)
	// The leakage-blind governor decides identically at any temp.
	if blind.Decide(cold).FreqMHz != blind.Decide(hot).FreqMHz {
		t.Fatal("no-leakage governor must ignore temperature")
	}
	// The aware governor must not pick a higher frequency when hot.
	if aware.Decide(hot).FreqMHz > aware.Decide(cold).FreqMHz {
		t.Fatal("heat must not push the aware governor to higher frequency")
	}
}

func TestIdleHoldsCurrentOPP(t *testing.T) {
	m := syntheticModels(t)
	g, _ := New(m, Options{Mode: ModeDORA, UseLeakage: true})
	c := ctx(t, nil, 3*time.Second, 45)
	c.Current, _ = c.Table.ByFreq(1190)
	if got := g.Decide(c); got.FreqMHz != 1190 {
		t.Fatalf("idle must hold, got %d", got.FreqMHz)
	}
}

func TestGovernorNames(t *testing.T) {
	m := syntheticModels(t)
	for _, tc := range []struct {
		opts Options
		want string
	}{
		{Options{Mode: ModeDORA, UseLeakage: true}, "DORA"},
		{Options{Mode: ModeDORA, UseLeakage: false}, "DORA_no_lkg"},
		{Options{Mode: ModeDL, UseLeakage: true}, "DL"},
		{Options{Mode: ModeEE, UseLeakage: true}, "EE"},
	} {
		g, err := New(m, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if g.Name() != tc.want {
			t.Fatalf("Name = %q, want %q", g.Name(), tc.want)
		}
	}
	if ModeDORA.String() != "DORA" || Mode(9).String() == "" {
		t.Fatal("mode names wrong")
	}
}

func TestPiecewiseErrors(t *testing.T) {
	p := NewPiecewise()
	if _, err := p.Predict(dvfs.OPP{BusFreqMHz: 333}, nil); err == nil {
		t.Fatal("empty piecewise must error")
	}
	var nilP *Piecewise
	if _, err := nilP.Predict(dvfs.OPP{}, nil); err == nil {
		t.Fatal("nil piecewise must error")
	}
	m := syntheticModels(t)
	if _, err := m.LoadTime.Predict(dvfs.OPP{BusFreqMHz: 999}, nil); err == nil {
		t.Fatal("unknown bus tier must error")
	}
}

func TestStaticPowerShape(t *testing.T) {
	l := power.DefaultLeakage()
	s := StaticPower{Params: []float64{l.K1, l.Alpha, l.Beta, l.K2, l.Gamma, l.Delta}, ConstW: 1.3}
	if s.At(1.1, 65) <= s.At(0.85, 30) {
		t.Fatal("static power must grow with voltage and temperature")
	}
	if got := (StaticPower{ConstW: 2}).At(1, 50); got != 2 {
		t.Fatalf("missing params must fall back to const, got %v", got)
	}
}
