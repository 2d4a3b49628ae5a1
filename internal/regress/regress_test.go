package regress

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dora/internal/stats"
)

func TestTermCount(t *testing.T) {
	cases := []struct {
		s    Surface
		n, w int
	}{
		{Linear, 3, 4},
		{Interaction, 3, 7},  // 1 + 3 + 3
		{Quadratic, 3, 10},   // 1 + 3 + 3 + 3
		{Linear, 9, 10},      // Table I has 9 variables
		{Interaction, 9, 46}, // 1 + 9 + 36
		{Quadratic, 9, 55},
	}
	for _, c := range cases {
		if got := c.s.TermCount(c.n); got != c.w {
			t.Errorf("%v.TermCount(%d) = %d, want %d", c.s, c.n, got, c.w)
		}
	}
}

func TestExpand(t *testing.T) {
	x := []float64{2, 3}
	if got := Linear.Expand(x); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Linear.Expand = %v", got)
	}
	got := Interaction.Expand(x)
	if len(got) != 4 || got[3] != 6 {
		t.Fatalf("Interaction.Expand = %v", got)
	}
	got = Quadratic.Expand(x)
	if len(got) != 6 || got[4] != 4 || got[5] != 9 {
		t.Fatalf("Quadratic.Expand = %v", got)
	}
}

func TestSurfaceString(t *testing.T) {
	if Linear.String() != "linear" || Interaction.String() != "interaction" || Quadratic.String() != "quadratic" {
		t.Fatal("surface names wrong")
	}
	if Surface(99).String() == "" {
		t.Fatal("unknown surface should still format")
	}
}

func genLinearData(rng *rand.Rand, n int, noise float64) (xs [][]float64, ys []float64) {
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64() * 10, rng.Float64() * 5, rng.Float64() * 100}
		y := 3 + 2*x[0] - 1.5*x[1] + 0.25*x[2] + rng.NormFloat64()*noise
		xs = append(xs, x)
		ys = append(ys, y)
	}
	return
}

func TestFitLinearExactRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs, ys := genLinearData(rng, 60, 0)
	m, err := Fit(Linear, []string{"a", "b", "c"}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		p, err := m.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p-ys[i]) > 1e-8 {
			t.Fatalf("noise-free fit not exact: pred %v obs %v", p, ys[i])
		}
	}
}

func TestFitInteractionRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 120; i++ {
		x := []float64{rng.Float64() * 4, rng.Float64() * 4}
		ys = append(ys, 1+x[0]+2*x[1]+0.5*x[0]*x[1])
		xs = append(xs, x)
	}
	m, err := Fit(Interaction, []string{"a", "b"}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	met, err := m.Evaluate(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if met.MAPE > 1e-8 {
		t.Fatalf("interaction recovery MAPE = %v", met.MAPE)
	}
	// A pure Linear surface cannot represent the cross term.
	ml, err := Fit(Linear, []string{"a", "b"}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	metL, _ := ml.Evaluate(xs, ys)
	if metL.MAPE < met.MAPE+1e-6 && metL.MAPE < 1e-4 {
		t.Fatalf("linear fit unexpectedly exact on interacting data: %v", metL.MAPE)
	}
}

func TestQuadraticRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 150; i++ {
		x := []float64{rng.Float64()*6 - 3}
		ys = append(ys, 2+x[0]+3*x[0]*x[0])
		xs = append(xs, x)
	}
	m, err := Fit(Quadratic, []string{"x"}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	met, _ := m.Evaluate(xs, ys)
	if met.MAPE > 1e-8 {
		t.Fatalf("quadratic recovery MAPE = %v", met.MAPE)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(Linear, []string{"a"}, [][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := Fit(Linear, []string{"a"}, nil, nil); err == nil {
		t.Fatal("empty fit must error")
	}
	if _, err := Fit(Linear, []string{"a", "b"}, [][]float64{{1}}, []float64{1}); err == nil {
		t.Fatal("feature-count mismatch must error")
	}
	// Fewer observations than coefficients.
	if _, err := Fit(Quadratic, []string{"a", "b"}, [][]float64{{1, 2}, {2, 3}}, []float64{1, 2}); err == nil {
		t.Fatal("underdetermined fit must error")
	}
}

func TestFitRidgeUnderdetermined(t *testing.T) {
	// Fewer observations than interaction terms: plain Fit refuses,
	// FitRidge produces a usable minimum-norm model.
	rng := rand.New(rand.NewSource(21))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 40; i++ { // interaction for 9 features needs 46
		x := make([]float64, 9)
		for j := range x {
			x[j] = rng.Float64() * 10
		}
		xs = append(xs, x)
		ys = append(ys, 2+x[0]*0.5+x[6]*1.5+0.2*x[0]*x[6])
	}
	names := make([]string, 9)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	if _, err := Fit(Interaction, names, xs, ys); err == nil {
		t.Fatal("plain Fit should refuse 40 obs for 46 terms")
	}
	m, err := FitRidge(Interaction, names, xs, ys, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	met, err := m.Evaluate(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if met.MAPE > 0.05 {
		t.Fatalf("ridge in-sample MAPE %.2f%% too high", met.MAPE*100)
	}
	// Held-out points from the same distribution stay sane on average
	// (minimum-norm solutions are weak off-sample; this is a loose
	// stability check, not an accuracy claim).
	var preds, truths []float64
	for i := 0; i < 30; i++ {
		x := make([]float64, 9)
		for j := range x {
			x[j] = rng.Float64() * 10
		}
		p, err := m.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		preds = append(preds, p)
		truths = append(truths, 2+x[0]*0.5+x[6]*1.5+0.2*x[0]*x[6])
	}
	mape, err := stats.MAPE(preds, truths)
	if err != nil {
		t.Fatal(err)
	}
	if mape > 0.5 {
		t.Fatalf("ridge held-out MAPE %.0f%% — degenerate model", mape*100)
	}
}

func TestFitRidgeErrors(t *testing.T) {
	if _, err := FitRidge(Linear, []string{"a"}, nil, nil, 1e-3); err == nil {
		t.Fatal("empty fit must error")
	}
	if _, err := FitRidge(Linear, []string{"a"}, [][]float64{{1}}, []float64{1, 2}, 1e-3); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := FitRidge(Linear, []string{"a"}, [][]float64{{1}}, []float64{1}, 0); err == nil {
		t.Fatal("non-positive lambda must error")
	}
	if _, err := FitRidge(Linear, []string{"a", "b"}, [][]float64{{1}}, []float64{1}, 1e-3); err == nil {
		t.Fatal("feature-count mismatch must error")
	}
}

func TestFitCollinearFallsBackToRidge(t *testing.T) {
	// Duplicate feature columns are rank-deficient for plain QR; the
	// ridge fallback must still produce a usable model (this is the
	// bus-frequency-constant-within-group case of the piecewise fit).
	var xs [][]float64
	var ys []float64
	for i := 0; i < 30; i++ {
		v := float64(i)
		xs = append(xs, []float64{v, v, 7}) // col2 duplicates col1; col3 constant
		ys = append(ys, 3*v+1)
	}
	m, err := Fit(Linear, []string{"a", "b", "const"}, xs, ys)
	if err != nil {
		t.Fatalf("collinear fit must succeed via ridge: %v", err)
	}
	p, err := m.Predict([]float64{10, 10, 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-31) > 1e-3 {
		t.Fatalf("ridge prediction = %v, want 31", p)
	}
}

func TestPredictErrors(t *testing.T) {
	var m *Model
	if _, err := m.Predict([]float64{1}); err != ErrNotFitted {
		t.Fatalf("nil model err = %v", err)
	}
	if _, err := (&Model{}).Predict([]float64{1}); err != ErrNotFitted {
		t.Fatal("zero model must be ErrNotFitted")
	}
	rng := rand.New(rand.NewSource(14))
	xs, ys := genLinearData(rng, 30, 0)
	fit, err := Fit(Linear, []string{"a", "b", "c"}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fit.Predict([]float64{1}); err == nil {
		t.Fatal("wrong feature count must error")
	}
}

func TestEvaluateMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	xs, ys := genLinearData(rng, 200, 0.5)
	m, err := Fit(Linear, []string{"a", "b", "c"}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	met, err := m.Evaluate(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if met.N != 200 {
		t.Fatalf("N = %d", met.N)
	}
	if met.R2 < 0.95 {
		t.Fatalf("R2 = %v, want near 1 for low-noise linear data", met.R2)
	}
	if met.MAPE <= 0 || met.RMSE <= 0 || met.MaxAPE < met.MAPE {
		t.Fatalf("implausible metrics: %+v", met)
	}
}

// Property: predictions are invariant to feature scaling done through
// standardization — i.e. fitting on data with wildly different feature
// magnitudes still reproduces the training targets for noise-free
// linear ground truth.
func TestFitScaleRobustnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		scaleA := math.Pow(10, float64(rng.Intn(7)))
		var xs [][]float64
		var ys []float64
		for i := 0; i < 40; i++ {
			x := []float64{rng.Float64() * scaleA, rng.Float64()}
			ys = append(ys, 5+0.001*x[0]+7*x[1])
			xs = append(xs, x)
		}
		m, err := Fit(Linear, []string{"a", "b"}, xs, ys)
		if err != nil {
			return false
		}
		for i, x := range xs {
			p, err := m.Predict(x)
			if err != nil || math.Abs(p-ys[i]) > 1e-6*math.Max(1, math.Abs(ys[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
