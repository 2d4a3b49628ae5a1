package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
	if _, err := MeanErr(nil); err != ErrEmpty {
		t.Fatalf("MeanErr(nil) err = %v, want ErrEmpty", err)
	}
}

func TestMinMaxSum(t *testing.T) {
	if got := Max([]float64{3, -1, 7, 2}); got != 7 {
		t.Fatalf("Max = %v, want 7", got)
	}
	if !math.IsInf(Max(nil), -1) {
		t.Fatal("empty Max should be -Inf")
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEq(got, 4, 1e-12) {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEq(got, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", got)
	}
	if Variance([]float64{5}) != 0 {
		t.Fatal("single-sample variance must be 0")
	}
}

func TestMSE(t *testing.T) {
	got, err := MSE([]float64{1, 2}, []float64{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 2.5, 1e-12) {
		t.Fatalf("MSE = %v, want 2.5", got)
	}
	if _, err := MSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := MSE(nil, nil); err != ErrEmpty {
		t.Fatalf("empty MSE err = %v", err)
	}
}

func TestMAPE(t *testing.T) {
	got, err := MAPE([]float64{110, 90}, []float64{100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 0.1, 1e-12) {
		t.Fatalf("MAPE = %v, want 0.1", got)
	}
	// Zero observations are skipped.
	got, err = MAPE([]float64{5, 110}, []float64{0, 100})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 0.1, 1e-12) {
		t.Fatalf("MAPE with zero obs = %v, want 0.1", got)
	}
	if _, err := MAPE([]float64{1}, []float64{0}); err != ErrEmpty {
		t.Fatal("all-zero obs must be ErrEmpty")
	}
}

func TestAbsRelErrors(t *testing.T) {
	es := AbsRelErrors([]float64{110, 95, 7}, []float64{100, 100, 0})
	if len(es) != 2 {
		t.Fatalf("len = %d, want 2 (zero obs skipped)", len(es))
	}
	if !almostEq(es[0], 0.10, 1e-12) || !almostEq(es[1], 0.05, 1e-12) {
		t.Fatalf("errors = %v", es)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 4})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 0.75}, {4, 1}, {9, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); !almostEq(got, tc.want, 1e-12) {
			t.Fatalf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if (&CDF{}).At(1) != 0 {
		t.Fatal("empty CDF At must be 0")
	}
}

// Property: CDF.At is monotone nondecreasing and bounded in [0,1].
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		c := NewCDF(xs)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		pa, pb := c.At(a), c.At(b)
		return pa >= 0 && pb <= 1 && pa <= pb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: mean lies within [min, max] of the sample.
func TestMeanBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.Abs(v) < 1e9 { // avoid float blowup artifacts
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		return m >= slices.Min(xs)-1e-6 && m <= Max(xs)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
