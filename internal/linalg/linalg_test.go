package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// fromRows builds a matrix from equal-length rows.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

func TestFromRowsAndAccessors(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("dims = %dx%d", m.Rows, m.Cols)
	}
	if m.At(1, 1) != 4 {
		t.Fatalf("At(1,1) = %v", m.At(1, 1))
	}
	m.Set(2, 0, 9)
	if m.Row(2)[0] != 9 {
		t.Fatal("Set/Row mismatch")
	}
}

func TestMulVec(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}})
	got, err := m.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 7 {
		t.Fatalf("MulVec = %v", got)
	}
	if _, err := m.MulVec([]float64{1}); err == nil {
		t.Fatal("dim mismatch must error")
	}
}

func TestMulTranspose(t *testing.T) {
	a := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := fromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{58, 64}, {139, 154}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	at := a.Transpose()
	if at.Rows != 3 || at.Cols != 2 || at.At(2, 1) != 6 {
		t.Fatalf("Transpose wrong: %+v", at)
	}
	if _, err := a.Mul(a); err == nil {
		t.Fatal("incompatible Mul must error")
	}
}

func TestSolveExact(t *testing.T) {
	a := fromRows([][]float64{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}})
	b := []float64{8, -11, -3}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); err != ErrSingular {
		t.Fatalf("singular Solve err = %v, want ErrSingular", err)
	}
	rect := fromRows([][]float64{{1, 2, 3}})
	if _, err := Solve(rect, []float64{1}); err == nil {
		t.Fatal("non-square Solve must error")
	}
}

func TestLeastSquaresExactSystem(t *testing.T) {
	// Square full-rank: LS solution equals exact solution.
	a := fromRows([][]float64{{3, 1}, {1, 2}})
	x, err := SolveLeastSquares(a, []float64{9, 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-10 || math.Abs(x[1]-3) > 1e-10 {
		t.Fatalf("x = %v, want [2 3]", x)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2x + 1 from noisy-free samples: must recover exactly.
	rows := [][]float64{}
	b := []float64{}
	for x := 0.0; x < 10; x++ {
		rows = append(rows, []float64{1, x})
		b = append(b, 1+2*x)
	}
	a := fromRows(rows)
	coef, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(coef[0]-1) > 1e-9 || math.Abs(coef[1]-2) > 1e-9 {
		t.Fatalf("coef = %v, want [1 2]", coef)
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// The LS residual must be orthogonal to the column space of A.
	rng := rand.New(rand.NewSource(7))
	a := NewMatrix(40, 5)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	b := make([]float64, 40)
	for i := range b {
		b[i] = rng.NormFloat64() * 10
	}
	x, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ax, _ := a.MulVec(x)
	res := make([]float64, len(b))
	for i := range b {
		res[i] = b[i] - ax[i]
	}
	at := a.Transpose()
	g, _ := at.MulVec(res)
	if math.Sqrt(Dot(g, g)) > 1e-8*math.Sqrt(Dot(b, b)) {
		t.Fatalf("residual not orthogonal to columns: |A^T r| = %v", math.Sqrt(Dot(g, g)))
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := SolveLeastSquares(a, []float64{1, 2}); err == nil {
		t.Fatal("underdetermined must error")
	}
	a2 := NewMatrix(3, 2)
	if _, err := SolveLeastSquares(a2, []float64{1}); err == nil {
		t.Fatal("dim mismatch must error")
	}
	// Rank-deficient: duplicate columns.
	a3 := fromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	if _, err := SolveLeastSquares(a3, []float64{1, 2, 3}); err == nil {
		t.Fatal("rank-deficient must error")
	}
}

func TestDotNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Dot length mismatch must panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

// Property: Solve(A, A*x) recovers x for random well-conditioned A.
func TestSolveRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		n := 2 + r.Intn(6)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		// Diagonal dominance keeps the matrix well-conditioned.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+3)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64() * 5
		}
		b, _ := a.MulVec(x)
		got, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: least squares and exact solve agree on square systems.
func TestLeastSquaresMatchesSolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+2)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x1, err1 := Solve(a, b)
		x2, err2 := SolveLeastSquares(a, b)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range x1 {
			if math.Abs(x1[i]-x2[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
