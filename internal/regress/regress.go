// Package regress implements the response-surface regression models of
// the DORA paper (Equations 2-4): simple linear, interaction (linear
// plus pairwise cross products), and quadratic (interaction plus
// squared terms). Models are fit by linear least squares on a design
// matrix expansion of the raw feature vector.
//
// The paper trains two such models — web page load time and dynamic
// power — over the independent variables of its Table I, choosing the
// interaction surface for load time and the linear surface for power.
package regress

import (
	"errors"
	"fmt"
	"math"

	"dora/internal/linalg"
	"dora/internal/stats"
)

// Surface selects the response-surface family.
type Surface int

const (
	// Linear is Eq. (2): y = c0 + sum ci*Xi.
	Linear Surface = iota
	// Interaction is Eq. (4): Linear plus cross products Xi*Xj, i < j.
	Interaction
	// Quadratic is Eq. (3): Interaction plus squares Xi^2.
	Quadratic
)

// String names the surface for reports.
func (s Surface) String() string {
	switch s {
	case Linear:
		return "linear"
	case Interaction:
		return "interaction"
	case Quadratic:
		return "quadratic"
	default:
		return fmt.Sprintf("Surface(%d)", int(s))
	}
}

// TermCount returns the number of coefficients (including intercept)
// the surface uses for n raw features.
func (s Surface) TermCount(n int) int {
	switch s {
	case Linear:
		return 1 + n
	case Interaction:
		return 1 + n + n*(n-1)/2
	case Quadratic:
		return 1 + n + n*(n-1)/2 + n
	default:
		return 0
	}
}

// Expand maps a raw feature vector into the surface's design row,
// beginning with the constant 1 intercept term.
func (s Surface) Expand(x []float64) []float64 {
	n := len(x)
	row := make([]float64, 0, s.TermCount(n))
	row = append(row, 1)
	row = append(row, x...)
	if s == Interaction || s == Quadratic {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				row = append(row, x[i]*x[j])
			}
		}
	}
	if s == Quadratic {
		for i := 0; i < n; i++ {
			row = append(row, x[i]*x[i])
		}
	}
	return row
}

// Model is a fitted response-surface regression.
type Model struct {
	Surface  Surface
	Features []string  // names of the raw features, for reports
	Coef     []float64 // including intercept, in Expand order

	// Mean and Scale are the feature standardization applied before
	// expansion. Fitting standardizes so the least-squares problem
	// stays well-conditioned even when features span very different
	// scales (DOM node counts in the thousands vs MPKI near 1). They
	// are exported so fitted models can be serialized.
	Mean, Scale []float64
}

// ErrNotFitted is returned by Predict on a zero Model.
var ErrNotFitted = errors.New("regress: model not fitted")

// Fit trains a response-surface model of the given family on the
// observations (xs[i], ys[i]). Every xs row must have len(features)
// entries. It returns an error when the design matrix is
// rank-deficient or there are fewer observations than coefficients.
func Fit(surface Surface, features []string, xs [][]float64, ys []float64) (*Model, error) {
	if len(xs) != len(ys) {
		return nil, errors.New("regress: xs and ys length mismatch")
	}
	if len(xs) == 0 {
		return nil, errors.New("regress: no observations")
	}
	n := len(features)
	for i, x := range xs {
		if len(x) != n {
			return nil, fmt.Errorf("regress: observation %d has %d features, want %d", i, len(x), n)
		}
	}
	p := surface.TermCount(n)
	if len(xs) < p {
		return nil, fmt.Errorf("regress: %d observations cannot fit %d coefficients", len(xs), p)
	}

	mean := make([]float64, n)
	scale := make([]float64, n)
	for j := 0; j < n; j++ {
		col := make([]float64, len(xs))
		for i := range xs {
			col[i] = xs[i][j]
		}
		mean[j] = stats.Mean(col)
		sd := stats.StdDev(col)
		if sd < 1e-12 {
			sd = 1 // constant feature: leave centered only
		}
		scale[j] = sd
	}

	design := linalg.NewMatrix(len(xs), p)
	std := make([]float64, n)
	for i, x := range xs {
		for j := range x {
			std[j] = (x[j] - mean[j]) / scale[j]
		}
		copy(design.Row(i), surface.Expand(std))
	}
	coef, err := linalg.SolveLeastSquares(design, ys)
	if err != nil {
		// Collinear or constant expanded terms (e.g. the bus frequency
		// inside one piecewise group, and all its cross products) make
		// the design matrix rank-deficient. Fall back to ridge-
		// regularized normal equations: (A^T A + lambda I) c = A^T b.
		coef, err = ridgeSolve(design, ys, 1e-6)
		if err != nil {
			return nil, fmt.Errorf("regress: fit failed: %w", err)
		}
	}
	return &Model{
		Surface:  surface,
		Features: append([]string(nil), features...),
		Coef:     coef,
		Mean:     mean,
		Scale:    scale,
	}, nil
}

// FitRidge trains a response-surface model with explicit Tikhonov
// regularization and no minimum-observation requirement. It exists for
// reduced measurement campaigns where the surface has more terms than
// there are observations; the ridge penalty selects the minimum-norm
// coefficient vector, which generalizes far better than refusing to fit
// or collapsing to a simpler surface.
func FitRidge(surface Surface, features []string, xs [][]float64, ys []float64, lambda float64) (*Model, error) {
	if len(xs) != len(ys) {
		return nil, errors.New("regress: xs and ys length mismatch")
	}
	if len(xs) == 0 {
		return nil, errors.New("regress: no observations")
	}
	if lambda <= 0 {
		return nil, errors.New("regress: lambda must be positive")
	}
	n := len(features)
	for i, x := range xs {
		if len(x) != n {
			return nil, fmt.Errorf("regress: observation %d has %d features, want %d", i, len(x), n)
		}
	}
	mean := make([]float64, n)
	scale := make([]float64, n)
	for j := 0; j < n; j++ {
		col := make([]float64, len(xs))
		for i := range xs {
			col[i] = xs[i][j]
		}
		mean[j] = stats.Mean(col)
		sd := stats.StdDev(col)
		if sd < 1e-12 {
			sd = 1
		}
		scale[j] = sd
	}
	p := surface.TermCount(n)
	design := linalg.NewMatrix(len(xs), p)
	std := make([]float64, n)
	for i, x := range xs {
		for j := range x {
			std[j] = (x[j] - mean[j]) / scale[j]
		}
		copy(design.Row(i), surface.Expand(std))
	}
	coef, err := ridgeSolve(design, ys, lambda)
	if err != nil {
		return nil, fmt.Errorf("regress: ridge fit failed: %w", err)
	}
	return &Model{
		Surface:  surface,
		Features: append([]string(nil), features...),
		Coef:     coef,
		Mean:     mean,
		Scale:    scale,
	}, nil
}

// ridgeSolve solves the Tikhonov-regularized least squares problem.
func ridgeSolve(a *linalg.Matrix, b []float64, lambda float64) ([]float64, error) {
	at := a.Transpose()
	ata, err := at.Mul(a)
	if err != nil {
		return nil, err
	}
	for i := 0; i < ata.Rows; i++ {
		ata.Set(i, i, ata.At(i, i)+lambda)
	}
	atb, err := at.MulVec(b)
	if err != nil {
		return nil, err
	}
	return linalg.Solve(ata, atb)
}

// Predict evaluates the model at the raw feature vector x.
func (m *Model) Predict(x []float64) (float64, error) {
	if m == nil || len(m.Coef) == 0 {
		return 0, ErrNotFitted
	}
	if len(x) != len(m.Features) {
		return 0, fmt.Errorf("regress: predict wants %d features, got %d", len(m.Features), len(x))
	}
	std := make([]float64, len(x))
	for j := range x {
		std[j] = (x[j] - m.Mean[j]) / m.Scale[j]
	}
	row := m.Surface.Expand(std)
	return linalg.Dot(row, m.Coef), nil
}

// PredictAll evaluates the model at each row of xs.
func (m *Model) PredictAll(xs [][]float64) ([]float64, error) {
	out := make([]float64, len(xs))
	for i, x := range xs {
		y, err := m.Predict(x)
		if err != nil {
			return nil, err
		}
		out[i] = y
	}
	return out, nil
}

// Metrics summarizes model accuracy on a labelled set.
type Metrics struct {
	N      int
	MAPE   float64 // mean absolute percentage error, as a fraction
	RMSE   float64
	MaxAPE float64 // worst-case absolute percentage error
	R2     float64
}

// Evaluate computes accuracy metrics for the model on (xs, ys).
func (m *Model) Evaluate(xs [][]float64, ys []float64) (Metrics, error) {
	pred, err := m.PredictAll(xs)
	if err != nil {
		return Metrics{}, err
	}
	mape, err := stats.MAPE(pred, ys)
	if err != nil {
		return Metrics{}, err
	}
	mse, err := stats.MSE(pred, ys)
	if err != nil {
		return Metrics{}, err
	}
	errs := stats.AbsRelErrors(pred, ys)
	meanY := stats.Mean(ys)
	ssTot, ssRes := 0.0, 0.0
	for i := range ys {
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
		ssRes += (ys[i] - pred[i]) * (ys[i] - pred[i])
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return Metrics{
		N:      len(ys),
		MAPE:   mape,
		RMSE:   math.Sqrt(mse),
		MaxAPE: stats.Max(errs),
		R2:     r2,
	}, nil
}
