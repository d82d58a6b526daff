// Package ols implements the multi-output ordinary least-squares fit of the
// paper's Eq. 17: after group lasso has chosen the Q sensors, an unbiased
// linear model with intercept
//
//	min_{α, c} ‖F − α·Xˢ − C‖_F
//
// is refit on the raw (unnormalized) selected-sensor data, because the
// group-lasso coefficients are biased by the budget constraint (the paper's
// Section 2.3 example). This package also provides the error metrics used
// throughout the evaluation.
package ols

import (
	"errors"
	"fmt"
	"math"

	"voltsense/internal/mat"
)

// Model is a fitted linear predictor f ≈ α·x + c.
type Model struct {
	Alpha *mat.Matrix // K-by-Q coefficients
	C     []float64   // K intercepts
}

// Fit solves the least-squares problem for x (Q-by-N selected-sensor
// samples) and f (K-by-N block-voltage samples). Centering eliminates the
// intercept from the solve; the QR factorization of the centered design
// handles the rest. Fit returns an error when the design is rank-deficient
// (e.g. duplicated sensors). It is Factor(x, f) followed by Model.
func Fit(x, f *mat.Matrix) (*Model, error) {
	fa, err := Factor(x, f)
	if err != nil {
		return nil, err
	}
	return fa.Model()
}

// Factored is Eq. 17's centered design factored once, A = Q·R, with the
// right-hand side already rotated: enough to solve the full model and,
// through R alone, the model on any subset of the Q sensors. Because Qᵀ is
// orthogonal, ‖Fc − A[:,kept]·α‖² = ‖C − R[:,kept]·α‖² + RSS, where C is the
// top Q rows of Qᵀ·Fc and RSS the squared norm of the rest, so a submodel is
// a Q-row least-squares problem instead of an N-row one.
type Factored struct {
	qr    *mat.QR
	r     *mat.Matrix // Q-by-Q upper-triangular factor
	c     *mat.Matrix // Q-by-K: top Q rows of Qᵀ·Fc
	rss   float64     // ‖(Qᵀ·Fc)[Q:]‖², the full model's residual
	fNorm float64     // ‖F‖_F of the raw outputs
	xMean []float64
	fMean []float64
}

// Factor centers x (Q-by-N) and f (K-by-N), factors the N-by-Q design and
// rotates the N-by-K right-hand side. It fails only on too few samples; a
// rank-deficient design surfaces as ErrSingular from Model or Without.
func Factor(x, f *mat.Matrix) (*Factored, error) {
	if x.Cols() != f.Cols() {
		panic(fmt.Sprintf("ols: x has %d samples, f has %d", x.Cols(), f.Cols()))
	}
	q, n := x.Rows(), x.Cols()
	k := f.Rows()
	if n < q+1 {
		return nil, fmt.Errorf("ols: %d samples cannot determine %d coefficients plus intercept", n, q)
	}
	xMean := mat.RowMeans(x)
	fMean := mat.RowMeans(f)

	// Design matrix: centered samples as rows (N-by-Q), one RHS column per
	// output (N-by-K). Written through the raw row-major storage: the
	// sources are rows, the destinations strided columns.
	design := mat.Zeros(n, q)
	dd := design.Data()
	for i := 0; i < q; i++ {
		row := x.Row(i)
		mu := xMean[i]
		for j, v := range row {
			dd[j*q+i] = v - mu
		}
	}
	rhs := mat.Zeros(n, k)
	rd := rhs.Data()
	for i := 0; i < k; i++ {
		row := f.Row(i)
		mu := fMean[i]
		for j, v := range row {
			rd[j*k+i] = v - mu
		}
	}
	qr := mat.FactorQR(design)
	w := qr.QTMul(rhs).Data() // N-by-K
	c := mat.Zeros(q, k)
	copy(c.Data(), w[:q*k])
	rss := 0.0
	for _, v := range w[q*k:] {
		rss += v * v
	}
	return &Factored{
		qr: qr, r: qr.R(), c: c, rss: rss, fNorm: f.FrobeniusNorm(),
		xMean: xMean, fMean: fMean,
	}, nil
}

// Model solves the full Eq. 17 model: the same operations, in the same
// order, as a direct QR solve of the design.
func (fa *Factored) Model() (*Model, error) {
	sol, err := fa.qr.SolveR(fa.c) // Q-by-K
	if err != nil {
		return nil, fmt.Errorf("ols: rank-deficient design: %w", err)
	}
	return fa.model(sol, fa.xMean), nil
}

// Without solves Eq. 17 on the sensors minus the excluded positions
// (ascending, into 0..Q-1) as min‖R[:,kept]·α − C‖: a Q-by-(Q−e) QR on a
// Q-by-K right-hand side. It returns the submodel and its training relative
// error ‖pred − F‖_F / ‖F‖_F, which the rotation gives without predicting.
func (fa *Factored) Without(excluded []int) (*Model, float64, error) {
	q := fa.r.Rows()
	kept := make([]int, 0, q)
	ex := 0
	for i := 0; i < q; i++ {
		if ex < len(excluded) && excluded[ex] == i {
			ex++
			continue
		}
		kept = append(kept, i)
	}
	if len(kept) == 0 {
		return nil, 0, errors.New("ols: submodel would exclude every sensor")
	}
	sub := mat.FactorQR(fa.r.SelectCols(kept))
	w := sub.QTMul(fa.c) // Q-by-K
	sol, err := sub.SolveR(w)
	if err != nil {
		return nil, 0, fmt.Errorf("ols: rank-deficient design: %w", err)
	}
	rss := fa.rss
	for _, v := range w.Data()[len(kept)*w.Cols():] {
		rss += v * v
	}
	xMean := make([]float64, len(kept))
	for i, p := range kept {
		xMean[i] = fa.xMean[p]
	}
	rel := math.Inf(1)
	if fa.fNorm != 0 {
		rel = math.Sqrt(rss) / fa.fNorm
	}
	return fa.model(sol, xMean), rel, nil
}

// model turns a solved Q-by-K coefficient block into a Model whose
// intercepts restore the centered-out means.
func (fa *Factored) model(sol *mat.Matrix, xMean []float64) *Model {
	alpha := sol.T() // K-by-Q
	c := make([]float64, len(fa.fMean))
	for i := range c {
		c[i] = fa.fMean[i] - mat.Dot(alpha.Row(i), xMean)
	}
	return &Model{Alpha: alpha, C: c}
}

// NumInputs returns Q.
func (m *Model) NumInputs() int { return m.Alpha.Cols() }

// NumOutputs returns K.
func (m *Model) NumOutputs() int { return m.Alpha.Rows() }

// Predict evaluates the model on one sensor reading vector (length Q),
// returning the K predicted block voltages. This is the paper's Eq. 20 —
// the only computation needed at runtime.
func (m *Model) Predict(x []float64) []float64 {
	out := mat.MulVec(m.Alpha, x)
	for i := range out {
		out[i] += m.C[i]
	}
	return out
}

// PredictMatrix evaluates the model on Q-by-N samples, returning K-by-N
// predictions.
func (m *Model) PredictMatrix(x *mat.Matrix) *mat.Matrix {
	out := mat.Mul(m.Alpha, x)
	for i := 0; i < out.Rows(); i++ {
		row := out.Row(i)
		for j := range row {
			row[j] += m.C[i]
		}
	}
	return out
}

// RelativeError returns ‖pred − truth‖_F / ‖truth‖_F — the aggregated
// relative prediction error the paper's Table 1 reports over all function
// blocks and benchmarks. The difference is never materialized.
func RelativeError(pred, truth *mat.Matrix) float64 {
	den := truth.FrobeniusNorm()
	if den == 0 {
		return math.Inf(1)
	}
	return mat.FrobeniusDistance(pred, truth) / den
}

// RMSE returns the root-mean-square elementwise error.
func RMSE(pred, truth *mat.Matrix) float64 {
	n := float64(pred.Rows() * pred.Cols())
	if n == 0 {
		return 0
	}
	return mat.FrobeniusDistance(pred, truth) / math.Sqrt(n)
}

// MaxAbsError returns the worst elementwise error.
func MaxAbsError(pred, truth *mat.Matrix) float64 {
	return mat.MaxAbsDiff(pred, truth)
}
