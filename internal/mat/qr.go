package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters a matrix
// that is singular (or numerically indistinguishable from singular).
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// QR holds a Householder QR factorization of an m-by-n matrix with m >= n:
// A = Q * R with Q orthogonal (m-by-m, stored implicitly as reflectors) and R
// upper triangular (n-by-n).
type QR struct {
	qr  *Matrix   // packed reflectors below the diagonal, R on and above
	tau []float64 // reflector scales
}

// FactorQR computes the Householder QR factorization of a. It requires
// a.Rows() >= a.Cols(). a is not modified.
func FactorQR(a *Matrix) *QR {
	m, n := a.rows, a.cols
	if m < n {
		panic(fmt.Sprintf("mat: FactorQR needs rows >= cols, got %dx%d", m, n))
	}
	qr := a.Clone()
	tau := make([]float64, n)
	for k := 0; k < n; k++ {
		// Build the Householder reflector annihilating column k below the
		// diagonal.
		norm := 0.0
		for i := k; i < m; i++ {
			v := qr.data[i*n+k]
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			tau[k] = 0
			continue
		}
		// Choose the reflector sign so the head 1 + a_kk/norm cannot cancel.
		if qr.data[k*n+k] < 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			qr.data[i*n+k] /= norm
		}
		qr.data[k*n+k] += 1
		tau[k] = qr.data[k*n+k]

		// Apply the reflector to the trailing columns.
		for j := k + 1; j < n; j++ {
			s := 0.0
			for i := k; i < m; i++ {
				s += qr.data[i*n+k] * qr.data[i*n+j]
			}
			s = -s / qr.data[k*n+k]
			for i := k; i < m; i++ {
				qr.data[i*n+j] += s * qr.data[i*n+k]
			}
		}
		// Store the diagonal of R (the negated norm) in place of the
		// reflector head; the reflector itself stays in the strictly-lower
		// part plus tau.
		qr.data[k*n+k] = -norm
	}
	return &QR{qr: qr, tau: tau}
}

// applyQT overwrites b (length m) with Qᵀ b.
func (f *QR) applyQT(b []float64) {
	m, n := f.qr.rows, f.qr.cols
	for k := 0; k < n; k++ {
		if f.tau[k] == 0 {
			continue
		}
		// Reconstruct v_k: head tau[k] at row k, tail stored below diagonal.
		s := f.tau[k] * b[k]
		for i := k + 1; i < m; i++ {
			s += f.qr.data[i*n+k] * b[i]
		}
		s = -s / f.tau[k]
		b[k] += s * f.tau[k]
		for i := k + 1; i < m; i++ {
			b[i] += s * f.qr.data[i*n+k]
		}
	}
}

// Solve returns the least-squares solution x of A x = b, minimizing
// ||A x - b||_2. b must have length A.Rows(). It returns ErrSingular when R
// has a (numerically) zero diagonal entry.
func (f *QR) Solve(b []float64) ([]float64, error) {
	m, n := f.qr.rows, f.qr.cols
	if len(b) != m {
		panic(fmt.Sprintf("mat: QR.Solve rhs length %d, want %d", len(b), m))
	}
	w := make([]float64, m)
	copy(w, b)
	f.applyQT(w)
	x := make([]float64, n)
	// Singularity is judged relative to the largest R diagonal: a column
	// that is (numerically) a combination of the others leaves a diagonal
	// entry at roundoff level.
	maxDiag := 0.0
	for i := 0; i < n; i++ {
		if a := math.Abs(f.qr.data[i*n+i]); a > maxDiag {
			maxDiag = a
		}
	}
	// Back-substitute R x = w[:n].
	for i := n - 1; i >= 0; i-- {
		rii := f.qr.data[i*n+i]
		if math.Abs(rii) <= 1e-12*maxDiag {
			return nil, ErrSingular
		}
		s := w[i]
		for j := i + 1; j < n; j++ {
			s -= f.qr.data[i*n+j] * x[j]
		}
		x[i] = s / rii
	}
	return x, nil
}

// SolveMatrix solves the least-squares problem for every column of B,
// returning the n-by-k solution matrix for an m-by-k right-hand side. All
// columns share one pass over the Householder reflectors, which is much
// faster than k separate Solve calls for the wide right-hand sides the OLS
// refit produces. It is SolveR(QTMul(b)).
func (f *QR) SolveMatrix(b *Matrix) (*Matrix, error) {
	return f.SolveR(f.QTMul(b))
}

// QTMul returns Qᵀ·B for an m-by-k B, applying every reflector to all
// columns at once. B is not modified. The first n rows of the result are
// the right-hand side SolveR back-solves; the last m-n rows are the
// least-squares residual in the rotated basis, so their squared norm is the
// residual sum of squares.
func (f *QR) QTMul(b *Matrix) *Matrix {
	m, n := f.qr.rows, f.qr.cols
	if b.rows != m {
		panic(fmt.Sprintf("mat: QR.QTMul rhs rows %d, want %d", b.rows, m))
	}
	k := b.cols
	w := b.Clone()
	sums := make([]float64, k)
	for r := 0; r < n; r++ {
		tau := f.tau[r]
		if tau == 0 {
			continue
		}
		wr := w.data[r*k : (r+1)*k]
		for j := range sums {
			sums[j] = tau * wr[j]
		}
		for i := r + 1; i < m; i++ {
			vi := f.qr.data[i*n+r]
			if vi == 0 {
				continue
			}
			row := w.data[i*k : (i+1)*k]
			for j, x := range row {
				sums[j] += vi * x
			}
		}
		for j := range sums {
			sums[j] = -sums[j] / tau
		}
		for j := range wr {
			wr[j] += sums[j] * tau
		}
		for i := r + 1; i < m; i++ {
			vi := f.qr.data[i*n+r]
			if vi == 0 {
				continue
			}
			row := w.data[i*k : (i+1)*k]
			for j := range row {
				row[j] += sums[j] * vi
			}
		}
	}
	return w
}

// SolveR back-solves R X = C for the n-by-k solution, reading the first n
// rows of C (which may have more, as QTMul's output does). It returns
// ErrSingular with the same relative diagonal test as Solve.
func (f *QR) SolveR(c *Matrix) (*Matrix, error) {
	n := f.qr.cols
	if c.rows < n {
		panic(fmt.Sprintf("mat: QR.SolveR rhs rows %d, want at least %d", c.rows, n))
	}
	k := c.cols
	maxDiag := 0.0
	for i := 0; i < n; i++ {
		if a := math.Abs(f.qr.data[i*n+i]); a > maxDiag {
			maxDiag = a
		}
	}
	out := Zeros(n, k)
	for i := n - 1; i >= 0; i-- {
		rii := f.qr.data[i*n+i]
		if math.Abs(rii) <= 1e-12*maxDiag {
			return nil, ErrSingular
		}
		oi := out.data[i*k : (i+1)*k]
		copy(oi, c.data[i*k:(i+1)*k])
		for col := i + 1; col < n; col++ {
			ric := f.qr.data[i*n+col]
			if ric == 0 {
				continue
			}
			oc := out.data[col*k : (col+1)*k]
			for j := range oi {
				oi[j] -= ric * oc[j]
			}
		}
		for j := range oi {
			oi[j] /= rii
		}
	}
	return out, nil
}

// R returns a copy of the n-by-n upper-triangular factor.
func (f *QR) R() *Matrix {
	n := f.qr.cols
	r := Zeros(n, n)
	for i := 0; i < n; i++ {
		copy(r.data[i*n+i:(i+1)*n], f.qr.data[i*n+i:(i+1)*n])
	}
	return r
}

// RCond returns a cheap condition estimate of R: |r_min| / |r_max| over the
// diagonal. Values near zero indicate ill-conditioning.
func (f *QR) RCond() float64 {
	n := f.qr.cols
	if n == 0 {
		return 1
	}
	mn, mx := math.Inf(1), 0.0
	for i := 0; i < n; i++ {
		a := math.Abs(f.qr.data[i*n+i])
		if a < mn {
			mn = a
		}
		if a > mx {
			mx = a
		}
	}
	if mx == 0 {
		return 0
	}
	return mn / mx
}
