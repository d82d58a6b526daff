// Package sparse implements compressed sparse row matrices and a parallel
// preconditioned conjugate-gradient engine.
//
// It is the production transient-solve path for large power grids: past a
// half-bandwidth of ~256 the banded Cholesky in package banded stops scaling
// (O(n·bw²) factor time, O(n·bw) memory — ~8.6 GB at a 1024×1024 mesh), and
// pdn's Auto backend routes every wider or larger mesh here. The banded
// factor remains the fast path for narrow meshes and the independent
// cross-check oracle in tests; this package also handles meshes with
// irregular connectivity (extra via stitching, cut-outs) whose bandwidth
// would blow up any banded factor.
//
// The engine is parallel end to end on the mat worker pool: row-partitioned
// SpMV and fused vector kernels, level-scheduled IC(0) triangular sweeps,
// reverse Cuthill–McKee reordering (RCM/PermuteSym) for cache locality and
// tighter level sets, and a blocked multi-RHS PCG (BatchCGSolver) that
// steps many transients through one matrix traversal.
// Everything preserves the house invariant: results are bitwise identical
// across worker counts, and the solve hot loops allocate nothing.
package sparse

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoConvergence is returned when CG fails to reach the requested tolerance
// within the iteration budget.
var ErrNoConvergence = errors.New("sparse: conjugate gradient did not converge")

// Triplet accumulates (i, j, v) entries for building a CSR matrix. Duplicate
// coordinates are summed, which makes circuit-style stamping natural.
type Triplet struct {
	rows, cols int
	i, j       []int
	v          []float64
}

// NewTriplet returns an empty accumulator for an r-by-c matrix.
func NewTriplet(r, c int) *Triplet {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("sparse: negative dimension %dx%d", r, c))
	}
	return &Triplet{rows: r, cols: c}
}

// Add accumulates v at (i, j).
func (t *Triplet) Add(i, j int, v float64) {
	if i < 0 || i >= t.rows || j < 0 || j >= t.cols {
		panic(fmt.Sprintf("sparse: Add(%d,%d) out of range %dx%d", i, j, t.rows, t.cols))
	}
	t.i = append(t.i, i)
	t.j = append(t.j, j)
	t.v = append(t.v, v)
}

// ToCSR compacts the accumulated triplets into a CSR matrix, summing
// duplicates and dropping exact zeros. The build is a two-pass counting
// sort — stable by column, then by row — followed by a linear merge of
// adjacent duplicates: O(nnz + rows + cols) with no map and no comparison
// sort, which is what keeps assembly linear at million-node grids.
func (t *Triplet) ToCSR() *CSR {
	nnz := len(t.v)
	// Pass 1: stable counting sort by column.
	count := make([]int, maxInt(t.cols, t.rows)+1)
	for _, j := range t.j {
		count[j+1]++
	}
	for j := 0; j < t.cols; j++ {
		count[j+1] += count[j]
	}
	bi := make([]int, nnz)
	bj := make([]int, nnz)
	bv := make([]float64, nnz)
	for k := 0; k < nnz; k++ {
		p := count[t.j[k]]
		count[t.j[k]]++
		bi[p], bj[p], bv[p] = t.i[k], t.j[k], t.v[k]
	}
	// Pass 2: stable counting sort by row. Stability preserves the column
	// order within each row, so the result is sorted by (row, col).
	for i := range count[:t.rows+1] {
		count[i] = 0
	}
	for _, i := range bi {
		count[i+1]++
	}
	for i := 0; i < t.rows; i++ {
		count[i+1] += count[i]
	}
	ci := make([]int, nnz)
	cj := make([]int, nnz)
	cv := make([]float64, nnz)
	for k := 0; k < nnz; k++ {
		p := count[bi[k]]
		count[bi[k]]++
		ci[p], cj[p], cv[p] = bi[k], bj[k], bv[k]
	}
	// Merge adjacent duplicates and drop exact zeros while building the CSR.
	c := &CSR{rows: t.rows, cols: t.cols, rowPtr: make([]int, t.rows+1)}
	for k := 0; k < nnz; {
		i, j, v := ci[k], cj[k], cv[k]
		for k++; k < nnz && ci[k] == i && cj[k] == j; k++ {
			v += cv[k]
		}
		if v != 0 {
			c.rowPtr[i+1]++
			c.colIdx = append(c.colIdx, j)
			c.val = append(c.val, v)
		}
	}
	for i := 0; i < t.rows; i++ {
		c.rowPtr[i+1] += c.rowPtr[i]
	}
	return c
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// CSR is a compressed sparse row matrix.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	val        []float64
}

// NewCSR wraps pre-built CSR arrays without copying. Column indices must be
// strictly ascending within each row. This is the fast path for regular
// stencils (million-node grids) where the map-based Triplet accumulator is
// too slow; the structure is validated once and panics on malformed input
// since that is a programming error, matching the package's style.
func NewCSR(rows, cols int, rowPtr, colIdx []int, val []float64) *CSR {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: negative dimension %dx%d", rows, cols))
	}
	if len(rowPtr) != rows+1 || rowPtr[0] != 0 {
		panic(fmt.Sprintf("sparse: NewCSR rowPtr length %d, want %d starting at 0", len(rowPtr), rows+1))
	}
	if len(colIdx) != rowPtr[rows] || len(val) != rowPtr[rows] {
		panic(fmt.Sprintf("sparse: NewCSR %d cols / %d vals, rowPtr ends at %d", len(colIdx), len(val), rowPtr[rows]))
	}
	for i := 0; i < rows; i++ {
		if rowPtr[i+1] < rowPtr[i] {
			panic(fmt.Sprintf("sparse: NewCSR rowPtr decreases at row %d", i))
		}
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			if colIdx[k] < 0 || colIdx[k] >= cols {
				panic(fmt.Sprintf("sparse: NewCSR column %d out of range at row %d", colIdx[k], i))
			}
			if k > rowPtr[i] && colIdx[k] <= colIdx[k-1] {
				panic(fmt.Sprintf("sparse: NewCSR columns not strictly ascending in row %d", i))
			}
		}
	}
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, val: val}
}

// Rows returns the number of rows.
func (c *CSR) Rows() int { return c.rows }

// Cols returns the number of columns.
func (c *CSR) Cols() int { return c.cols }

// NNZ returns the number of stored nonzeros.
func (c *CSR) NNZ() int { return len(c.val) }

// At returns element (i, j) with a binary search over row i.
func (c *CSR) At(i, j int) float64 {
	if i < 0 || i >= c.rows || j < 0 || j >= c.cols {
		panic(fmt.Sprintf("sparse: At(%d,%d) out of range %dx%d", i, j, c.rows, c.cols))
	}
	lo, hi := c.rowPtr[i], c.rowPtr[i+1]
	k := lo + sort.SearchInts(c.colIdx[lo:hi], j)
	if k < hi && c.colIdx[k] == j {
		return c.val[k]
	}
	return 0
}

// MulVec returns c * x.
func (c *CSR) MulVec(x []float64) []float64 {
	y := make([]float64, c.rows)
	c.MulVecTo(y, x)
	return y
}

// MulVecTo computes y = c * x without allocating.
func (c *CSR) MulVecTo(y, x []float64) {
	if len(x) != c.cols || len(y) != c.rows {
		panic(fmt.Sprintf("sparse: MulVecTo shapes y=%d x=%d, want %d/%d", len(y), len(x), c.rows, c.cols))
	}
	for i := 0; i < c.rows; i++ {
		s := 0.0
		for k := c.rowPtr[i]; k < c.rowPtr[i+1]; k++ {
			s += c.val[k] * x[c.colIdx[k]]
		}
		y[i] = s
	}
}

// Diag returns a copy of the main diagonal.
func (c *CSR) Diag() []float64 {
	n := c.rows
	if c.cols < n {
		n = c.cols
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = c.At(i, i)
	}
	return d
}

// Preconditioner approximates A⁻¹ for conjugate gradient: Apply writes
// z = M⁻¹·r. Implementations must not alias z and r and must not allocate,
// so solvers built on them stay allocation-free in steady state.
type Preconditioner interface {
	Apply(z, r []float64)
}

// Identity is the no-op preconditioner (plain CG).
type Identity struct{}

// Apply copies r into z.
func (Identity) Apply(z, r []float64) { copy(z, r) }

// CGOptions configures SolveCG and NewCGSolver.
type CGOptions struct {
	Tol     float64 // relative residual target; default 1e-10
	MaxIter int     // default 10 * n
	// Precond overrides the default plain IC(0) preconditioner. Use
	// Identity{} for unpreconditioned CG or NewICModified(a, omega) for
	// modified incomplete Cholesky.
	Precond Preconditioner
	// Workers bounds the parallel shares of every kernel in the solve
	// (SpMV, reductions, preconditioner sweeps). 0 means the mat pool
	// default (SetParallelism / GOMAXPROCS); 1 forces serial execution.
	// Results are bitwise identical for every setting.
	Workers int
}

// CGSolver is a reusable preconditioned conjugate-gradient solver: all
// workspace — including the parallel kernel stages — is allocated once at
// construction so repeated Solve calls (the transient-stepping hot loop) run
// with zero allocations. A CGSolver is not safe for concurrent use.
type CGSolver struct {
	a       *CSR
	pre     Preconditioner
	preTeam teamPreconditioner // non-nil when pre supports team application
	tol     float64
	maxIter int
	o       *ops
	r, z    []float64
	p, ap   []float64
}

// NewCGSolver prepares a solver for the SPD matrix a. With opt.Precond nil
// it builds a plain IC(0) preconditioner, which fails on a missing diagonal
// or a non-positive pivot.
func NewCGSolver(a *CSR, opt CGOptions) (*CGSolver, error) {
	n := a.rows
	if a.cols != n {
		panic(fmt.Sprintf("sparse: CG needs square matrix, got %dx%d", a.rows, a.cols))
	}
	pre, err := defaultPrecond(a, opt.Precond)
	if err != nil {
		return nil, err
	}
	tol := opt.Tol
	if tol <= 0 {
		tol = 1e-10
	}
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 10 * n
	}
	s := &CGSolver{
		a: a, pre: pre, tol: tol, maxIter: maxIter,
		o: newOps(n, opt.Workers),
		r: make([]float64, n), z: make([]float64, n),
		p: make([]float64, n), ap: make([]float64, n),
	}
	s.preTeam, _ = pre.(teamPreconditioner)
	return s, nil
}

// defaultPrecond returns pre, or a plain IC(0) factor of a when pre is nil.
func defaultPrecond(a *CSR, pre Preconditioner) (Preconditioner, error) {
	if pre != nil {
		return pre, nil
	}
	return NewIC(a)
}

// applyPre applies the preconditioner on the team when it supports it.
func (s *CGSolver) applyPre(z, r []float64) {
	if s.preTeam != nil {
		s.preTeam.applyTeam(s.o, z, r)
	} else {
		s.pre.Apply(z, r)
	}
}

// Solve solves A x = b in place: x holds the initial guess on entry (the
// warm start) and the solution on return. It returns the iteration count
// and allocates nothing. Every kernel runs on the worker team; the result
// is bitwise identical for every worker count.
func (s *CGSolver) Solve(x, b []float64) (int, error) {
	n := s.a.rows
	if len(b) != n || len(x) != n {
		panic(fmt.Sprintf("sparse: Solve lengths x=%d b=%d, want %d", len(x), len(b), n))
	}
	bnorm := math.Sqrt(s.o.dot(b, b))
	if bnorm == 0 {
		for i := range x {
			x[i] = 0
		}
		return 0, nil
	}
	s.o.mulVec(s.a, s.r, x)
	s.o.sub(s.r, b)
	if math.Sqrt(s.o.dot(s.r, s.r)) <= s.tol*bnorm {
		return 0, nil // warm start already within tolerance
	}
	s.applyPre(s.z, s.r)
	copy(s.p, s.z)
	rz := s.o.dot(s.r, s.z)
	for it := 1; it <= s.maxIter; it++ {
		s.o.mulVec(s.a, s.ap, s.p)
		pap := s.o.dot(s.p, s.ap)
		if pap <= 0 {
			return it, fmt.Errorf("sparse: pᵀAp = %g <= 0; matrix not SPD", pap)
		}
		alpha := rz / pap
		s.o.axpy2(alpha, x, s.p, s.r, s.ap)
		if math.Sqrt(s.o.dot(s.r, s.r)) <= s.tol*bnorm {
			return it, nil
		}
		s.applyPre(s.z, s.r)
		rzNew := s.o.dot(s.r, s.z)
		beta := rzNew / rz
		rz = rzNew
		s.o.xpby(s.p, s.z, beta)
	}
	return s.maxIter, ErrNoConvergence
}

// SolveCG solves the symmetric positive definite system A x = b with
// preconditioned conjugate gradient (plain IC(0) unless opt.Precond says
// otherwise), starting from x0 (nil means zero). It returns the solution
// and the iteration count. One-shot convenience over CGSolver.
func SolveCG(a *CSR, b, x0 []float64, opt CGOptions) ([]float64, int, error) {
	n := a.rows
	if len(b) != n {
		panic(fmt.Sprintf("sparse: SolveCG rhs length %d, want %d", len(b), n))
	}
	s, err := NewCGSolver(a, opt)
	if err != nil {
		return nil, 0, err
	}
	x := make([]float64, n)
	if x0 != nil {
		copy(x, x0)
	}
	it, err := s.Solve(x, b)
	if err != nil {
		return nil, it, err
	}
	return x, it, nil
}

func dot(x, y []float64) float64 {
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

func norm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}
