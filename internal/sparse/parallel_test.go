package sparse

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// workerCounts are the parallelism settings every invariance test sweeps:
// serial, two shares, and the machine default. The engine's contract is
// bitwise-identical results across all of them.
func workerCounts() []int {
	return []int{1, 2, runtime.GOMAXPROCS(0)}
}

// refToCSR is the original map+sort Triplet build, kept verbatim as the
// golden reference for the counting-sort rewrite: accumulate duplicates in
// a map, drop zeros, emit rows with sorted columns.
func refToCSR(t *Triplet) *CSR {
	type key struct{ i, j int }
	acc := make(map[key]float64, len(t.v))
	for k := range t.v {
		acc[key{t.i[k], t.j[k]}] += t.v[k]
	}
	c := &CSR{rows: t.rows, cols: t.cols, rowPtr: make([]int, t.rows+1)}
	perRow := make([][]int, t.rows)
	for k, v := range acc {
		if v != 0 {
			perRow[k.i] = append(perRow[k.i], k.j)
		}
	}
	for i := 0; i < t.rows; i++ {
		sort.Ints(perRow[i])
		for _, j := range perRow[i] {
			c.colIdx = append(c.colIdx, j)
			c.val = append(c.val, acc[key{i, j}])
		}
		c.rowPtr[i+1] = len(c.colIdx)
	}
	return c
}

// TestToCSRMatchesReference: the two-pass counting-sort build produces the
// same structure as the map+sort reference on random triplet streams heavy
// with duplicates and exact zero cancellations.
//
// The one intended difference is duplicate summation order: the counting
// sort sums duplicates in insertion order, the map reference accumulates in
// the same insertion order too (map value += is order-preserving per key),
// so even values match bitwise.
func TestToCSRMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		rows := 1 + rng.Intn(12)
		cols := 1 + rng.Intn(12)
		tr := NewTriplet(rows, cols)
		nAdd := rng.Intn(80)
		for k := 0; k < nAdd; k++ {
			i, j := rng.Intn(rows), rng.Intn(cols)
			v := float64(rng.Intn(7) - 3) // integer values so cancellation is exact
			tr.Add(i, j, v)
			if rng.Intn(3) == 0 {
				tr.Add(i, j, -v) // force exact zero-sum duplicates
			}
		}
		got := tr.ToCSR()
		want := refToCSR(tr)
		if got.rows != want.rows || got.cols != want.cols || got.NNZ() != want.NNZ() {
			t.Fatalf("trial %d: shape/nnz %dx%d/%d, want %dx%d/%d",
				trial, got.rows, got.cols, got.NNZ(), want.rows, want.cols, want.NNZ())
		}
		for i := 0; i <= rows; i++ {
			if got.rowPtr[i] != want.rowPtr[i] {
				t.Fatalf("trial %d: rowPtr[%d] = %d, want %d", trial, i, got.rowPtr[i], want.rowPtr[i])
			}
		}
		for k := range want.val {
			if got.colIdx[k] != want.colIdx[k] || got.val[k] != want.val[k] {
				t.Fatalf("trial %d: entry %d = (%d, %v), want (%d, %v)",
					trial, k, got.colIdx[k], got.val[k], want.colIdx[k], want.val[k])
			}
		}
	}
}

// TestToCSREmptyAndAllZero: degenerate inputs — no entries, and entries
// that all cancel — produce valid empty matrices.
func TestToCSREmptyAndAllZero(t *testing.T) {
	c := NewTriplet(3, 4).ToCSR()
	if c.NNZ() != 0 || c.Rows() != 3 || c.Cols() != 4 {
		t.Fatalf("empty: nnz=%d shape=%dx%d", c.NNZ(), c.Rows(), c.Cols())
	}
	tr := NewTriplet(2, 2)
	tr.Add(1, 1, 5)
	tr.Add(1, 1, -5)
	c = tr.ToCSR()
	if c.NNZ() != 0 {
		t.Fatalf("all-zero: nnz=%d, want 0", c.NNZ())
	}
	if got := c.At(1, 1); got != 0 {
		t.Fatalf("all-zero: At(1,1)=%v", got)
	}
}

// TestSpMVDeterministicAcrossWorkerCounts: the parallel SpMV is bitwise
// identical to the serial MulVecTo at every worker count.
func TestSpMVDeterministicAcrossWorkerCounts(t *testing.T) {
	a := gridLaplacianCSR(67, 53, 0.3)
	n := a.Rows()
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, n)
	a.MulVecTo(want, x)
	for _, w := range workerCounts() {
		o := newOps(n, w)
		got := make([]float64, n)
		o.mulVec(a, got, x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: y[%d] = %v, want %v (not bitwise identical)", w, i, got[i], want[i])
			}
		}
	}
}

// TestDotDeterministicAcrossWorkerCounts: the blocked reduction returns the
// same bits at every worker count (and for the serial path).
func TestDotDeterministicAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, dotBlock - 1, dotBlock, 3*dotBlock + 17, 50000} {
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		var want float64
		for wi, w := range workerCounts() {
			o := newOps(n, w)
			got := o.dot(x, y)
			if wi == 0 {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("n=%d workers=%d: dot = %v, want %v (not bitwise identical)", n, w, got, want)
			}
		}
	}
}

// TestCGInvariantUnderParallelism: full MIC-preconditioned CG solves return
// bitwise-identical solutions and iteration counts for
// Workers ∈ {1, 2, GOMAXPROCS}.
func TestCGInvariantUnderParallelism(t *testing.T) {
	a := gridLaplacianCSR(48, 37, 0.2)
	n := a.Rows()
	rng := rand.New(rand.NewSource(3))
	b := make([]float64, n)
	x0 := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
		x0[i] = 0.1 * rng.NormFloat64() // nontrivial warm start
	}
	var refX []float64
	refIt := -1
	for _, w := range workerCounts() {
		ic, err := NewICModified(a, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewCGSolver(a, CGOptions{Tol: 1e-11, Precond: ic, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		x := append([]float64(nil), x0...)
		it, err := s.Solve(x, b)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if refX == nil {
			refX, refIt = x, it
			continue
		}
		if it != refIt {
			t.Fatalf("workers=%d: %d iterations, want %d", w, it, refIt)
		}
		for i := range x {
			if x[i] != refX[i] {
				t.Fatalf("workers=%d: x[%d] = %v, want %v (not bitwise identical)", w, i, x[i], refX[i])
			}
		}
	}
}

// TestICApplyTeamMatchesSerial: the level-scheduled parallel triangular
// sweeps are bitwise identical to the sequential Apply.
func TestICApplyTeamMatchesSerial(t *testing.T) {
	a := gridLaplacianCSR(41, 29, 0.4)
	n := a.Rows()
	ic, err := NewICModified(a, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	r := make([]float64, n)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	want := make([]float64, n)
	ic.Apply(want, r)
	for _, w := range workerCounts() {
		o := newOps(n, w)
		got := make([]float64, n)
		ic.applyTeam(o, got, r)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: z[%d] = %v, want %v (not bitwise identical)", w, i, got[i], want[i])
			}
		}
	}
}

// TestICLevelsAreMeshWavefronts: on an nx×ny 5-point mesh in natural order
// the forward (and backward) level sets are the anti-diagonal wavefronts:
// exactly nx+ny-1 levels.
func TestICLevelsAreMeshWavefronts(t *testing.T) {
	nx, ny := 13, 9
	a := gridLaplacianCSR(nx, ny, 0.5)
	ic, err := NewIC(a)
	if err != nil {
		t.Fatal(err)
	}
	fwd, bwd := ic.Levels()
	if want := nx + ny - 1; fwd != want || bwd != want {
		t.Fatalf("levels fwd=%d bwd=%d, want %d", fwd, bwd, want)
	}
	// Every level's rows must be solvable given earlier levels only.
	l := ic.L()
	seen := make([]bool, a.Rows())
	for lv := 0; lv < ic.fwd.numLevels(); lv++ {
		rows := ic.fwd.rows[ic.fwd.ptr[lv]:ic.fwd.ptr[lv+1]]
		for _, i := range rows {
			for k := l.rowPtr[i]; k < l.rowPtr[i+1]-1; k++ {
				if !seen[l.colIdx[k]] {
					t.Fatalf("level %d row %d depends on unsolved row %d", lv, i, l.colIdx[k])
				}
			}
		}
		for _, i := range rows {
			seen[i] = true
		}
	}
}

// TestCGSolverZeroAllocParallel: the parallel solve path, with the
// team-applied IC sweeps, allocates nothing in steady state.
func TestCGSolverZeroAllocParallel(t *testing.T) {
	a := gridLaplacianCSR(32, 32, 0.3)
	n := a.Rows()
	ic, err := NewICModified(a, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewCGSolver(a, CGOptions{Tol: 1e-10, Precond: ic, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	x := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	if _, err := s.Solve(x, b); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := s.Solve(x, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Solve allocates %v per run, want 0", allocs)
	}
}

func BenchmarkSpMVSerial(b *testing.B) { benchSpMV(b, 1) }

func BenchmarkSpMVParallel(b *testing.B) { benchSpMV(b, 0) }

func benchSpMV(b *testing.B, workers int) {
	a := gridLaplacianCSR(512, 512, 0.3)
	n := a.Rows()
	o := newOps(n, workers)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i%17) * 0.25
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.mulVec(a, y, x)
	}
}

func BenchmarkICApplySerial(b *testing.B) { benchICApply(b, 1) }

func BenchmarkICApplyParallel(b *testing.B) { benchICApply(b, 0) }

func benchICApply(b *testing.B, workers int) {
	a := gridLaplacianCSR(512, 512, 0.3)
	n := a.Rows()
	ic, err := NewICModified(a, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	o := newOps(n, workers)
	r := make([]float64, n)
	z := make([]float64, n)
	for i := range r {
		r[i] = float64(i%13) * 0.5
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if workers == 1 {
			ic.Apply(z, r)
		} else {
			ic.applyTeam(o, z, r)
		}
	}
}
