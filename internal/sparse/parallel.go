package sparse

import (
	"sync"

	"voltsense/internal/mat"
)

// This file is the parallel execution layer of the sparse engine: a small
// dispatcher (team) that reuses the mat worker pool with preallocated jobs,
// and the row-partitioned SpMV / elementwise / reduction kernels the solvers
// are built from.
//
// Two invariants hold everywhere:
//
//   - Determinism. Every output element is written by exactly one share with
//     a per-element operation order that does not depend on the worker
//     count, and reductions accumulate into fixed-size blocks (dotBlock
//     elements) whose partial sums are combined serially in block order.
//     Results are therefore bitwise identical whether a kernel runs with 1
//     worker or GOMAXPROCS.
//   - Zero allocation. Jobs and stage closures are built once at solver
//     construction and parameterized through fields, so the transient
//     stepping hot loop allocates nothing.

const (
	// rowChunk is the minimum rows per share for SpMV and triangular
	// sweeps; below it dispatch overhead dominates the ~5 nnz/row work.
	rowChunk = 2048
	// vecChunk is the minimum elements per share for elementwise kernels.
	vecChunk = 8192
	// dotBlock is the fixed reduction block: partial sums are formed per
	// block and combined serially, so the summation tree is independent of
	// the worker count.
	dotBlock = 4096
	// dotBlockChunk is the minimum reduction blocks per share.
	dotBlockChunk = 4
)

// numDotBlocks returns the reduction-block count for vectors of length n.
func numDotBlocks(n int) int { return (n + dotBlock - 1) / dotBlock }

// team fans one index range out across the mat worker pool. All job storage
// is preallocated: a dispatch costs channel sends and a WaitGroup, never an
// allocation. A team is single-client — one dispatch at a time — matching
// the solvers that embed it.
type team struct {
	workers int
	wg      sync.WaitGroup
	fn      func(lo, hi int)
	jobs    []teamJob
}

type teamJob struct {
	call   func()
	lo, hi int
}

// init prepares the team for up to workers concurrent shares; workers <= 0
// tracks the mat pool default (SetParallelism / GOMAXPROCS).
func (t *team) init(workers int) {
	t.workers = workers
	n := workers
	if n <= 0 {
		n = mat.Parallelism()
	}
	t.jobs = make([]teamJob, n)
	for c := range t.jobs {
		j := &t.jobs[c]
		j.call = func() {
			t.fn(j.lo, j.hi)
			t.wg.Done()
		}
	}
}

// shares returns the effective share count for n items at minChunk
// granularity.
func (t *team) shares(n, minChunk int) int {
	p := t.workers
	if p <= 0 {
		p = mat.Parallelism()
	}
	if p > len(t.jobs) {
		p = len(t.jobs)
	}
	if m := n / minChunk; p > m {
		p = m
	}
	if p < 1 {
		p = 1
	}
	return p
}

// run partitions [0, n) into contiguous chunks and executes fn on each,
// dispatching all but the first chunk to the pool (inline when the pool is
// busy or absent). Chunk boundaries depend only on n and the share count;
// fn must write disjoint outputs per chunk.
func (t *team) run(n, minChunk int, fn func(lo, hi int)) {
	p := t.shares(n, minChunk)
	if p <= 1 {
		fn(0, n)
		return
	}
	t.fn = fn
	t.wg.Add(p - 1)
	for c := 1; c < p; c++ {
		j := &t.jobs[c]
		j.lo, j.hi = c*n/p, (c+1)*n/p
		if !mat.Submit(j.call) {
			j.call()
		}
	}
	fn(0, n/p)
	t.wg.Wait()
}

// ops bundles the team with every parallel kernel the solvers need. Operands
// are staged through fields so the stage closures can be built once; all
// methods are therefore allocation-free after newOps.
type ops struct {
	t    team
	sums []float64 // dot reduction blocks

	a          *CSR // staged matrix (SpMV)
	x, y, z, w []float64
	s1         float64

	fnSpMV, fnDot, fnAxpy2, fnXpBY, fnSub func(lo, hi int)
}

// newOps prepares kernels for vectors of length n with the given worker
// bound (<= 0: pool default).
func newOps(n, workers int) *ops {
	o := &ops{sums: make([]float64, numDotBlocks(n))}
	o.t.init(workers)
	o.fnSpMV = func(lo, hi int) { o.a.mulVecRange(o.y, o.x, lo, hi) }
	o.fnDot = func(lo, hi int) {
		for b := lo; b < hi; b++ {
			start := b * dotBlock
			end := start + dotBlock
			if end > len(o.x) {
				end = len(o.x)
			}
			s := 0.0
			for i := start; i < end; i++ {
				s += o.x[i] * o.y[i]
			}
			o.sums[b] = s
		}
	}
	o.fnAxpy2 = func(lo, hi int) {
		a := o.s1
		for i := lo; i < hi; i++ {
			o.x[i] += a * o.z[i]
			o.y[i] -= a * o.w[i]
		}
	}
	o.fnXpBY = func(lo, hi int) {
		b := o.s1
		for i := lo; i < hi; i++ {
			o.x[i] = o.y[i] + b*o.x[i]
		}
	}
	o.fnSub = func(lo, hi int) {
		for i := lo; i < hi; i++ {
			o.x[i] = o.y[i] - o.x[i]
		}
	}
	return o
}

// mulVecRange computes y[lo:hi] of y = c·x — the per-share body of the
// parallel SpMV.
func (c *CSR) mulVecRange(y, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		s := 0.0
		for k := c.rowPtr[i]; k < c.rowPtr[i+1]; k++ {
			s += c.val[k] * x[c.colIdx[k]]
		}
		y[i] = s
	}
}

// mulVec computes y = a·x with row-partitioned shares.
func (o *ops) mulVec(a *CSR, y, x []float64) {
	o.a, o.y, o.x = a, y, x
	o.t.run(a.rows, rowChunk, o.fnSpMV)
}

// dot returns x·y via the fixed-block deterministic reduction.
func (o *ops) dot(x, y []float64) float64 {
	o.x, o.y = x, y
	nb := numDotBlocks(len(x))
	o.t.run(nb, dotBlockChunk, o.fnDot)
	total := 0.0
	for _, s := range o.sums[:nb] {
		total += s
	}
	return total
}

// axpy2 performs the fused CG update x += a·p, r -= a·ap.
func (o *ops) axpy2(a float64, x, p, r, ap []float64) {
	o.s1, o.x, o.z, o.y, o.w = a, x, p, r, ap
	o.t.run(len(x), vecChunk, o.fnAxpy2)
}

// xpby performs p = z + b·p.
func (o *ops) xpby(p, z []float64, b float64) {
	o.s1, o.x, o.y = b, p, z
	o.t.run(len(p), vecChunk, o.fnXpBY)
}

// sub performs r = b - r (after an SpMV left the product in r).
func (o *ops) sub(r, b []float64) {
	o.x, o.y = r, b
	o.t.run(len(r), vecChunk, o.fnSub)
}

// teamPreconditioner is implemented by preconditioners that can apply
// themselves on the solver's team (level-scheduled IC); others fall back to
// the serial Apply.
type teamPreconditioner interface {
	applyTeam(o *ops, z, r []float64)
}
