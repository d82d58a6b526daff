package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"voltsense/internal/core"
	"voltsense/internal/detect"
	"voltsense/internal/eagleeye"
	"voltsense/internal/experiments"
	"voltsense/internal/floorplan"
	"voltsense/internal/grid"
	"voltsense/internal/lasso"
	"voltsense/internal/mat"
	"voltsense/internal/ols"
	"voltsense/internal/pdn"
	"voltsense/internal/power"
	"voltsense/internal/workload"
)

// The traced pass rebuilds experiments.New and Tables 1/2 from the public
// calls they are made of, with a span around each call into a module. Its
// outputs must equal the untraced pass bit for bit, which the run asserts,
// so the trace describes the same program. The orchestration mirrors
// internal/experiments (pipeline.go, placement.go, figures.go); a change
// there that this file does not follow shows up as a digest mismatch.

// Run indices of experiments' workload streams (pipeline.go).
const (
	expRunTrain = 0
	expRunTest  = 1
	expRunCalib = 2
)

type rebuild struct {
	cfg     experiments.Config
	tr      *tracer
	chip    *floorplan.Chip
	grid    *grid.Grid
	pm      *power.Model
	bench   []workload.Benchmark
	workers int

	simMu sync.Mutex
	sims  []*pdn.Simulator // idle banded/sparse simulators for reuse
}

// tracedPipeline is the traced pass of runPipeline.
func tracedPipeline(cfg experiments.Config, table1 bool, tr *tracer) (*outputs, error) {
	if cfg.ThermalFeedback || cfg.TraceSource != experiments.TraceMarkov || cfg.BatchTraces != experiments.BatchAuto {
		return nil, errors.New("traced pass supports only the Markov trace source, no thermal feedback and automatic batching")
	}
	o := &outputs{}
	o.collWall[0] = time.Now()
	root := tr.start("run.collect", -1, runCalibrate)
	r := &rebuild{cfg: cfg, tr: tr, workers: cfg.Workers}
	if r.workers <= 0 {
		r.workers = gomaxprocs()
	}
	id := tr.start("floorplan.new", root, runCalibrate)
	r.chip = floorplan.New(cfg.Chip)
	tr.stop(id)
	id = tr.start("grid.build", root, runCalibrate)
	r.grid = grid.Build(r.chip, cfg.Grid)
	tr.stop(id)
	id = tr.start("power.model", root, runCalibrate)
	r.pm = power.DefaultModel(r.chip)
	tr.stop(id)
	r.bench = workload.Benchmarks()

	crit, err := r.calibrate(root)
	if err != nil {
		return nil, err
	}
	p := &experiments.Pipeline{Cfg: cfg, Chip: r.chip, Grid: r.grid, Power: r.pm, Bench: r.bench, CritNodes: crit}
	if p.Train, err = r.collectTraining(root, crit); err != nil {
		return nil, err
	}
	if p.TestByBench, err = r.collectTest(root, crit); err != nil {
		return nil, err
	}
	tr.stop(root)
	o.collWall[1] = time.Now()
	// ClearPlacementCache also initializes the placement maps of a Pipeline
	// assembled outside experiments.New.
	p.ClearPlacementCache()
	o.p = p

	o.placeWall[0] = time.Now()
	root = tr.start("run.place", -1, runPlace)
	pl := &placer{p: p, tr: tr, root: root, workers: r.workers, cores: make([]*coreState, len(p.Chip.Cores))}
	pl.thr = cfg.Threshold
	if pl.thr == 0 {
		pl.thr = core.DefaultThreshold
	}
	if table1 {
		if o.table1, err = pl.table1(cfg.Lambdas); err != nil {
			return nil, err
		}
	}
	if o.t2Sel, o.t2Rows, err = pl.table2(2); err != nil {
		return nil, err
	}
	tr.stop(root)
	o.placeWall[1] = time.Now()
	o.collectS = o.collWall[1].Sub(o.collWall[0]).Seconds()
	o.placeS = o.placeWall[1].Sub(o.placeWall[0]).Seconds()
	return o, nil
}

// forEachBenchmark runs fn for every benchmark on the mat worker pool, like
// experiments' fan-out; the first error by benchmark index wins.
func (r *rebuild) forEachBenchmark(fn func(bi int) error) error {
	errs := make([]error, len(r.bench))
	mat.ParallelFor(len(r.bench), 1, r.workers, func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			errs[bi] = fn(bi)
		}
	})
	return errors.Join(errs...)
}

func (r *rebuild) simOpts() pdn.SimOptions {
	return pdn.SimOptions{Backend: r.cfg.Backend, Precond: r.cfg.Precond, Workers: r.cfg.SparseWorkers}
}

// runBenchmarks delivers every benchmark's post-warmup voltages, batched
// when the backend resolves to sparse and fanned out otherwise.
func (r *rebuild) runBenchmarks(run, steps int, parent int32, trun int64, onStep func(bi, t int, v []float64)) error {
	if pdn.ResolveBackend(r.grid, r.cfg.Backend) == pdn.Sparse {
		return r.simulateAll(run, steps, parent, trun, onStep)
	}
	return r.forEachBenchmark(func(bi int) error {
		return r.simulate(bi, run, steps, parent, trun, func(t int, v []float64) { onStep(bi, t, v) })
	})
}

// currents generates one benchmark's activity trace and block currents.
func (r *rebuild) currents(bi, run, total int, parent int32, trun int64) *power.CurrentTrace {
	id := r.tr.start("workload.generate", parent, trun)
	trc := workload.Generate(r.chip, r.bench[bi], total, run)
	r.tr.stop(id)
	id = r.tr.start("power.currents", parent, trun)
	ct := r.pm.CurrentsScaledLeakage(trc, nil)
	r.tr.stop(id)
	return ct
}

func (r *rebuild) acquireSim(parent int32, trun int64) (*pdn.Simulator, error) {
	r.simMu.Lock()
	if n := len(r.sims); n > 0 {
		s := r.sims[n-1]
		r.sims = r.sims[:n-1]
		r.simMu.Unlock()
		return s, nil
	}
	r.simMu.Unlock()
	id := r.tr.start("pdn.build", parent, trun)
	defer r.tr.stop(id)
	return pdn.NewSimulatorOpts(r.grid, r.cfg.DT, r.simOpts())
}

func (r *rebuild) releaseSim(s *pdn.Simulator) {
	r.simMu.Lock()
	r.sims = append(r.sims, s)
	r.simMu.Unlock()
}

// simulate is Simulator.Run with a span around the settle and every step.
func (r *rebuild) simulate(bi, run, steps int, parent int32, trun int64, onStep func(t int, v []float64)) error {
	total := r.cfg.Warmup + steps
	ct := r.currents(bi, run, total, parent, trun)
	sim, err := r.acquireSim(parent, trun)
	if err != nil {
		return fmt.Errorf("%s: %w", r.bench[bi].Name, err)
	}
	defer r.releaseSim(sim)
	cur := make([]float64, r.chip.NumBlocks())
	fill := func(t int) {
		for b := range cur {
			cur[b] = ct.Currents[b][t]
		}
	}
	loader := pdn.NewBlockLoader(r.grid)
	if total > 0 {
		fill(0)
		id := r.tr.start("pdn.settle", parent, trun)
		err := sim.Settle(loader.Loads(cur))
		r.tr.stop(id)
		if err != nil {
			return fmt.Errorf("%s: %w", r.bench[bi].Name, err)
		}
	}
	for t := 0; t < total; t++ {
		fill(t)
		id := r.tr.start("pdn.step", parent, trun)
		v := sim.Step(loader.Loads(cur))
		r.tr.stop(id)
		if t >= r.cfg.Warmup {
			onStep(t-r.cfg.Warmup, v)
		}
	}
	r.tr.add("pdn.steps", float64(total))
	return nil
}

// simulateAll is the lock-stepped multi-RHS collection (BatchSimulator.RunAll)
// with a span around every settle and every batched step.
func (r *rebuild) simulateAll(run, steps int, parent int32, trun int64, onStep func(bi, t int, v []float64)) error {
	total := r.cfg.Warmup + steps
	nb := len(r.bench)
	cts := make([]*power.CurrentTrace, nb)
	r.forEachBenchmark(func(bi int) error {
		cts[bi] = r.currents(bi, run, total, parent, trun)
		return nil
	})
	id := r.tr.start("pdn.build", parent, trun)
	bs, err := pdn.NewBatchSimulator(r.grid, r.cfg.DT, nb, r.simOpts())
	r.tr.stop(id)
	if err != nil {
		return fmt.Errorf("batch simulator: %w", err)
	}
	cur := make([][]float64, nb)
	loaders := make([]*pdn.BlockLoader, nb)
	loads := make([][]float64, nb)
	for c := range cur {
		cur[c] = make([]float64, r.chip.NumBlocks())
		loaders[c] = pdn.NewBlockLoader(r.grid)
	}
	fill := func(c, t int) []float64 {
		buf := cur[c]
		for b := range buf {
			buf[b] = cts[c].Currents[b][t]
		}
		return buf
	}
	if total > 0 {
		for c := 0; c < nb; c++ {
			id := r.tr.start("pdn.settle", parent, trun)
			err := bs.SettleColumn(c, loaders[c].Loads(fill(c, 0)))
			r.tr.stop(id)
			if err != nil {
				return fmt.Errorf("batch settle: %w", err)
			}
		}
	}
	for t := 0; t < total; t++ {
		id := r.tr.start("pdn.step", parent, trun)
		for c := 0; c < nb; c++ {
			loads[c] = loaders[c].Loads(fill(c, t))
		}
		vs := bs.Step(loads)
		r.tr.stop(id)
		if t >= r.cfg.Warmup {
			for c := 0; c < nb; c++ {
				onStep(c, t-r.cfg.Warmup, vs[c])
			}
		}
	}
	r.tr.add("pdn.steps", float64(total*nb))
	return nil
}

// calibrate picks every block's critical node: the worst-droop node over
// the calibration scan.
func (r *rebuild) calibrate(parent int32) ([]int, error) {
	n := r.grid.NumNodes()
	droops := make([]*pdn.WorstDroop, len(r.bench))
	for bi := range droops {
		droops[bi] = pdn.NewWorstDroop(n)
	}
	err := r.runBenchmarks(expRunCalib, r.cfg.CalibSteps, parent, runCalibrate, func(bi, _ int, v []float64) {
		id := r.tr.start("pdn.observe", parent, runCalibrate)
		droops[bi].Observe(v)
		r.tr.stop(id)
	})
	if err != nil {
		return nil, err
	}
	id := r.tr.start("pdn.critical_nodes", parent, runCalibrate)
	defer r.tr.stop(id)
	merged := pdn.NewWorstDroop(n)
	for _, d := range droops {
		merged.Observe(d.Min)
	}
	crit := make([]int, r.chip.NumBlocks())
	for b, nodes := range r.grid.BlockNodes {
		crit[b] = merged.CriticalNode(nodes)
	}
	return crit, nil
}

// recordColumn copies one voltage map's candidate and critical rows into
// column c.
func (r *rebuild) recordColumn(cand, crit *mat.Matrix, critNodes []int, c int, v []float64) {
	for i, nd := range r.grid.Candidates {
		cand.Set(i, c, v[nd])
	}
	for b, nd := range critNodes {
		crit.Set(b, c, v[nd])
	}
}

// collectTraining samples TrainMaps maps at steps drawn from Config.Seed.
func (r *rebuild) collectTraining(parent int32, critNodes []int) (*experiments.SampleSet, error) {
	cfg := r.cfg
	rng := rand.New(rand.NewSource(cfg.Seed))
	nb := len(r.bench)
	perBench := cfg.TrainMaps / nb
	if perBench < 1 || perBench > cfg.TrainSteps {
		return nil, fmt.Errorf("training maps %d do not fit %d benchmarks × %d steps", cfg.TrainMaps, nb, cfg.TrainSteps)
	}
	total := perBench * nb
	cand := mat.Zeros(len(r.grid.Candidates), total)
	crit := mat.Zeros(r.chip.NumBlocks(), total)
	benchIdx := make([]int, total)
	picks := make([]map[int]int, nb)
	col := 0
	for bi := range r.bench {
		steps := rng.Perm(cfg.TrainSteps)[:perBench]
		sort.Ints(steps)
		pick := make(map[int]int, perBench)
		for _, s := range steps {
			pick[s] = col
			benchIdx[col] = bi
			col++
		}
		picks[bi] = pick
	}
	err := r.runBenchmarks(expRunTrain, cfg.TrainSteps, parent, runTrain, func(bi, t int, v []float64) {
		if c, ok := picks[bi][t]; ok {
			r.recordColumn(cand, crit, critNodes, c, v)
		}
	})
	if err != nil {
		return nil, err
	}
	return &experiments.SampleSet{CandV: cand, CritV: crit, Bench: benchIdx}, nil
}

// collectTest records TestSteps strided maps per benchmark.
func (r *rebuild) collectTest(parent int32, critNodes []int) ([]*experiments.SampleSet, error) {
	cfg := r.cfg
	m, k := len(r.grid.Candidates), r.chip.NumBlocks()
	sets := make([]*experiments.SampleSet, len(r.bench))
	cols := make([]int, len(r.bench))
	for bi := range r.bench {
		idx := make([]int, cfg.TestSteps)
		for i := range idx {
			idx[i] = bi
		}
		sets[bi] = &experiments.SampleSet{CandV: mat.Zeros(m, cfg.TestSteps), CritV: mat.Zeros(k, cfg.TestSteps), Bench: idx}
	}
	err := r.runBenchmarks(expRunTest, cfg.TestSteps*cfg.TestStride, parent, runTest, func(bi, t int, v []float64) {
		if t%cfg.TestStride != 0 || cols[bi] >= cfg.TestSteps {
			return
		}
		r.recordColumn(sets[bi].CandV, sets[bi].CritV, critNodes, cols[bi], v)
		cols[bi]++
	})
	return sets, err
}

// placer is the traced form of experiments' per-core placement: one
// warm-started path solver per core, shared by Table 1's λ path and
// Table 2's μ bisection.
type placer struct {
	p       *experiments.Pipeline
	tr      *tracer
	root    int32
	workers int
	thr     float64
	cores   []*coreState
}

type coreState struct {
	ps      *lasso.PathSolver
	candIdx []int
	m       int
}

// forEachCore runs fn for every core on the mat worker pool. Each core is
// handled by one goroutine per call, so core state needs no lock.
func (pl *placer) forEachCore(fn func(c int) error) error {
	errs := make([]error, len(pl.cores))
	mat.ParallelFor(len(pl.cores), 1, pl.workers, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			errs[c] = fn(c)
		}
	})
	return errors.Join(errs...)
}

func (pl *placer) span(name string) int32 { return pl.tr.start(name, pl.root, runPlace) }

// corePath builds core c's path solver on first use: dataset, sample cap,
// standardization, Gram.
func (pl *placer) corePath(c int) *coreState {
	if st := pl.cores[c]; st != nil {
		return st
	}
	p := pl.p
	id := pl.span("experiments.core_dataset")
	ds, candIdx := p.CoreDataset(c, p.Train)
	pl.tr.stop(id)
	if lim := p.Cfg.GLSampleCap; lim > 0 && ds.X.Cols() > lim {
		stride := ds.X.Cols() / lim
		cols := make([]int, 0, lim)
		for j := 0; j < ds.X.Cols() && len(cols) < lim; j += stride {
			cols = append(cols, j)
		}
		id = pl.span("core.subset")
		ds = ds.Subset(cols)
		pl.tr.stop(id)
	}
	id = pl.span("mat.standardize")
	z, _ := mat.Standardize(ds.X)
	g, _ := mat.Standardize(ds.F)
	pl.tr.stop(id)
	opts := p.Cfg.Solver
	if opts.MaxIter < 3000 {
		opts.MaxIter = 3000
	}
	id = pl.span("lasso.gram")
	ps := lasso.NewPathSolver(z, g, opts)
	pl.tr.stop(id)
	st := &coreState{ps: ps, candIdx: candIdx, m: ds.X.Rows()}
	pl.cores[c] = st
	return st
}

// counted records the numerics-health counters of one path solve.
func (pl *placer) counted(res *lasso.Result, stats lasso.PathStats, err error) error {
	pl.tr.add("lasso.solves", 1)
	pl.tr.add("lasso.screened", float64(stats.Screened))
	pl.tr.add("lasso.groups", float64(stats.Screened+stats.Kept))
	pl.tr.add("lasso.kkt_resolves", float64(stats.Resolves))
	if res != nil {
		pl.tr.add("lasso.fista_iters", float64(res.Iters))
	}
	if errors.Is(err, lasso.ErrDidNotConverge) {
		pl.tr.add("lasso.unconverged", 1)
		return nil
	}
	return err
}

// placeCorePath is PlaceCorePath on an empty cache: budgets solved densest
// first, each warm-started from the last.
func (pl *placer) placeCorePath(c int, lambdas []float64) ([]*experiments.CorePlacement, error) {
	st := pl.corePath(c)
	order := make([]int, len(lambdas))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return lambdas[order[a]] > lambdas[order[b]] })
	out := make([]*experiments.CorePlacement, len(lambdas))
	for _, i := range order {
		id := pl.span("lasso.solve")
		res, stats, err := st.ps.SolveConstrained(lambdas[i])
		pl.tr.stop(id)
		if err := pl.counted(res, stats, err); err != nil {
			return nil, fmt.Errorf("core %d λ=%v: %w", c, lambdas[i], err)
		}
		sel := res.Select(pl.thr)
		out[i] = &experiments.CorePlacement{Core: c, Lambda: lambdas[i], LocalIdx: sel,
			CandIdx: mapIdx(st.candIdx, sel), GroupNorms: res.GroupNorms}
	}
	return out, nil
}

// placeCoreCount is PlaceCoreCount: bisect the penalized multiplier μ until
// exactly q groups survive, else trim the tightest solution with at least q.
func (pl *placer) placeCoreCount(c, q int) (*experiments.CorePlacement, error) {
	if q < 1 {
		return nil, fmt.Errorf("sensor count %d must be positive", q)
	}
	st := pl.corePath(c)
	if q > st.m {
		return nil, fmt.Errorf("core %d has %d candidates, cannot place %d", c, st.m, q)
	}
	lo, hi := 0.0, st.ps.MuMax()
	var best *lasso.Result
	bestCount := -1
	for it := 0; it < 40; it++ {
		mu := (lo + hi) / 2
		id := pl.span("lasso.solve")
		res, stats, err := st.ps.SolvePenalized(mu)
		pl.tr.stop(id)
		if err := pl.counted(res, stats, err); err != nil {
			return nil, fmt.Errorf("core %d q=%d: %w", c, q, err)
		}
		n := len(res.Select(pl.thr))
		if n >= q && (bestCount < 0 || n < bestCount) {
			best, bestCount = res, n
		}
		if n == q {
			break
		}
		if n > q {
			lo = mu
		} else {
			hi = mu
		}
	}
	if best == nil {
		return nil, fmt.Errorf("core %d: could not reach %d sensors", c, q)
	}
	sel := best.Select(pl.thr)
	if len(sel) > q {
		sort.Slice(sel, func(a, b int) bool { return best.GroupNorms[sel[a]] > best.GroupNorms[sel[b]] })
		sel = sel[:q]
		sort.Ints(sel)
	}
	return &experiments.CorePlacement{Core: c, LocalIdx: sel, CandIdx: mapIdx(st.candIdx, sel), GroupNorms: best.GroupNorms}, nil
}

func mapIdx(global, local []int) []int {
	out := make([]int, len(local))
	for i, l := range local {
		out[i] = global[l]
	}
	return out
}

// refit is the Eq. 17 OLS refit on the full training set.
func (pl *placer) refit(sel []int) (*core.Predictor, error) {
	id := pl.span("ols.refit")
	defer pl.tr.stop(id)
	return core.BuildPredictor(&core.Dataset{X: pl.p.Train.CandV, F: pl.p.Train.CritV}, sel)
}

func (pl *placer) predict(pred *core.Predictor, s *experiments.SampleSet) *mat.Matrix {
	id := pl.span("core.predict_dataset")
	defer pl.tr.stop(id)
	return pred.PredictDataset(&core.Dataset{X: s.CandV, F: s.CritV})
}

// table1 is Table1: the λ sweep, refit and pooled relative error.
func (pl *placer) table1(lambdas []float64) ([]table1Row, error) {
	id := pl.span("experiments.test_all")
	testAll := pl.p.TestAll()
	pl.tr.stop(id)
	perCore := make([][]*experiments.CorePlacement, len(pl.cores))
	err := pl.forEachCore(func(c int) error {
		var err error
		perCore[c], err = pl.placeCorePath(c, lambdas)
		return err
	})
	if err != nil {
		return nil, err
	}
	var rows []table1Row
	for li, l := range lambdas {
		pls := make([]*experiments.CorePlacement, len(perCore))
		for c := range perCore {
			pls[c] = perCore[c][li]
		}
		u := union(pls)
		row := table1Row{Lambda: l, SensorsCore0: len(pls[0].LocalIdx), TotalSensors: len(u), Selection: u, RelErrPct: 100}
		if len(u) > 0 {
			pred, err := pl.refit(u)
			if err != nil {
				return nil, err
			}
			predicted := pl.predict(pred, testAll)
			id := pl.span("ols.relative_error")
			row.RelErrPct = 100 * ols.RelativeError(predicted, testAll.CritV)
			pl.tr.stop(id)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// table2 is Table2: q sensors per core against Eagle-Eye at the same total,
// scored per benchmark.
func (pl *placer) table2(q int) ([]int, []experiments.Table2Row, error) {
	p := pl.p
	pls := make([]*experiments.CorePlacement, len(pl.cores))
	err := pl.forEachCore(func(c int) error {
		var err error
		pls[c], err = pl.placeCoreCount(c, q)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	u := union(pls)
	pred, err := pl.refit(u)
	if err != nil {
		return nil, nil, err
	}
	id := pl.span("eagleeye.place")
	ee := eagleeye.Place(p.Train.CandV, p.Train.CritV, p.Cfg.Vth, len(u))
	pl.tr.stop(id)
	var rows []experiments.Table2Row
	for bi, s := range p.TestByBench {
		id := pl.span("detect.truth")
		truth := detect.TruthFromVoltages(s.CritV, p.Cfg.Vth)
		pl.tr.stop(id)
		predicted := pl.predict(pred, s)
		id = pl.span("detect.score")
		proposed := detect.Score(truth, detect.AlarmsFromPredictions(predicted, p.Cfg.Vth))
		pl.tr.stop(id)
		id = pl.span("eagleeye.alarms")
		alarms := ee.Alarms(s.CandV)
		pl.tr.stop(id)
		id = pl.span("detect.score")
		eagle := detect.Score(truth, alarms)
		pl.tr.stop(id)
		rows = append(rows, experiments.Table2Row{Bench: p.Bench[bi].Name, Proposed: proposed, EagleEye: eagle})
	}
	return u, rows, nil
}
