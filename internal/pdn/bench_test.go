package pdn

import (
	"testing"

	"voltsense/internal/floorplan"
	"voltsense/internal/grid"
	"voltsense/internal/power"
	"voltsense/internal/workload"
)

// fullGrid is the production mesh of the paper-scale experiments.
func fullGrid() *grid.Grid {
	chip := floorplan.New(floorplan.DefaultConfig())
	return grid.Build(chip, grid.DefaultConfig())
}

func BenchmarkNewSimulator(b *testing.B) {
	g := fullGrid()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewSimulatorOpts(g, 5e-10, SimOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStep(b *testing.B) {
	g := fullGrid()
	s, err := NewSimulatorOpts(g, 5e-10, SimOptions{})
	if err != nil {
		b.Fatal(err)
	}
	loads := make([]float64, g.NumNodes())
	for _, nodes := range g.BlockNodes {
		for _, nd := range nodes {
			loads[nd] = 0.2
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(loads)
	}
}

func BenchmarkStaticSolve(b *testing.B) {
	g := fullGrid()
	loads := make([]float64, g.NumNodes())
	for _, nodes := range g.BlockNodes {
		for _, nd := range nodes {
			loads[nd] = 0.2
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := StaticSolve(g, loads); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStepZeroAllocs pins the transient hot loop: after construction, every
// Step must be a pair of in-place triangular solves plus state updates —
// no allocation, ever.
func TestStepZeroAllocs(t *testing.T) {
	g := fullGrid()
	s, err := NewSimulatorOpts(g, 5e-10, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]float64, g.NumNodes())
	for _, nodes := range g.BlockNodes {
		for _, nd := range nodes {
			loads[nd] = 0.2
		}
	}
	s.Step(loads)
	if a := testing.AllocsPerRun(20, func() { s.Step(loads) }); a != 0 {
		t.Fatalf("Step allocates %v times per run, want 0", a)
	}
}

// TestStepZeroAllocsSparse mirrors the banded assertion for the sparse
// backend: the warm-started IC-PCG step must also run allocation-free.
func TestStepZeroAllocsSparse(t *testing.T) {
	g := fullGrid()
	s, err := NewSimulatorOpts(g, 5e-10, SimOptions{Backend: Sparse})
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]float64, g.NumNodes())
	for _, nodes := range g.BlockNodes {
		for _, nd := range nodes {
			loads[nd] = 0.2
		}
	}
	s.Step(loads)
	if a := testing.AllocsPerRun(20, func() { s.Step(loads) }); a != 0 {
		t.Fatalf("sparse Step allocates %v times per run, want 0", a)
	}
}

// scaledGrid builds the default chip meshed at nx×ny.
func scaledGrid(nx, ny int) *grid.Grid {
	chip := floorplan.New(floorplan.DefaultConfig())
	cfg := grid.DefaultConfig()
	cfg.NX, cfg.NY = nx, ny
	return grid.Build(chip, cfg)
}

// benchWorkloadSteps is the length of the workload trace the step
// benchmarks cycle through.
const benchWorkloadSteps = 120

// workloadCurrents returns per-step block currents of the first synthetic
// benchmark on g's chip through the default power model: the varying loads
// the experiments pipeline steps the grid under.
func workloadCurrents(g *grid.Grid) [][]float64 {
	tr := workload.Generate(g.Chip, workload.Benchmarks()[0], benchWorkloadSteps, 0)
	ct := power.DefaultModel(g.Chip).Currents(tr)
	out := make([][]float64, benchWorkloadSteps)
	for t := range out {
		cur := make([]float64, len(ct.Currents))
		for b := range cur {
			cur[b] = ct.Currents[b][t]
		}
		out[t] = cur
	}
	return out
}

// benchWorkloadStep settles s at the first step's currents, then times Step
// under the workload's block currents, cycling through the trace.
func benchWorkloadStep(b *testing.B, s *Simulator) {
	cur := workloadCurrents(s.g)
	loader := NewBlockLoader(s.g)
	if err := s.Settle(loader.Loads(cur[0])); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(loader.Loads(cur[i%len(cur)]))
	}
}

func benchStepBackend(b *testing.B, g *grid.Grid, backend Backend) {
	s, err := NewSimulatorOpts(g, 5e-10, SimOptions{Backend: backend})
	if err != nil {
		b.Fatal(err)
	}
	benchWorkloadStep(b, s)
}

// BenchmarkStepBanded256 vs BenchmarkStepSparse256: the same 256×128 mesh
// (bandwidth 256, the crossover point of the Auto rule) stepped by both
// backends. In-band the banded triangular sweeps win per step — this pair
// documents why Auto keeps Banded below the bandwidth limit.
func BenchmarkStepBanded256(b *testing.B) { benchStepBackend(b, scaledGrid(256, 128), Banded) }

func BenchmarkStepSparse256(b *testing.B) { benchStepBackend(b, scaledGrid(256, 128), Sparse) }

func benchCtorBackend(b *testing.B, g *grid.Grid, backend Backend) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewSimulatorOpts(g, 5e-10, SimOptions{Backend: backend}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewSimulator512Banded vs BenchmarkNewSimulator512Sparse: the
// banded-vs-sparse speedup pair in BENCH_PR7.json. At 512×256 the banded
// factor costs O(n·bw²) ≈ 1.7e10 flops and 538 MB; sparse assembly plus the
// MIC factor is O(nnz) — three orders of magnitude cheaper, which is what
// makes per-worker simulators at this scale viable at all.
func BenchmarkNewSimulator512Banded(b *testing.B) {
	benchCtorBackend(b, scaledGrid(512, 256), Banded)
}

func BenchmarkNewSimulator512Sparse(b *testing.B) {
	benchCtorBackend(b, scaledGrid(512, 256), Sparse)
}

// BenchmarkStepSparse1024 steps a 1024×1024 mesh (1M nodes). The banded
// factor at this size would need ~8.6 GB and ~5e11 flops (about ten
// minutes) to build, so the sparse path is the only one that runs — the
// scale-up the issue targets.
func BenchmarkStepSparse1024(b *testing.B) { benchStepBackend(b, scaledGrid(1024, 1024), Sparse) }

func benchStepSparseWorkers(b *testing.B, g *grid.Grid, workers int) {
	s, err := NewSimulatorOpts(g, 5e-10, SimOptions{Backend: Sparse, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	benchWorkloadStep(b, s)
}

// BenchmarkStepSparse1024Serial vs BenchmarkStepSparse1024Parallel: the
// serial-vs-parallel speedup pair at the 1M-node scale. Serial pins
// Workers=1 (every kernel inline); Parallel uses the pool default, so the
// reported ratio is the machine's actual core win — parity on one core,
// scaling with the row-partitioned kernels as cores are added. Outputs are
// bitwise identical either way.
func BenchmarkStepSparse1024Serial(b *testing.B) {
	benchStepSparseWorkers(b, scaledGrid(1024, 1024), 1)
}

func BenchmarkStepSparse1024Parallel(b *testing.B) {
	benchStepSparseWorkers(b, scaledGrid(1024, 1024), 0)
}

// stepBatchNRHS is the column count of the batched step pair — the size of
// the benchmark suite the experiments pipeline steps in lock step.
const stepBatchNRHS = 8

func batchBenchFixture(b *testing.B, g *grid.Grid) ([][]float64, [][]float64) {
	n := g.NumNodes()
	loadCols := make([][]float64, stepBatchNRHS)
	for c := range loadCols {
		loads := make([]float64, n)
		for _, nodes := range g.BlockNodes {
			for _, nd := range nodes {
				loads[nd] = 0.2 * float64(c+1) / float64(stepBatchNRHS) / float64(len(nodes))
			}
		}
		loadCols[c] = loads
	}
	return loadCols, nil
}

// BenchmarkStepBatch512 vs BenchmarkStepLooped512: the batched-vs-looped
// speedup pair. Both advance 8 independent transients one step on a 512×256
// mesh; the batch steps them through one matrix traversal per PCG
// iteration, the loop streams the matrix and factor once per transient.
func BenchmarkStepBatch512(b *testing.B) {
	g := scaledGrid(512, 256)
	loadCols, _ := batchBenchFixture(b, g)
	bs, err := NewBatchSimulator(g, 5e-10, stepBatchNRHS, SimOptions{Backend: Sparse})
	if err != nil {
		b.Fatal(err)
	}
	for c := 0; c < stepBatchNRHS; c++ {
		if err := bs.SettleColumn(c, loadCols[c]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs.Step(loadCols)
	}
}

func BenchmarkStepLooped512(b *testing.B) {
	g := scaledGrid(512, 256)
	loadCols, _ := batchBenchFixture(b, g)
	sims := make([]*Simulator, stepBatchNRHS)
	for c := range sims {
		s, err := NewSimulatorOpts(g, 5e-10, SimOptions{Backend: Sparse})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Settle(loadCols[c]); err != nil {
			b.Fatal(err)
		}
		sims[c] = s
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c, s := range sims {
			s.Step(loadCols[c])
		}
	}
}

// TestStepBatchZeroAllocs extends the zero-alloc invariant to the batched
// sparse step.
func TestStepBatchZeroAllocs(t *testing.T) {
	g := smallGrid()
	bs, err := NewBatchSimulator(g, testDT, 4, SimOptions{Backend: Sparse})
	if err != nil {
		t.Fatal(err)
	}
	loadCols := make([][]float64, 4)
	for c := range loadCols {
		loads := make([]float64, g.NumNodes())
		for _, nodes := range g.BlockNodes {
			for _, nd := range nodes {
				loads[nd] = 0.1 * float64(c+1)
			}
		}
		loadCols[c] = loads
	}
	bs.Step(loadCols)
	if a := testing.AllocsPerRun(20, func() { bs.Step(loadCols) }); a != 0 {
		t.Fatalf("batch Step allocates %v times per run, want 0", a)
	}
}
