package pdn

import (
	"math"
	"math/rand"
	"testing"

	"voltsense/internal/floorplan"
	"voltsense/internal/grid"
)

// TestSparseMatchesBandedTransient is the golden equivalence test: on a
// bandwidth-friendly mesh where both backends run, the sparse MIC-PCG path
// must track the banded Cholesky within 1e-9 at every node of every step
// of a block load with a mid-run level shift.
func TestSparseMatchesBandedTransient(t *testing.T) {
	g := smallGrid()
	assertSparseTracksBanded(t, g, blockShiftLoads(g, 200, 42))
}

// TestPrecondsMatchBandedTransient: the preconditioner the sparse path
// factors keeps the transient within the 1e-9 golden budget of the banded
// oracle under node-varying loads that keep moving the warm start.
func TestPrecondsMatchBandedTransient(t *testing.T) {
	g := smallGrid()
	assertSparseTracksBanded(t, g, benchLoads(g.NumNodes(), 1, 120, 29)[0])
}

// assertSparseTracksBanded steps a banded and a sparse simulator through
// loads and fails if any node of any step differs by more than 1e-9 V.
func assertSparseTracksBanded(t *testing.T, g *grid.Grid, loads [][]float64) {
	t.Helper()
	sb, err := NewSimulatorOpts(g, testDT, SimOptions{Backend: Banded})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSimulatorOpts(g, testDT, SimOptions{Backend: Sparse})
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for _, ld := range loads {
		vb := sb.Step(ld)
		vs := sp.Step(ld)
		for i := range vb {
			if d := math.Abs(vb[i] - vs[i]); d > worst {
				worst = d
			}
		}
	}
	if worst > 1e-9 {
		t.Fatalf("sparse and banded transients diverge: max |Δv| = %g > 1e-9", worst)
	}
	t.Logf("max |Δv| over %d steps: %g", len(loads), worst)
}

// blockShiftLoads is noisy block-style loading with a mid-run level shift:
// each block draws a fresh random current every step, five times larger in
// the second half.
func blockShiftLoads(g *grid.Grid, steps int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, steps)
	for step := range out {
		level := 0.05
		if step >= steps/2 {
			level = 0.25
		}
		loads := make([]float64, g.NumNodes())
		for _, nodes := range g.BlockNodes {
			cur := level * rng.Float64()
			for _, nd := range nodes {
				loads[nd] = cur / float64(len(nodes))
			}
		}
		out[step] = loads
	}
	return out
}

// TestBackendAutoSelection pins the Auto rule: narrow meshes stay on the
// banded factor, wide ones switch to sparse.
func TestBackendAutoSelection(t *testing.T) {
	chip := floorplan.New(floorplan.DefaultConfig())

	narrow := grid.DefaultConfig() // NX=78 ≤ sparseBandwidthLimit
	s, err := NewSimulatorOpts(grid.Build(chip, narrow), testDT, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Backend() != Banded {
		t.Fatalf("78-wide mesh picked %v, want banded", s.Backend())
	}

	wide := grid.DefaultConfig()
	wide.NX, wide.NY = 300, 4 // bandwidth 300 > sparseBandwidthLimit
	s, err = NewSimulatorOpts(grid.Build(chip, wide), testDT, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Backend() != Sparse {
		t.Fatalf("300-wide mesh picked %v, want sparse", s.Backend())
	}
}

// TestSparseSettlesOntoStaticSolve mirrors the banded settling cross-check
// for the new backend: a constant-load sparse transient must converge onto
// the independent DC solution.
func TestSparseSettlesOntoStaticSolve(t *testing.T) {
	g := smallGrid()
	s, err := NewSimulatorOpts(g, testDT, SimOptions{Backend: Sparse})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	loads := make([]float64, n)
	for _, nodes := range g.BlockNodes {
		for _, nd := range nodes {
			loads[nd] = 0.01
		}
	}
	want, err := StaticSolve(g, loads)
	if err != nil {
		t.Fatal(err)
	}
	var v []float64
	for step := 0; step < 4000; step++ {
		v = s.Step(loads)
	}
	worst := 0.0
	for i := range v {
		if d := math.Abs(v[i] - want[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-6 {
		t.Fatalf("sparse transient settled %g away from DC solution", worst)
	}
}

func TestParseBackend(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Backend
	}{{"", Auto}, {"auto", Auto}, {"banded", Banded}, {"sparse", Sparse}} {
		got, err := ParseBackend(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseBackend(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseBackend("gpu"); err == nil {
		t.Fatal("ParseBackend accepted unknown backend")
	}
}

func TestNewSimulatorOptsRejectsUnknownBackend(t *testing.T) {
	if _, err := NewSimulatorOpts(smallGrid(), testDT, SimOptions{Backend: Backend(99)}); err == nil {
		t.Fatal("unknown backend accepted")
	}
}
