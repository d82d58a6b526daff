package pdn

import (
	"math/rand"
	"runtime"
	"testing"
)

// benchLoads synthesizes m distinct load sequences over steps time steps
// for an n-node grid, deterministic per column.
func benchLoads(n, m, steps int, seed int64) [][][]float64 {
	out := make([][][]float64, m)
	for c := 0; c < m; c++ {
		rng := rand.New(rand.NewSource(seed + int64(c)))
		cols := make([][]float64, steps)
		for t := 0; t < steps; t++ {
			ld := make([]float64, n)
			for i := 0; i < n; i += 7 {
				ld[i] = 0.02 * rng.Float64() * float64(c+1)
			}
			cols[t] = ld
		}
		out[c] = cols
	}
	return out
}

// TestBatchMatchesLoopedSimulators: the core batch contract — a
// BatchSimulator's columns are bitwise identical to independent Simulators
// stepped with the same loads, on both backends.
func TestBatchMatchesLoopedSimulators(t *testing.T) {
	g := smallGrid()
	n := g.NumNodes()
	const m, steps = 3, 40
	loads := benchLoads(n, m, steps, 7)
	for _, backend := range []Backend{Banded, Sparse} {
		opts := SimOptions{Backend: backend}
		bs, err := NewBatchSimulator(g, testDT, m, opts)
		if err != nil {
			t.Fatalf("%v: %v", backend, err)
		}
		sims := make([]*Simulator, m)
		for c := range sims {
			if sims[c], err = NewSimulatorOpts(g, testDT, opts); err != nil {
				t.Fatalf("%v: %v", backend, err)
			}
		}
		stepLoads := make([][]float64, m)
		for step := 0; step < steps; step++ {
			for c := 0; c < m; c++ {
				stepLoads[c] = loads[c][step]
			}
			vs := bs.Step(stepLoads)
			for c := 0; c < m; c++ {
				want := sims[c].Step(stepLoads[c])
				for i := range want {
					if vs[c][i] != want[i] {
						t.Fatalf("%v step %d col %d node %d: batch %v, single %v (not bitwise identical)",
							backend, step, c, i, vs[c][i], want[i])
					}
				}
			}
		}
	}
}

// TestBatchSettleMatchesSimulator: SettleColumn reproduces Simulator.Settle
// bitwise.
func TestBatchSettleMatchesSimulator(t *testing.T) {
	g := smallGrid()
	n := g.NumNodes()
	loads := make([]float64, n)
	for i := 0; i < n; i += 5 {
		loads[i] = 0.01
	}
	bs, err := NewBatchSimulator(g, testDT, 2, SimOptions{Backend: Sparse})
	if err != nil {
		t.Fatal(err)
	}
	if err := bs.SettleColumn(1, loads); err != nil {
		t.Fatal(err)
	}
	s, err := NewSimulatorOpts(g, testDT, SimOptions{Backend: Sparse})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Settle(loads); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if bs.vCols[1][i] != s.v[i] {
			t.Fatalf("node %d: batch settle %v, simulator %v", i, bs.vCols[1][i], s.v[i])
		}
	}
	for p := range g.Pads {
		if bs.padCurCols[1][p] != s.padCur[p] {
			t.Fatalf("pad %d: batch current %v, simulator %v", p, bs.padCurCols[1][p], s.padCur[p])
		}
	}
}

// TestStepInvariantUnderSparseWorkers: transient voltages from the sparse
// backend are bitwise identical across worker bounds.
func TestStepInvariantUnderSparseWorkers(t *testing.T) {
	g := smallGrid()
	n := g.NumNodes()
	const steps = 30
	loads := benchLoads(n, 1, steps, 13)[0]
	var ref [][]float64
	for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		s, err := NewSimulatorOpts(g, testDT, SimOptions{Backend: Sparse, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		got := make([][]float64, steps)
		for step := 0; step < steps; step++ {
			got[step] = append([]float64(nil), s.Step(loads[step])...)
		}
		if ref == nil {
			ref = got
			continue
		}
		for step := range ref {
			for i := range ref[step] {
				if got[step][i] != ref[step][i] {
					t.Fatalf("workers=%d step %d node %d: %v, want %v (not bitwise identical)",
						w, step, i, got[step][i], ref[step][i])
				}
			}
		}
	}
}

// TestBatchRunAllMatchesRun: RunAll (settle + step + callbacks) reproduces
// per-column Simulator.Run bitwise.
func TestBatchRunAllMatchesRun(t *testing.T) {
	g := smallGrid()
	nb := len(g.BlockNodes)
	const m, steps = 2, 25
	currents := make([][][]float64, m)
	for c := 0; c < m; c++ {
		rng := rand.New(rand.NewSource(100 + int64(c)))
		currents[c] = make([][]float64, steps)
		for t := 0; t < steps; t++ {
			cur := make([]float64, nb)
			for b := range cur {
				cur[b] = 0.05 * rng.Float64()
			}
			currents[c][t] = cur
		}
	}
	opts := SimOptions{Backend: Sparse}
	bs, err := NewBatchSimulator(g, testDT, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	gotV := make([][][]float64, m)
	for c := range gotV {
		gotV[c] = make([][]float64, steps)
	}
	err = bs.RunAll(steps,
		func(c, t int) []float64 { return currents[c][t] },
		func(c, t int, v []float64) { gotV[c][t] = append([]float64(nil), v...) })
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < m; c++ {
		s, err := NewSimulatorOpts(g, testDT, opts)
		if err != nil {
			t.Fatal(err)
		}
		step := 0
		err = s.Run(steps,
			func(t int) []float64 { return currents[c][t] },
			func(t int, v []float64) {
				for i := range v {
					if gotV[c][t][i] != v[i] {
						panic("mismatch")
					}
				}
				step++
			})
		if err != nil {
			t.Fatal(err)
		}
		if step != steps {
			t.Fatalf("col %d: compared %d steps, want %d", c, step, steps)
		}
	}
}

// TestBatchSimulatorRejectsBadArgs covers the constructor's validation.
func TestBatchSimulatorRejectsBadArgs(t *testing.T) {
	g := smallGrid()
	if _, err := NewBatchSimulator(g, 0, 2, SimOptions{}); err == nil {
		t.Fatal("zero dt accepted")
	}
	if _, err := NewBatchSimulator(g, testDT, 0, SimOptions{}); err == nil {
		t.Fatal("zero nrhs accepted")
	}
	if _, err := NewBatchSimulator(g, testDT, 2, SimOptions{Backend: Backend(99)}); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// TestResolveBackend pins the exported resolution rule.
func TestResolveBackend(t *testing.T) {
	g := smallGrid()
	if got := ResolveBackend(g, Auto); got != Banded {
		t.Fatalf("narrow mesh resolved to %v, want banded", got)
	}
	if got := ResolveBackend(g, Sparse); got != Sparse {
		t.Fatalf("explicit sparse resolved to %v", got)
	}
}
