package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"voltsense/internal/mat"
	"voltsense/internal/ols"
)

func fallbackFixture(t *testing.T, budget int) (*Dataset, *Predictor) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	ds := syntheticDataset(rng, 12, 4, 400, []int{1, 4, 8, 10}, 0.002)
	pred, err := BuildPredictorWithFallbacks(ds, []int{1, 4, 8, 10}, budget)
	if err != nil {
		t.Fatal(err)
	}
	return ds, pred
}

func TestFitFallbacksShape(t *testing.T) {
	_, pred := fallbackFixture(t, 2)
	fb := pred.Fallbacks
	if fb == nil {
		t.Fatal("no fallbacks fitted")
	}
	if len(fb.Stats) != 4 {
		t.Fatalf("stats for %d sensors, want 4", len(fb.Stats))
	}
	for i, s := range fb.Stats {
		if s.Std <= 0 || math.Abs(s.Mean-1.0) > 0.2 {
			t.Fatalf("implausible training stats for sensor %d: %+v", i, s)
		}
	}
	// 4 leave-one-out singletons plus one depth-2 chain entry.
	if len(fb.Models) != 5 {
		t.Fatalf("%d fallback models, want 5", len(fb.Models))
	}
	if fb.MaxExcluded() != 2 {
		t.Fatalf("MaxExcluded = %d, want 2", fb.MaxExcluded())
	}
	seen := map[int]bool{}
	for _, fm := range fb.Models[:4] {
		if len(fm.Excluded) != 1 {
			t.Fatalf("singleton model excludes %v", fm.Excluded)
		}
		seen[fm.Excluded[0]] = true
		if fm.Model.NumInputs() != 3 {
			t.Fatalf("leave-one-out model has %d inputs", fm.Model.NumInputs())
		}
		if fm.RelError <= 0 || fm.RelError > 0.5 {
			t.Fatalf("implausible training error %v for excluded %v", fm.RelError, fm.Excluded)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("singletons cover %d sensors, want all 4", len(seen))
	}
	chain := fb.Models[4]
	if len(chain.Excluded) != 2 || chain.Model.NumInputs() != 2 {
		t.Fatalf("chain model: excluded %v, inputs %d", chain.Excluded, chain.Model.NumInputs())
	}
}

func TestFallbackLookup(t *testing.T) {
	_, pred := fallbackFixture(t, 2)
	fb := pred.Fallbacks
	if fb.Lookup(nil) != nil {
		t.Fatal("empty faulty set should route to the primary, not a fallback")
	}
	for i := 0; i < 4; i++ {
		fm := fb.Lookup([]int{i})
		if fm == nil {
			t.Fatalf("no fallback for single failure of sensor %d", i)
		}
		if !reflect.DeepEqual(fm.Excluded, []int{i}) {
			t.Fatalf("single failure %d routed to excluded %v (want the exact leave-one-out)", i, fm.Excluded)
		}
	}
	chain := fb.Models[4].Excluded
	if fm := fb.Lookup(chain); fm == nil || len(fm.Excluded) != 2 {
		t.Fatalf("chain pair %v not covered", chain)
	}
	// A pair off the chain is uncovered at budget 2.
	var offChain []int
	for a := 0; a < 4 && offChain == nil; a++ {
		for b := a + 1; b < 4; b++ {
			if !(contains(chain, a) && contains(chain, b)) {
				offChain = []int{a, b}
				break
			}
		}
	}
	if fm := fb.Lookup(offChain); fm != nil {
		t.Fatalf("off-chain pair %v claims coverage by %v", offChain, fm.Excluded)
	}
}

func TestFallbackPredictFullIgnoresExcluded(t *testing.T) {
	_, pred := fallbackFixture(t, 1)
	fm := pred.Fallbacks.Lookup([]int{2})
	x := []float64{1.01, 0.99, 1.02, 0.98}
	want := fm.PredictFull(x)
	x[2] = math.NaN() // the failed sensor's reading must never be read
	got := fm.PredictFull(x)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("excluded reading leaked into prediction: %v vs %v", want, got)
		}
	}
}

func TestFallbackAccuracyDegradesGracefully(t *testing.T) {
	ds, pred := fallbackFixture(t, 1)
	xs := ds.X.SelectRows(pred.Selected)
	primaryErr := ols.RelativeError(pred.Model.PredictMatrix(xs), ds.F)
	for _, fm := range pred.Fallbacks.Models {
		if fm.RelError < primaryErr {
			t.Fatalf("fallback excluding %v beats the full model (%v < %v)", fm.Excluded, fm.RelError, primaryErr)
		}
		if fm.RelError > 20*primaryErr+0.05 {
			t.Fatalf("fallback excluding %v collapsed: %v vs primary %v", fm.Excluded, fm.RelError, primaryErr)
		}
	}
}

func TestSaveLoadRoundTripWithFallbacks(t *testing.T) {
	_, pred := fallbackFixture(t, 2)
	var buf bytes.Buffer
	if err := pred.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPredictor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fallbacks == nil {
		t.Fatal("fallbacks lost in round-trip")
	}
	if len(got.Fallbacks.Models) != len(pred.Fallbacks.Models) {
		t.Fatalf("%d models after round-trip, want %d", len(got.Fallbacks.Models), len(pred.Fallbacks.Models))
	}
	x := []float64{1.01, 0.99, 1.02, 0.98}
	for i := range pred.Fallbacks.Models {
		a := pred.Fallbacks.Models[i].PredictFull(x)
		b := got.Fallbacks.Models[i].PredictFull(x)
		for j := range a {
			if math.Abs(a[j]-b[j]) > 1e-15 {
				t.Fatalf("fallback %d prediction drifted after round-trip", i)
			}
		}
	}
	if !reflect.DeepEqual(got.Fallbacks.Stats, pred.Fallbacks.Stats) {
		t.Fatal("sensor stats drifted after round-trip")
	}
}

func TestFitFallbacksValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ds := syntheticDataset(rng, 6, 2, 200, []int{1, 3}, 0.002)
	if _, err := BuildPredictorWithFallbacks(ds, []int{1}, 1); err == nil {
		t.Error("single-sensor selection accepted")
	}
	if _, err := BuildPredictorWithFallbacks(ds, []int{1, 3}, 2); err == nil {
		t.Error("budget leaving zero sensors accepted")
	}
	if _, err := BuildPredictorWithFallbacks(ds, []int{1, 3}, 0); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestBuildPredictorRejectsBadSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds := syntheticDataset(rng, 6, 2, 200, []int{1, 3}, 0.002)
	if _, err := BuildPredictor(ds, []int{1, 1}); err == nil {
		t.Error("duplicate selected sensor accepted")
	}
	if _, err := BuildPredictor(ds, []int{3, 1}); err == nil {
		t.Error("descending selection accepted")
	}
	if _, err := BuildPredictor(ds, []int{1, 6}); err == nil {
		t.Error("out-of-range selection accepted")
	}
}

// correlatedDataset is a non-square fixture (K ≠ Q) whose q sensors all
// read one shared droop plus a small private part, so the design is far
// from orthogonal and every submodel leans on the others' correlation.
func correlatedDataset(seed int64, q, k, n int) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := mat.Zeros(q, n)
	f := mat.Zeros(k, n)
	w := mat.Zeros(k, q)
	for i := range w.Data() {
		w.Data()[i] = rng.NormFloat64()
	}
	for j := 0; j < n; j++ {
		shared := rng.NormFloat64()
		for i := 0; i < q; i++ {
			x.Set(i, j, 1+0.05*shared+0.01*rng.NormFloat64())
		}
		for o := 0; o < k; o++ {
			s := 0.0
			for i := 0; i < q; i++ {
				s += w.At(o, i) * (x.At(i, j) - 1)
			}
			f.Set(o, j, 0.9+s+0.002*rng.NormFloat64())
		}
	}
	return &Dataset{X: x, F: f}
}

// directExcluding is the reference a fallback must match: Eq. 17 refit from
// scratch on the kept sensors and scored by predicting the training set.
func directExcluding(ds *Dataset, selected, excluded []int) (*ols.Model, float64, error) {
	var kept []int
	for i, s := range selected {
		if !contains(excluded, i) {
			kept = append(kept, s)
		}
	}
	xs := ds.X.SelectRows(kept)
	m, err := ols.Fit(xs, ds.F)
	if err != nil {
		return nil, 0, err
	}
	return m, ols.RelativeError(m.PredictMatrix(xs), ds.F), nil
}

// directChain grows the greedy chain from direct refits, returning the
// Excluded sets the fallbacks must have: every singleton, then the chain.
func directChain(t *testing.T, ds *Dataset, selected []int, budget int) [][]int {
	t.Helper()
	q := len(selected)
	var out [][]int
	best, bestErr := -1, math.Inf(1)
	for i := 0; i < q; i++ {
		_, rel, err := directExcluding(ds, selected, []int{i})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, []int{i})
		if rel < bestErr {
			best, bestErr = i, rel
		}
	}
	chain := []int{best}
	for depth := 2; depth <= budget; depth++ {
		var bestEx []int
		bestNext, bestErr := -1, math.Inf(1)
		for j := 0; j < q; j++ {
			if contains(chain, j) {
				continue
			}
			ex := append(append([]int(nil), chain...), j)
			sort.Ints(ex)
			if _, rel, err := directExcluding(ds, selected, ex); err == nil && rel < bestErr {
				bestEx, bestNext, bestErr = ex, j, rel
			}
		}
		out = append(out, bestEx)
		chain = append(chain, bestNext)
	}
	return out
}

func relDiff(a, b []float64) float64 {
	return mat.FrobeniusDistance(mat.New(1, len(a), a), mat.New(1, len(b), b)) / mat.Norm2(b)
}

// Every fallback solved from the shared factorization matches a direct
// refit on its kept sensors, and the budget-3 chain is the direct chain.
func TestFitFallbacksMatchDirectRefits(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	fixtures := []struct {
		name     string
		ds       *Dataset
		selected []int
	}{
		{"synthetic", syntheticDataset(rng, 14, 5, 400, []int{1, 4, 8, 10, 12}, 0.002), []int{1, 4, 8, 10, 12}},
		{"correlated", correlatedDataset(22, 7, 11, 90), []int{0, 1, 2, 3, 4, 5, 6}},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			pred, err := BuildPredictorWithFallbacks(fx.ds, fx.selected, 3)
			if err != nil {
				t.Fatal(err)
			}
			primary, err := BuildPredictor(fx.ds, fx.selected)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pred.Model, primary.Model) {
				t.Fatal("primary model differs from BuildPredictor's")
			}
			var got [][]int
			for _, fm := range pred.Fallbacks.Models {
				got = append(got, fm.Excluded)
				want, wantRel, err := directExcluding(fx.ds, fx.selected, fm.Excluded)
				if err != nil {
					t.Fatal(err)
				}
				if d := relDiff(fm.Model.Alpha.Data(), want.Alpha.Data()); d > 1e-12 {
					t.Errorf("excluded %v: alpha off by %v relative", fm.Excluded, d)
				}
				if d := relDiff(fm.Model.C, want.C); d > 1e-12 {
					t.Errorf("excluded %v: intercepts off by %v relative", fm.Excluded, d)
				}
				if d := math.Abs(fm.RelError-wantRel) / wantRel; d > 1e-12 {
					t.Errorf("excluded %v: rel_error %v, direct %v", fm.Excluded, fm.RelError, wantRel)
				}
			}
			if want := directChain(t, fx.ds, fx.selected, 3); !reflect.DeepEqual(got, want) {
				t.Fatalf("fallback sets %v, direct path gives %v", got, want)
			}
		})
	}
}

// A duplicated sensor makes every subset keeping both copies singular: a
// leave-one-out model must fail with ErrSingular, and the chain must skip
// such an extension rather than fail.
func TestFitFallbacksSkipsSingularSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ds := syntheticDataset(rng, 8, 3, 300, []int{1, 4, 6}, 0.002)
	copy(ds.X.Row(7), ds.X.Row(4)) // sensor 7 duplicates sensor 4
	selected := []int{1, 4, 6, 7}  // positions 1 and 3 are the copies

	fa, err := ols.Factor(ds.X.SelectRows(selected), ds.F)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fitFallbacks(fa, ds, selected, 1); !errors.Is(err, mat.ErrSingular) {
		t.Fatalf("leave-one-out keeping both copies: err = %v, want ErrSingular", err)
	}
	// From the chain {0}, the extension {0, 2} keeps both copies.
	models, err := growChain(fa, len(selected), []int{0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 {
		t.Fatalf("chain grew %d models, want 2", len(models))
	}
	for _, fm := range models {
		if !contains(fm.Excluded, 1) && !contains(fm.Excluded, 3) {
			t.Fatalf("chain kept both copies: excluded %v", fm.Excluded)
		}
		want, wantRel, err := directExcluding(ds, selected, fm.Excluded)
		if err != nil {
			t.Fatalf("excluded %v: direct refit failed: %v", fm.Excluded, err)
		}
		if d := relDiff(fm.Model.Alpha.Data(), want.Alpha.Data()); d > 1e-12 || math.Abs(fm.RelError-wantRel) > 1e-12*wantRel {
			t.Fatalf("excluded %v: alpha off by %v, rel_error %v vs %v", fm.Excluded, d, fm.RelError, wantRel)
		}
	}
	if _, _, err := directExcluding(ds, selected, []int{0, 2}); !errors.Is(err, mat.ErrSingular) {
		t.Fatalf("direct refit of the skipped subset: err = %v, want ErrSingular", err)
	}
}
