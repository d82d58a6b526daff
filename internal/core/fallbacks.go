package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"voltsense/internal/faults"
	"voltsense/internal/ols"
)

// FallbackModel is one leave-k-out Eq. 17 refit: the same unbiased OLS
// model, fitted at placement time on the selected sensors minus Excluded,
// so the runtime can keep predicting when those sensors fail. Excluded
// holds positions into Predictor.Selected (0..Q-1), ascending — the
// positions of a reading vector, not global candidate indices.
type FallbackModel struct {
	Excluded []int
	Model    *ols.Model
	RelError float64 // training relative error of this submodel

	keep []int // complement of Excluded in 0..Q-1, precomputed
}

// buildKeep computes the kept reading-vector positions for q sensors.
func (fm *FallbackModel) buildKeep(q int) {
	fm.keep = fm.keep[:0]
	ex := 0
	for i := 0; i < q; i++ {
		if ex < len(fm.Excluded) && fm.Excluded[ex] == i {
			ex++
			continue
		}
		fm.keep = append(fm.keep, i)
	}
}

// PredictFull evaluates the submodel on a full-length reading vector
// (length Q, ordered as Predictor.Selected), reading only the kept
// positions. Values at excluded positions are never touched, so they may be
// NaN, stale, or garbage.
func (fm *FallbackModel) PredictFull(readings []float64) []float64 {
	x := make([]float64, len(fm.keep))
	for i, p := range fm.keep {
		x[i] = readings[p]
	}
	return fm.Model.Predict(x)
}

// FallbackSet is the optional fault-tolerance payload of a predictor: the
// per-sensor training statistics the runtime detector judges against, and
// the precomputed leave-k-out submodels. Models holds every leave-one-out
// singleton first, then the greedy nested chain for deeper failures
// (Excluded sets of size 2..budget, each extending the previous by the
// least-damaging additional sensor).
type FallbackSet struct {
	Stats  []faults.SensorStats
	Models []FallbackModel
}

// MaxExcluded returns the largest Excluded set size — the failure depth the
// set can cover at all.
func (fs *FallbackSet) MaxExcluded() int {
	max := 0
	for i := range fs.Models {
		if n := len(fs.Models[i].Excluded); n > max {
			max = n
		}
	}
	return max
}

// Lookup returns the narrowest fallback whose Excluded set covers every
// faulty position (faulty ascending), or nil when the failure set is
// uncovered. A superset match is valid — a model that additionally ignores
// a healthy sensor still reads only healthy sensors — so single failures
// hit their exact leave-one-out model and deeper failures fall through to
// the greedy chain.
func (fs *FallbackSet) Lookup(faulty []int) *FallbackModel {
	if len(faulty) == 0 {
		return nil
	}
	var best *FallbackModel
	for i := range fs.Models {
		fm := &fs.Models[i]
		if !containsAll(fm.Excluded, faulty) {
			continue
		}
		if best == nil || len(fm.Excluded) < len(best.Excluded) {
			best = fm
		}
	}
	return best
}

// containsAll reports whether sorted superset contains every element of
// sorted subset.
func containsAll(superset, subset []int) bool {
	i := 0
	for _, want := range subset {
		for i < len(superset) && superset[i] < want {
			i++
		}
		if i >= len(superset) || superset[i] != want {
			return false
		}
		i++
	}
	return true
}

// SensorTrainingStats computes each selected sensor's raw-reading mean and
// standard deviation over the training samples — the reference distribution
// the runtime fault detector needs.
func SensorTrainingStats(ds *Dataset, selected []int) []faults.SensorStats {
	out := make([]faults.SensorStats, len(selected))
	n := float64(ds.X.Cols())
	for i, s := range selected {
		row := ds.X.Row(s)
		sum, sumSq := 0.0, 0.0
		for _, v := range row {
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if variance < 0 {
			variance = 0
		}
		out[i] = faults.SensorStats{Mean: mean, Std: math.Sqrt(variance)}
	}
	return out
}

// fitFallbacks fits the leave-k-out submodels for a placement from the
// factorization of its design: every leave-one-out model (any single sensor
// may fail), then a greedy nested chain up to budget simultaneous failures —
// at each depth the chain drops the additional sensor whose exclusion costs
// the least training error. The chain trades coverage for artifact size:
// deeper failures are served only along the chain, and anything else trips
// the runtime's degraded mode. budget must be in 1..Q-1 (at least one
// sensor must survive).
func fitFallbacks(fa *ols.Factored, ds *Dataset, selected []int, budget int) (*FallbackSet, error) {
	q := len(selected)
	if q < 2 {
		return nil, errors.New("core: fallbacks need at least 2 selected sensors")
	}
	if budget < 1 || budget > q-1 {
		return nil, fmt.Errorf("core: fallback budget %d out of 1..%d", budget, q-1)
	}
	fs := &FallbackSet{Stats: SensorTrainingStats(ds, selected)}

	// Depth 1: exact leave-one-out for every sensor.
	bestSingle, bestErr := -1, math.Inf(1)
	for i := 0; i < q; i++ {
		fm, err := fitExcluding(fa, q, []int{i})
		if err != nil {
			return nil, fmt.Errorf("core: leave-one-out fallback excluding sensor %d: %w", i, err)
		}
		fs.Models = append(fs.Models, *fm)
		if fm.RelError < bestErr {
			bestSingle, bestErr = i, fm.RelError
		}
	}

	// Depths 2..budget: grow the greedy chain from the cheapest singleton.
	chain, err := growChain(fa, q, []int{bestSingle}, budget)
	if err != nil {
		return nil, err
	}
	fs.Models = append(fs.Models, chain...)
	return fs, nil
}

// growChain extends the excluded set chain one sensor per depth up to
// budget, each time by the sensor whose additional exclusion leaves the
// lowest training error, and returns the chain's models.
func growChain(fa *ols.Factored, q int, chain []int, budget int) ([]FallbackModel, error) {
	var out []FallbackModel
	for depth := len(chain) + 1; depth <= budget; depth++ {
		var bestModel *FallbackModel
		bestNext := -1
		for j := 0; j < q; j++ {
			if contains(chain, j) {
				continue
			}
			ex := append(append([]int(nil), chain...), j)
			sort.Ints(ex)
			fm, err := fitExcluding(fa, q, ex)
			if err != nil {
				// This subset is unfittable (rank-deficient); other
				// extensions may still work.
				continue
			}
			if bestModel == nil || fm.RelError < bestModel.RelError {
				bestModel, bestNext = fm, j
			}
		}
		if bestModel == nil {
			return nil, fmt.Errorf("core: no fittable leave-%d-out fallback extends the chain %v", depth, chain)
		}
		out = append(out, *bestModel)
		chain = append(chain, bestNext)
	}
	return out, nil
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// fitExcluding solves Eq. 17 on the q selected sensors minus the excluded
// positions from the shared factorization, with its training error.
func fitExcluding(fa *ols.Factored, q int, excluded []int) (*FallbackModel, error) {
	m, rel, err := fa.Without(excluded)
	if err != nil {
		return nil, err
	}
	fm := &FallbackModel{
		Excluded: append([]int(nil), excluded...),
		Model:    m,
		RelError: rel,
	}
	fm.buildKeep(q)
	return fm, nil
}

// BuildPredictorWithFallbacks runs Steps 6-8 plus the fault-tolerance tier:
// the primary Eq. 17 refit and a FallbackSet at the given failure budget,
// ready to serialize into the artifact's `fallbacks` section. The primary
// model and every submodel come from one factorization of the design (see
// ols.Factored.Without).
func BuildPredictorWithFallbacks(ds *Dataset, selected []int, budget int) (*Predictor, error) {
	fa, err := factorSelected(ds, selected)
	if err != nil {
		return nil, err
	}
	p, err := predictorFrom(fa, selected)
	if err != nil {
		return nil, err
	}
	fb, err := fitFallbacks(fa, ds, selected, budget)
	if err != nil {
		return nil, err
	}
	p.Fallbacks = fb
	return p, nil
}
