package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"voltsense/internal/faults"
	"voltsense/internal/mat"
	"voltsense/internal/ols"
)

// predictorJSON is the stable serialized form of a Predictor: everything the
// runtime needs to evaluate Eq. 20 on hardware sensor readings, plus the
// optional fault-tolerance payload. Artifacts written before the fallbacks
// section existed decode with Fallbacks nil and serve unchanged.
type predictorJSON struct {
	Format    string         `json:"format"` // "voltsense-predictor/v1"
	Selected  []int          `json:"selected_sensors"`
	Alpha     [][]float64    `json:"alpha"` // K rows of Q coefficients
	C         []float64      `json:"c"`     // K intercepts
	Fallbacks *fallbacksJSON `json:"fallbacks,omitempty"`
	Lineage   *lineageJSON   `json:"lineage,omitempty"`
}

// lineageJSON is the artifact's optional provenance section.
type lineageJSON struct {
	Version   int     `json:"version"`
	Parent    int     `json:"parent"`
	Source    string  `json:"source"`
	Samples   int     `json:"samples"`
	Prior     string  `json:"prior,omitempty"`
	LiveTE    float64 `json:"live_te,omitempty"`
	ShadowTE  float64 `json:"shadow_te,omitempty"`
	ResidMean float64 `json:"resid_mean,omitempty"`
	ResidStd  float64 `json:"resid_std,omitempty"`
}

// fallbacksJSON is the artifact's optional fault-tolerance section.
type fallbacksJSON struct {
	SensorStats []sensorStatsJSON   `json:"sensor_stats"` // length Q, reading-vector order
	Models      []fallbackModelJSON `json:"models"`
}

type sensorStatsJSON struct {
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
}

// fallbackModelJSON is one leave-k-out submodel. Excluded holds positions
// into selected_sensors (0..Q-1), strictly ascending; alpha has K rows of
// Q-len(excluded) coefficients, ordered as the surviving positions.
type fallbackModelJSON struct {
	Excluded []int       `json:"excluded"`
	Alpha    [][]float64 `json:"alpha"`
	C        []float64   `json:"c"`
	RelError float64     `json:"rel_error"`
}

// PredictorFormat is the versioned format tag of full predictor artifacts.
// Thin per-chip delta artifacts and golden-chip priors carry their own tags
// (see internal/transfer).
const PredictorFormat = "voltsense-predictor/v1"

// marshalAlpha copies a coefficient matrix into row slices.
func marshalAlpha(a *mat.Matrix) [][]float64 {
	out := make([][]float64, a.Rows())
	for i := 0; i < a.Rows(); i++ {
		row := make([]float64, a.Cols())
		copy(row, a.Row(i))
		out[i] = row
	}
	return out
}

// Save writes the predictor as one line of compact JSON, including the
// fallbacks section when the predictor carries one.
func (p *Predictor) Save(w io.Writer) error {
	pj := predictorJSON{
		Format:   PredictorFormat,
		Selected: p.Selected,
		Alpha:    marshalAlpha(p.Model.Alpha),
		C:        p.Model.C,
	}
	if p.Fallbacks != nil {
		fj := &fallbacksJSON{}
		for _, s := range p.Fallbacks.Stats {
			fj.SensorStats = append(fj.SensorStats, sensorStatsJSON{Mean: s.Mean, Std: s.Std})
		}
		for i := range p.Fallbacks.Models {
			fm := &p.Fallbacks.Models[i]
			fj.Models = append(fj.Models, fallbackModelJSON{
				Excluded: fm.Excluded,
				Alpha:    marshalAlpha(fm.Model.Alpha),
				C:        fm.Model.C,
				RelError: fm.RelError,
			})
		}
		pj.Fallbacks = fj
	}
	if p.Lineage != nil {
		pj.Lineage = &lineageJSON{
			Version:   p.Lineage.Version,
			Parent:    p.Lineage.Parent,
			Source:    p.Lineage.Source,
			Samples:   p.Lineage.Samples,
			Prior:     p.Lineage.Prior,
			LiveTE:    p.Lineage.LiveTE,
			ShadowTE:  p.Lineage.ShadowTE,
			ResidMean: p.Lineage.ResidMean,
			ResidStd:  p.Lineage.ResidStd,
		}
	}
	if err := json.NewEncoder(w).Encode(pj); err != nil {
		return fmt.Errorf("core: saving predictor: %w", err)
	}
	return nil
}

// DecodeArtifact decodes one JSON artifact from r into v and rejects
// anything but whitespace after the top-level value, so an artifact with
// appended bytes fails to load instead of loading its first value. Every
// artifact loader (predictor, prior, delta) decodes through it.
func DecodeArtifact(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the top-level JSON value")
	}
	return nil
}

// unmarshalAlpha validates and copies a serialized coefficient matrix of
// the expected shape, rejecting ragged rows and non-finite values.
func unmarshalAlpha(rows [][]float64, k, q int, what string) (*mat.Matrix, error) {
	if len(rows) != k {
		return nil, fmt.Errorf("core: %s has %d rows for %d outputs", what, len(rows), k)
	}
	alpha := mat.Zeros(k, q)
	for i, row := range rows {
		if len(row) != q {
			return nil, fmt.Errorf("core: ragged %s row %d: %d values, want %d", what, i, len(row), q)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("core: non-finite coefficient %s[%d][%d] = %v", what, i, j, v)
			}
		}
		copy(alpha.Row(i), row)
	}
	return alpha, nil
}

// checkFinite rejects non-finite intercepts.
func checkFinite(c []float64, k int, what string) error {
	if len(c) != k {
		return fmt.Errorf("core: %d %s intercepts for %d outputs", len(c), what, k)
	}
	for i, v := range c {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: non-finite %s intercept c[%d] = %v", what, i, v)
		}
	}
	return nil
}

// LoadPredictor reads a predictor saved by Save, validating its shape and
// rejecting duplicate or out-of-order sensor indices and any non-finite
// coefficient: a corrupt artifact must fail here, at load time, rather than
// double-count a reading or poison every runtime prediction with NaN/Inf.
// The optional fallbacks section, when present, is validated just as
// strictly; artifacts without one load with Fallbacks nil. Anything after
// the artifact's JSON value but whitespace is rejected.
func LoadPredictor(r io.Reader) (*Predictor, error) {
	var pj predictorJSON
	if err := DecodeArtifact(r, &pj); err != nil {
		return nil, fmt.Errorf("core: loading predictor: %w", err)
	}
	if pj.Format != PredictorFormat {
		return nil, fmt.Errorf("core: unknown predictor format %q", pj.Format)
	}
	k := len(pj.Alpha)
	if k == 0 {
		return nil, fmt.Errorf("core: predictor has no outputs")
	}
	q := len(pj.Alpha[0])
	if q == 0 || q != len(pj.Selected) {
		return nil, fmt.Errorf("core: predictor has %d coefficients per row but %d sensors", q, len(pj.Selected))
	}
	for i, s := range pj.Selected {
		if s < 0 {
			return nil, fmt.Errorf("core: negative sensor index %d", s)
		}
		if i > 0 && s == pj.Selected[i-1] {
			return nil, fmt.Errorf("core: duplicate sensor index %d", s)
		}
		if i > 0 && s < pj.Selected[i-1] {
			return nil, fmt.Errorf("core: sensor indices not ascending at position %d", i)
		}
	}
	alpha, err := unmarshalAlpha(pj.Alpha, k, q, "alpha")
	if err != nil {
		return nil, err
	}
	if err := checkFinite(pj.C, k, "model"); err != nil {
		return nil, err
	}
	sel := make([]int, len(pj.Selected))
	copy(sel, pj.Selected)
	p := &Predictor{Selected: sel, Model: &ols.Model{Alpha: alpha, C: pj.C}}
	if pj.Fallbacks != nil {
		fb, err := loadFallbacks(pj.Fallbacks, k, q)
		if err != nil {
			return nil, err
		}
		p.Fallbacks = fb
	}
	if pj.Lineage != nil {
		lin := &Lineage{
			Version:   pj.Lineage.Version,
			Parent:    pj.Lineage.Parent,
			Source:    pj.Lineage.Source,
			Samples:   pj.Lineage.Samples,
			Prior:     pj.Lineage.Prior,
			LiveTE:    pj.Lineage.LiveTE,
			ShadowTE:  pj.Lineage.ShadowTE,
			ResidMean: pj.Lineage.ResidMean,
			ResidStd:  pj.Lineage.ResidStd,
		}
		if err := lin.validate(); err != nil {
			return nil, err
		}
		p.Lineage = lin
	}
	return p, nil
}

// loadFallbacks validates the artifact's fallbacks section against the
// primary model's K outputs and Q sensors.
func loadFallbacks(fj *fallbacksJSON, k, q int) (*FallbackSet, error) {
	if len(fj.SensorStats) != q {
		return nil, fmt.Errorf("core: fallbacks carry stats for %d sensors, model has %d", len(fj.SensorStats), q)
	}
	fs := &FallbackSet{Stats: make([]faults.SensorStats, q)}
	for i, s := range fj.SensorStats {
		if math.IsNaN(s.Mean) || math.IsInf(s.Mean, 0) || math.IsNaN(s.Std) || math.IsInf(s.Std, 0) || s.Std < 0 {
			return nil, fmt.Errorf("core: bad sensor_stats[%d]: mean=%v std=%v", i, s.Mean, s.Std)
		}
		fs.Stats[i] = faults.SensorStats{Mean: s.Mean, Std: s.Std}
	}
	if len(fj.Models) == 0 {
		return nil, fmt.Errorf("core: fallbacks section has no models")
	}
	for mi, mj := range fj.Models {
		if len(mj.Excluded) == 0 || len(mj.Excluded) >= q {
			return nil, fmt.Errorf("core: fallback %d excludes %d of %d sensors", mi, len(mj.Excluded), q)
		}
		for i, e := range mj.Excluded {
			if e < 0 || e >= q {
				return nil, fmt.Errorf("core: fallback %d excluded position %d out of 0..%d", mi, e, q-1)
			}
			if i > 0 && e <= mj.Excluded[i-1] {
				return nil, fmt.Errorf("core: fallback %d excluded positions not strictly ascending", mi)
			}
		}
		kept := q - len(mj.Excluded)
		alpha, err := unmarshalAlpha(mj.Alpha, k, kept, fmt.Sprintf("fallback %d alpha", mi))
		if err != nil {
			return nil, err
		}
		if err := checkFinite(mj.C, k, fmt.Sprintf("fallback %d", mi)); err != nil {
			return nil, err
		}
		if math.IsNaN(mj.RelError) || math.IsInf(mj.RelError, 0) || mj.RelError < 0 {
			return nil, fmt.Errorf("core: fallback %d has bad rel_error %v", mi, mj.RelError)
		}
		fm := FallbackModel{
			Excluded: append([]int(nil), mj.Excluded...),
			Model:    &ols.Model{Alpha: alpha, C: mj.C},
			RelError: mj.RelError,
		}
		fm.buildKeep(q)
		fs.Models = append(fs.Models, fm)
	}
	return fs, nil
}
