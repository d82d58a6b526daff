package transfer

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"voltsense/internal/core"
	"voltsense/internal/mat"
)

// Versioned artifact format tags.
const (
	// PriorFormat tags a serialized SharedPrior.
	PriorFormat = "voltsense-prior/v1"
	// DeltaFormat tags a thin per-chip artifact: a sparse delta resolved
	// against a pinned prior at load time instead of full coefficients.
	DeltaFormat = "voltsense-delta/v1"
)

// priorJSON is the stable serialized form of a SharedPrior.
type priorJSON struct {
	Format   string      `json:"format"` // "voltsense-prior/v1"
	Selected []int       `json:"selected_sensors"`
	Mean     [][]float64 `json:"mean"`      // K rows of Q+1: alpha..., intercept
	Prec     []float64   `json:"precision"` // Q+1 diagonal prior precision
	NoiseVar float64     `json:"noise_var"`
	Goldens  int         `json:"goldens"`
}

// Save writes the prior as one line of compact JSON.
func (p *SharedPrior) Save(w io.Writer) error {
	if err := p.validate(); err != nil {
		return err
	}
	pj := priorJSON{
		Format:   PriorFormat,
		Selected: p.Selected,
		Prec:     p.Prec,
		NoiseVar: p.NoiseVar,
		Goldens:  p.Goldens,
	}
	for i := 0; i < p.Mean.Rows(); i++ {
		row := make([]float64, p.Mean.Cols())
		copy(row, p.Mean.Row(i))
		pj.Mean = append(pj.Mean, row)
	}
	if err := json.NewEncoder(w).Encode(pj); err != nil {
		return fmt.Errorf("transfer: saving prior: %w", err)
	}
	return nil
}

// LoadPrior reads a prior saved by Save, with the same load-time strictness
// as core.LoadPredictor: a corrupt prior must fail here rather than poison
// every alignment derived from it. Trailing bytes are rejected too.
func LoadPrior(r io.Reader) (*SharedPrior, error) {
	var pj priorJSON
	if err := core.DecodeArtifact(r, &pj); err != nil {
		return nil, fmt.Errorf("transfer: loading prior: %w", err)
	}
	if pj.Format != PriorFormat {
		return nil, fmt.Errorf("transfer: unknown prior format %q", pj.Format)
	}
	k := len(pj.Mean)
	if k == 0 {
		return nil, fmt.Errorf("transfer: prior has no outputs")
	}
	d := len(pj.Selected) + 1
	mean := mat.Zeros(k, d)
	for i, row := range pj.Mean {
		if len(row) != d {
			return nil, fmt.Errorf("transfer: ragged prior mean row %d: %d values, want %d", i, len(row), d)
		}
		copy(mean.Row(i), row)
	}
	p := &SharedPrior{
		Selected: append([]int(nil), pj.Selected...),
		Mean:     mean,
		Prec:     append([]float64(nil), pj.Prec...),
		NoiseVar: pj.NoiseVar,
		Goldens:  pj.Goldens,
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Fingerprint returns a short content hash over the prior's selection,
// coefficients, precision and noise variance. Delta artifacts pin it so a
// delta can never be resolved against a different prior than the one it was
// aligned to.
func (p *SharedPrior) Fingerprint() string {
	h := fnv.New64a()
	var buf [8]byte
	wi := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wf := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	wi(len(p.Selected))
	for _, s := range p.Selected {
		wi(s)
	}
	wi(p.Mean.Rows())
	for _, v := range p.Mean.Data() {
		wf(v)
	}
	for _, v := range p.Prec {
		wf(v)
	}
	wf(p.NoiseVar)
	wi(p.Goldens)
	return fmt.Sprintf("%016x", h.Sum64())
}

// deltaJSON is the stable serialized form of a per-chip delta artifact.
type deltaJSON struct {
	Format           string            `json:"format"` // "voltsense-delta/v1"
	PriorFingerprint string            `json:"prior_fingerprint"`
	Rows             []deltaRowJSON    `json:"rows"`
	Lineage          *deltaLineageJSON `json:"lineage,omitempty"`
}

type deltaRowJSON struct {
	Node int       `json:"node"`
	Cols []int     `json:"cols"`
	Vals []float64 `json:"vals"`
}

// deltaLineageJSON mirrors the predictor artifact's lineage section.
type deltaLineageJSON struct {
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

// SaveDelta writes a per-chip delta artifact as one line of compact JSON:
// the sparse coefficient update plus the aligned predictor's lineage.
func SaveDelta(w io.Writer, d *Delta, lin *core.Lineage) error {
	dj := deltaJSON{
		Format:           DeltaFormat,
		PriorFingerprint: d.PriorFingerprint,
	}
	for i := range d.Rows {
		r := &d.Rows[i]
		dj.Rows = append(dj.Rows, deltaRowJSON{Node: r.Node, Cols: r.Cols, Vals: r.Vals})
	}
	if lin != nil {
		dj.Lineage = &deltaLineageJSON{
			Version:   lin.Version,
			Parent:    lin.Parent,
			Source:    lin.Source,
			Samples:   lin.Samples,
			Prior:     lin.Prior,
			LiveTE:    lin.LiveTE,
			ShadowTE:  lin.ShadowTE,
			ResidMean: lin.ResidMean,
			ResidStd:  lin.ResidStd,
		}
	}
	if err := json.NewEncoder(w).Encode(dj); err != nil {
		return fmt.Errorf("transfer: saving delta: %w", err)
	}
	return nil
}

// LoadDelta reads a delta artifact saved by SaveDelta. Structural validation
// happens here; bounds against the prior's shape (and the fingerprint match)
// happen in Delta.Resolve, which is where a prior first enters the picture.
// Anything after the artifact's JSON value but whitespace is rejected.
func LoadDelta(r io.Reader) (*Delta, *core.Lineage, error) {
	var dj deltaJSON
	if err := core.DecodeArtifact(r, &dj); err != nil {
		return nil, nil, fmt.Errorf("transfer: loading delta: %w", err)
	}
	if dj.Format != DeltaFormat {
		return nil, nil, fmt.Errorf("transfer: unknown delta format %q", dj.Format)
	}
	if dj.PriorFingerprint == "" {
		return nil, nil, fmt.Errorf("transfer: delta artifact carries no prior fingerprint")
	}
	d := &Delta{PriorFingerprint: dj.PriorFingerprint}
	for i, r := range dj.Rows {
		if len(r.Cols) != len(r.Vals) || len(r.Cols) == 0 {
			return nil, nil, fmt.Errorf("transfer: delta row %d has %d columns but %d values", i, len(r.Cols), len(r.Vals))
		}
		d.Rows = append(d.Rows, DeltaRow{
			Node: r.Node,
			Cols: append([]int(nil), r.Cols...),
			Vals: append([]float64(nil), r.Vals...),
		})
	}
	var lin *core.Lineage
	if dj.Lineage != nil {
		lin = &core.Lineage{
			Version:   dj.Lineage.Version,
			Parent:    dj.Lineage.Parent,
			Source:    dj.Lineage.Source,
			Samples:   dj.Lineage.Samples,
			Prior:     dj.Lineage.Prior,
			LiveTE:    dj.Lineage.LiveTE,
			ShadowTE:  dj.Lineage.ShadowTE,
			ResidMean: dj.Lineage.ResidMean,
			ResidStd:  dj.Lineage.ResidStd,
		}
		if lin.Version < 1 || lin.Parent < 0 || lin.Parent >= lin.Version || lin.Samples < 0 {
			return nil, nil, fmt.Errorf("transfer: delta lineage version %d / parent %d / samples %d invalid",
				lin.Version, lin.Parent, lin.Samples)
		}
		if lin.Source != core.LineageSourcePrior {
			return nil, nil, fmt.Errorf("transfer: delta lineage source %q, want %q", lin.Source, core.LineageSourcePrior)
		}
	}
	return d, lin, nil
}
