package core

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
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
	Format    string         `json:"format"` // PredictorFormat, or PredictorFormatV1 on load
	Selected  []int          `json:"selected_sensors"`
	Alpha     coefBlock      `json:"alpha"` // K rows of Q coefficients
	C         coefBlock      `json:"c"`     // K intercepts
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
	Excluded []int     `json:"excluded"`
	Alpha    coefBlock `json:"alpha"`
	C        coefBlock `json:"c"`
	RelError float64   `json:"rel_error"`
}

// PredictorFormat is the versioned format tag Save writes on full predictor
// artifacts. Thin per-chip delta artifacts and golden-chip priors carry
// their own tags (see internal/transfer).
const PredictorFormat = "voltsense-predictor/v2"

// PredictorFormatV1 is the tag of legacy predictor artifacts, whose
// coefficients are decimal JSON. LoadPredictor still reads them; nothing
// writes them.
const PredictorFormatV1 = "voltsense-predictor/v1"

// blockEncoding decodes coefficient blocks: standard padded base64 that
// rejects non-zero padding bits.
var blockEncoding = base64.StdEncoding.Strict()

// coefBlock is one coefficient array of an artifact: a model's alpha (K rows
// of q, row-major) or its K intercepts c. Save writes it as a binary block,
// one JSON string of base64 over the values as little-endian IEEE-754
// float64s. A v1 artifact carries the same values as decimal JSON: nested
// rows for alpha, a flat array for c.
type coefBlock struct {
	vals    []float64
	decimal bool // read from v1 decimal JSON rather than a binary block
	width   int  // decimal only: the row length, 0 if flat, -1 if ragged
}

// MarshalText encodes the values as a binary block.
func (b coefBlock) MarshalText() ([]byte, error) {
	raw := make([]byte, 8*len(b.vals))
	for i, v := range b.vals {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	out := make([]byte, base64.StdEncoding.EncodedLen(len(raw)))
	base64.StdEncoding.Encode(out, raw)
	return out, nil
}

// UnmarshalJSON reads either representation; which one the artifact's
// format tag allows is checked by values, once the tag is known.
func (b *coefBlock) UnmarshalJSON(raw []byte) error {
	*b = coefBlock{} // a duplicate key decodes afresh
	if raw[0] == '"' {
		return b.decodeBlock(raw[1 : len(raw)-1])
	}
	b.decimal = true
	// A v1 alpha nests its rows; a v1 c is one flat array.
	if rest := bytes.TrimLeft(raw[1:], " \t\r\n"); raw[0] != '[' || len(rest) == 0 || rest[0] != '[' {
		return json.Unmarshal(raw, &b.vals)
	}
	var rows [][]float64
	if err := json.Unmarshal(raw, &rows); err != nil {
		return err
	}
	b.width = len(rows[0])
	b.vals = make([]float64, 0, len(rows)*b.width)
	for _, row := range rows {
		if len(row) != len(rows[0]) {
			b.width = -1
		}
		b.vals = append(b.vals, row...)
	}
	return nil
}

// decodeBlock decodes the contents of a binary block's JSON string as the
// artifact holds them. A JSON escape is therefore not unescaped but
// rejected, its backslash not being base64, and a JSON string cannot hold
// the raw line breaks the base64 decoder would skip.
func (b *coefBlock) decodeBlock(s []byte) error {
	raw := make([]byte, blockEncoding.DecodedLen(len(s)))
	n, err := blockEncoding.Decode(raw, s)
	if err != nil {
		return fmt.Errorf("coefficient block: %w", err)
	}
	if n%8 != 0 {
		return fmt.Errorf("coefficient block of %d bytes is not a whole number of float64s", n)
	}
	b.vals = make([]float64, n/8)
	for i := range b.vals {
		b.vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return nil
}

// values returns the block's n coefficients after checking that it is in
// the representation format names (decimal rows of width values for a v1
// alpha, a flat decimal array for width 0) and that every value is finite.
func (b *coefBlock) values(format string, n, width int, what string) ([]float64, error) {
	if len(b.vals) != n {
		return nil, fmt.Errorf("core: %s has %d values, want %d", what, len(b.vals), n)
	}
	if b.decimal != (format == PredictorFormatV1) {
		if b.decimal {
			return nil, fmt.Errorf("core: %s is decimal JSON in a %s artifact", what, format)
		}
		return nil, fmt.Errorf("core: %s is a binary block in a %s artifact", what, format)
	}
	if b.decimal && b.width != width {
		if b.width < 0 {
			return nil, fmt.Errorf("core: ragged %s rows", what)
		}
		return nil, fmt.Errorf("core: %s rows hold %d values, want %d", what, b.width, width)
	}
	for i, v := range b.vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("core: non-finite %s[%d] = %v", what, i, v)
		}
	}
	return b.vals, nil
}

// Save writes the predictor as one line of compact PredictorFormat JSON,
// its coefficients as binary blocks, including the fallbacks section when
// the predictor carries one.
func (p *Predictor) Save(w io.Writer) error {
	pj := predictorJSON{
		Format:   PredictorFormat,
		Selected: p.Selected,
		Alpha:    coefBlock{vals: p.Model.Alpha.Data()},
		C:        coefBlock{vals: p.Model.C},
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
				Alpha:    coefBlock{vals: fm.Model.Alpha.Data()},
				C:        coefBlock{vals: fm.Model.C},
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

// LoadPredictor reads a predictor saved by Save, or a legacy
// PredictorFormatV1 artifact, validating its shape and rejecting duplicate
// or out-of-order sensor indices and any non-finite coefficient: a corrupt
// artifact must fail here, at load time, rather than double-count a reading
// or poison every runtime prediction with NaN/Inf. Both formats take the
// same checks, and every coefficient array must be in the representation
// its format tag names. The optional fallbacks section, when present, is
// validated just as strictly; artifacts without one load with Fallbacks
// nil. Anything after the artifact's JSON value but whitespace is rejected.
func LoadPredictor(r io.Reader) (*Predictor, error) {
	var pj predictorJSON
	if err := DecodeArtifact(r, &pj); err != nil {
		return nil, fmt.Errorf("core: loading predictor: %w", err)
	}
	if pj.Format != PredictorFormat && pj.Format != PredictorFormatV1 {
		return nil, fmt.Errorf("core: unknown predictor format %q", pj.Format)
	}
	k, q := len(pj.C.vals), len(pj.Selected)
	if k == 0 {
		return nil, fmt.Errorf("core: predictor has no outputs")
	}
	if q == 0 {
		return nil, fmt.Errorf("core: predictor has no sensors")
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
	alpha, err := pj.Alpha.values(pj.Format, k*q, q, "alpha")
	if err != nil {
		return nil, err
	}
	c, err := pj.C.values(pj.Format, k, 0, "c")
	if err != nil {
		return nil, err
	}
	p := &Predictor{Selected: pj.Selected, Model: &ols.Model{Alpha: mat.New(k, q, alpha), C: c}}
	if pj.Fallbacks != nil {
		fb, err := loadFallbacks(pj.Fallbacks, pj.Format, k, q)
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
func loadFallbacks(fj *fallbacksJSON, format string, k, q int) (*FallbackSet, error) {
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
		alpha, err := mj.Alpha.values(format, k*kept, kept, fmt.Sprintf("fallback %d alpha", mi))
		if err != nil {
			return nil, err
		}
		c, err := mj.C.values(format, k, 0, fmt.Sprintf("fallback %d c", mi))
		if err != nil {
			return nil, err
		}
		if math.IsNaN(mj.RelError) || math.IsInf(mj.RelError, 0) || mj.RelError < 0 {
			return nil, fmt.Errorf("core: fallback %d has bad rel_error %v", mi, mj.RelError)
		}
		fm := FallbackModel{
			Excluded: append([]int(nil), mj.Excluded...),
			Model:    &ols.Model{Alpha: mat.New(k, kept, alpha), C: c},
			RelError: mj.RelError,
		}
		fm.buildKeep(q)
		fs.Models = append(fs.Models, fm)
	}
	return fs, nil
}
