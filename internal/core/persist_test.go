package core

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"voltsense/internal/mat"
	"voltsense/internal/ols"
)

// sameBits reports the first field where a and b differ, comparing every
// coefficient, intercept, sensor stat and rel_error bit for bit (so -0 and
// 0 differ), or "" when they match.
func sameBits(a, b *Predictor) string {
	floats := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	model := func(x, y *ols.Model) bool {
		return x.Alpha.Rows() == y.Alpha.Rows() && x.Alpha.Cols() == y.Alpha.Cols() &&
			floats(x.Alpha.Data(), y.Alpha.Data()) && floats(x.C, y.C)
	}
	switch {
	case !reflect.DeepEqual(a.Selected, b.Selected):
		return "selected sensors"
	case !model(a.Model, b.Model):
		return "primary model"
	case (a.Fallbacks == nil) != (b.Fallbacks == nil):
		return "fallbacks presence"
	case (a.Lineage == nil) != (b.Lineage == nil) || a.Lineage != nil && *a.Lineage != *b.Lineage:
		return "lineage"
	case a.Fallbacks == nil:
		return ""
	}
	fa, fb := a.Fallbacks, b.Fallbacks
	if len(fa.Stats) != len(fb.Stats) || len(fa.Models) != len(fb.Models) {
		return "fallbacks shape"
	}
	for i := range fa.Stats {
		if !floats([]float64{fa.Stats[i].Mean, fa.Stats[i].Std}, []float64{fb.Stats[i].Mean, fb.Stats[i].Std}) {
			return fmt.Sprintf("sensor stat %d", i)
		}
	}
	for i := range fa.Models {
		ma, mb := &fa.Models[i], &fb.Models[i]
		if !reflect.DeepEqual(ma.Excluded, mb.Excluded) || !model(ma.Model, mb.Model) ||
			math.Float64bits(ma.RelError) != math.Float64bits(mb.RelError) {
			return fmt.Sprintf("fallback %d", i)
		}
	}
	return ""
}

// saveLoad saves p and loads the result back.
func saveLoad(t *testing.T, p *Predictor) (*Predictor, string) {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	art := buf.String()
	got, err := LoadPredictor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got, art
}

// A v2 artifact stores every coefficient's bits, so a save/load round trip
// is lossless: coefficients, intercepts, sensor stats, rel_error and
// lineage all come back bit for bit.
func TestPredictorSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := syntheticDataset(rng, 10, 4, 300, []int{2, 7}, 0.002)
	pl, err := PlaceSensors(ds, Config{Lambda: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := BuildPredictorWithFallbacks(ds, pl.Selected, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Fallbacks == nil {
		t.Fatal("fixture has no fallbacks")
	}
	pred.Model.C[0] = math.Copysign(0, -1) // -0 must survive as -0
	pred.Lineage = &Lineage{Version: 1, Source: LineageSourceTrain, Samples: 300, ResidStd: 0.1}
	got, _ := saveLoad(t, pred)
	if diff := sameBits(got, pred); diff != "" {
		t.Fatalf("round trip changed the %s", diff)
	}
}

// A committed v1 artifact with fallbacks and lineage loads to the decimal
// values it carries, and re-saving it as v2 loses no bit.
func TestLegacyV1ArtifactResavesAsV2(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "predictor_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := LoadPredictor(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if v1.Fallbacks == nil || v1.Lineage == nil {
		t.Fatal("fixture lost its fallbacks or lineage")
	}
	var plain struct {
		Alpha     [][]float64 `json:"alpha"`
		C         []float64   `json:"c"`
		Fallbacks struct {
			Models []struct {
				Alpha [][]float64 `json:"alpha"`
			} `json:"models"`
		} `json:"fallbacks"`
	}
	if err := json.Unmarshal(data, &plain); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mat.FromRows(plain.Alpha), v1.Model.Alpha) || !reflect.DeepEqual(plain.C, v1.Model.C) {
		t.Fatal("v1 primary model differs from the artifact's decimal values")
	}
	for i, m := range plain.Fallbacks.Models {
		if !reflect.DeepEqual(mat.FromRows(m.Alpha), v1.Fallbacks.Models[i].Model.Alpha) {
			t.Fatalf("v1 fallback %d alpha differs from the artifact's decimal values", i)
		}
	}
	v2, art := saveLoad(t, v1)
	if !strings.HasPrefix(art, `{"format":"`+PredictorFormat+`"`) {
		t.Fatalf("re-saved artifact does not lead with the v2 tag: %.60s", art)
	}
	if diff := sameBits(v2, v1); diff != "" {
		t.Fatalf("v1 → v2 changed the %s", diff)
	}
}

// block encodes values the way the v2 format specifies, independently of
// the package's encoder.
func block(vals ...float64) string {
	raw := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	return base64.StdEncoding.EncodeToString(raw)
}

func TestLoadPredictorV2Blocks(t *testing.T) {
	art := func(alpha, c string) string {
		return `{"format":"voltsense-predictor/v2","selected_sensors":[0,1],"alpha":` + alpha + `,"c":` + c + `}`
	}
	ok, one := `"`+block(1, 2)+`"`, `"`+block(0.5)+`"`
	fallbacks := func(alpha string) string {
		return strings.TrimSuffix(art(ok, one), "}") + `,"fallbacks":{"sensor_stats":[{"mean":1,"std":0.1},{"mean":1,"std":0.1}],` +
			`"models":[{"excluded":[1],"alpha":` + alpha + `,"c":` + one + `,"rel_error":0.1}]}}`
	}
	valid := map[string]string{
		"plain":     art(ok, one),
		"fallbacks": fallbacks(one),
		// encoding/json keeps the last of duplicate keys; so does a block.
		"duplicate key": art(`[[9,9]],"alpha":`+ok, one),
	}
	for name, in := range valid {
		p, err := LoadPredictor(strings.NewReader(in))
		if err != nil {
			t.Fatalf("%s: valid v2 artifact rejected: %v", name, err)
		}
		if got := p.Predict([]float64{1, 1}); got[0] != 3.5 {
			t.Fatalf("%s: predicted %v, want 3.5", name, got[0])
		}
	}
	cases := map[string]string{
		"bad base64 byte":              art(`"`+block(1, 2)[:5]+`*`+block(1, 2)[6:]+`"`, one),
		"non-canonical padding":        art(ok, `"AAAAAAAA4D9="`), // block(0.5) is AAAAAAAA4D8=
		"missing padding":              art(ok, `"AAAAAAAA4D8"`),
		"escaped newline":              art(`"`+block(1, 2)[:8]+`\n`+block(1, 2)[8:]+`"`, one),
		"escaped letter":               art(`"\u0041`+block(1, 2)[1:]+`"`, one), // \u0041 is the block's leading A
		"not whole float64s":           art(ok, `"AAAAAAAA4D8AAAAA"`),           // 12 bytes: block(0.5) + 4
		"too few values":               art(`"`+block(1)+`"`, one),
		"too many values":              art(`"`+block(1, 2, 3)+`"`, one),
		"nan alpha":                    art(`"`+block(1, math.NaN())+`"`, one),
		"+inf intercept":               art(ok, `"`+block(math.Inf(1))+`"`),
		"-inf intercept":               art(ok, `"`+block(math.Inf(-1))+`"`),
		"nan fallback alpha":           fallbacks(`"` + block(math.NaN()) + `"`),
		"short fallback alpha":         fallbacks(`""`),
		"v2 tag, array alpha":          art(`[[1,2]]`, one),
		"v2 tag, array c":              art(ok, `[0.5]`),
		"v2 tag, array fallback alpha": fallbacks(`[[1]]`),
		"v1 tag, block alpha":          strings.Replace(art(ok, `[0.5]`), "/v2", "/v1", 1),
		"v1 tag, block c":              strings.Replace(art(`[[1,2]]`, one), "/v2", "/v1", 1),
	}
	for name, in := range cases {
		if _, err := LoadPredictor(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestLoadPredictorRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":            "hello",
		"wrong format":        `{"format":"other/v9","selected_sensors":[0],"alpha":[[1]],"c":[0]}`,
		"no outputs":          `{"format":"voltsense-predictor/v1","selected_sensors":[],"alpha":[],"c":[]}`,
		"shape":               `{"format":"voltsense-predictor/v1","selected_sensors":[0,1],"alpha":[[1]],"c":[0]}`,
		"ragged":              `{"format":"voltsense-predictor/v1","selected_sensors":[0,1],"alpha":[[1,2],[3]],"c":[0,0]}`,
		"intercepts":          `{"format":"voltsense-predictor/v1","selected_sensors":[0],"alpha":[[1]],"c":[0,1]}`,
		"row width":           `{"format":"voltsense-predictor/v1","selected_sensors":[0,1],"alpha":[[1],[2]],"c":[0]}`,
		"ragged, right count": `{"format":"voltsense-predictor/v1","selected_sensors":[0,1],"alpha":[[1,2,3],[4]],"c":[0,0]}`,
		"nested intercepts":   `{"format":"voltsense-predictor/v1","selected_sensors":[0],"alpha":[[1]],"c":[[0]]}`,

		// Corrupt numerics must fail at load time, not poison predictions.
		"nan alpha":      `{"format":"voltsense-predictor/v1","selected_sensors":[0],"alpha":[[NaN]],"c":[0]}`,
		"inf alpha":      `{"format":"voltsense-predictor/v1","selected_sensors":[0],"alpha":[[1e999]],"c":[0]}`,
		"inf intercept":  `{"format":"voltsense-predictor/v1","selected_sensors":[0],"alpha":[[1]],"c":[-1e999]}`,
		"nan intercept":  `{"format":"voltsense-predictor/v1","selected_sensors":[0],"alpha":[[1]],"c":[NaN]}`,
		"negative index": `{"format":"voltsense-predictor/v1","selected_sensors":[-1,3],"alpha":[[1,1]],"c":[0]}`,
		"unsorted index": `{"format":"voltsense-predictor/v1","selected_sensors":[3,1],"alpha":[[1,1]],"c":[0]}`,
		"repeated index": `{"format":"voltsense-predictor/v1","selected_sensors":[3,3],"alpha":[[1,1]],"c":[0]}`,
	}
	for name, in := range cases {
		if _, err := LoadPredictor(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestSavedFormIsVersioned(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds := syntheticDataset(rng, 6, 2, 200, []int{1}, 0.002)
	pred, err := BuildPredictor(ds, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pred.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), `{"format":"voltsense-predictor/v2",`) {
		t.Fatalf("saved predictor does not lead with the v2 format tag: %.60s", buf.String())
	}
}

func TestLineageSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := syntheticDataset(rng, 6, 2, 200, []int{1, 4}, 0.002)
	pred, err := BuildPredictor(ds, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	mean, std := pred.FitResidualStats(ds)
	pred.Lineage = &Lineage{
		Version: 3, Parent: 2, Source: LineageSourceOnline, Samples: 512,
		LiveTE: 0.4, ShadowTE: 0.01, ResidMean: mean, ResidStd: std,
	}
	var buf bytes.Buffer
	if err := pred.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPredictor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Lineage == nil {
		t.Fatal("lineage section lost in round-trip")
	}
	if *got.Lineage != *pred.Lineage {
		t.Fatalf("lineage = %+v, want %+v", *got.Lineage, *pred.Lineage)
	}
}

func TestLineageOmittedForLegacyArtifacts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ds := syntheticDataset(rng, 6, 2, 200, []int{1}, 0.002)
	pred, err := BuildPredictor(ds, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pred.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"lineage"`) {
		t.Fatal("lineage-free predictor serialized a lineage section")
	}
	got, err := LoadPredictor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Lineage != nil {
		t.Fatalf("legacy artifact grew a lineage: %+v", got.Lineage)
	}
}

func TestLoadPredictorRejectsBadLineage(t *testing.T) {
	base := `{"format":"voltsense-predictor/v1","selected_sensors":[0],"alpha":[[1]],"c":[0],"lineage":%s}`
	cases := map[string]string{
		"zero version":     `{"version":0,"source":"train"}`,
		"parent ahead":     `{"version":2,"parent":2,"source":"online"}`,
		"unknown source":   `{"version":1,"source":"wizard"}`,
		"negative samples": `{"version":1,"source":"train","samples":-4}`,
		"negative te":      `{"version":1,"source":"online","live_te":-0.1}`,
		"inf resid":        `{"version":1,"source":"online","resid_mean":1e999}`,
	}
	for name, lin := range cases {
		in := strings.NewReader(strings.Replace(base, "%s", lin, 1))
		if _, err := LoadPredictor(in); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// Artifacts are one line of compact JSON; a loader must reject anything
// after the artifact but whitespace, and accept the indented legacy layout.
func TestLoadPredictorRejectsTrailingBytes(t *testing.T) {
	_, pred := fallbackFixture(t, 1)
	var buf bytes.Buffer
	if err := pred.Save(&buf); err != nil {
		t.Fatal(err)
	}
	art := buf.String()
	if strings.Count(art, "\n") != 1 || !strings.HasSuffix(art, "}\n") {
		t.Fatalf("saved artifact is not one line of JSON:\n%s", art)
	}
	for _, tail := range []string{`{"format":"garbage"} trailing junk`, `x`, `}`, `[]`, `null`} {
		if _, err := LoadPredictor(strings.NewReader(art + tail)); err == nil {
			t.Errorf("artifact followed by %q accepted", tail)
		}
	}
	if _, err := LoadPredictor(strings.NewReader(art + " \n\t\r\n")); err != nil {
		t.Errorf("artifact followed by whitespace rejected: %v", err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, buf.Bytes(), "", "  "); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPredictor(&indented)
	if err != nil {
		t.Fatalf("indented artifact rejected: %v", err)
	}
	if !reflect.DeepEqual(got.Model, pred.Model) {
		t.Fatal("indented artifact loaded a different model")
	}
}
