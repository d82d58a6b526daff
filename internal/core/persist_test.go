package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestPredictorSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := syntheticDataset(rng, 10, 4, 300, []int{2, 7}, 0.002)
	pl, err := PlaceSensors(ds, Config{Lambda: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := BuildPredictor(ds, pl.Selected)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pred.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPredictor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Selected) != len(pred.Selected) {
		t.Fatalf("selected %v, want %v", got.Selected, pred.Selected)
	}
	// Predictions must be bit-identical... JSON float round-trips exactly
	// for the default encoder? It prints shortest repr which parses back
	// exactly, so yes.
	x := make([]float64, len(pred.Selected))
	for i := range x {
		x[i] = 0.9 + 0.01*float64(i)
	}
	a, b := pred.Predict(x), got.Predict(x)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-15 {
			t.Fatalf("prediction drifted after round-trip: %v vs %v", a[i], b[i])
		}
	}
}

func TestLoadPredictorRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":     "hello",
		"wrong format": `{"format":"other/v9","selected_sensors":[0],"alpha":[[1]],"c":[0]}`,
		"no outputs":   `{"format":"voltsense-predictor/v1","selected_sensors":[],"alpha":[],"c":[]}`,
		"shape":        `{"format":"voltsense-predictor/v1","selected_sensors":[0,1],"alpha":[[1]],"c":[0]}`,
		"ragged":       `{"format":"voltsense-predictor/v1","selected_sensors":[0,1],"alpha":[[1,2],[3]],"c":[0,0]}`,
		"intercepts":   `{"format":"voltsense-predictor/v1","selected_sensors":[0],"alpha":[[1]],"c":[0,1]}`,

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
	if !strings.Contains(buf.String(), `"voltsense-predictor/v1"`) {
		t.Fatal("saved predictor missing format tag")
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
