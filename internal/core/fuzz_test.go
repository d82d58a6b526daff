package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzLoadPredictor hammers the predictor loader with mutated artifacts —
// v2 without and with fallbacks, indented, trailed by extra bytes, legacy
// v1, and malformed — and checks the loader's contract: it never panics,
// and anything it accepts is internally consistent enough to predict, and
// re-saves as v2 to an artifact that loads back to the same bits.
func FuzzLoadPredictor(f *testing.F) {
	// Seed 1: a real artifact without a fallbacks section.
	rng := rand.New(rand.NewSource(11))
	ds := syntheticDataset(rng, 10, 3, 300, []int{2, 5, 7}, 0.002)
	legacy, err := BuildPredictor(ds, []int{2, 5, 7})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := legacy.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	// Seed 2: a fallback-carrying artifact.
	withFB, err := BuildPredictorWithFallbacks(ds, []int{2, 5, 7}, 2)
	if err != nil {
		f.Fatal(err)
	}
	buf.Reset()
	if err := withFB.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	// Seed 3: the same artifact in the indented layout Save wrote before
	// artifacts became single-line, which must keep loading.
	var indented bytes.Buffer
	if err := json.Indent(&indented, buf.Bytes(), "", "  "); err != nil {
		f.Fatal(err)
	}
	f.Add(indented.Bytes())

	// Seed 4: a valid artifact with bytes after it, which must be rejected.
	f.Add(append(bytes.Clone(buf.Bytes()), `{"format":"garbage"} trailing junk`...))

	// Seed 5: a legacy v1 artifact with fallbacks and lineage.
	v1, err := os.ReadFile(filepath.Join("testdata", "predictor_v1.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)

	// Malformed seeds steering the fuzzer at validation edges.
	for _, s := range []string{
		`{"format":"voltsense-predictor/v2","selected_sensors":[0],"alpha":"AAAAAAAA8D8=","c":"AAAAAAAA4D8="}`,
		`{"format":"voltsense-predictor/v2","selected_sensors":[0],"alpha":"AAAAAAAA8D9=","c":"AAAAAAAA4D8"}`,
		`{"format":"voltsense-predictor/v2","selected_sensors":[0],"alpha":"AAAAAAAA\n8D8=","c":"AAAAAAAA+H8="}`,
		`{"format":"voltsense-predictor/v2","selected_sensors":[0],"alpha":[[1]],"c":"AAAAAA=="}`,
		`{"format":"voltsense-predictor/v1","selected_sensors":[0],"alpha":"AAAAAAAA8D8=","c":[0]}`,
		``,
		`{}`,
		`{"format":"voltsense-predictor/v1"}`,
		`{"format":"voltsense-predictor/v1","selected_sensors":[0,0],"alpha":[[1,1]],"c":[0]}`,
		`{"format":"voltsense-predictor/v1","selected_sensors":[0,1],"alpha":[[1,2]],"c":[0],
		  "fallbacks":{"sensor_stats":[{"mean":1,"std":0.01}],"models":[]}}`,
		`{"format":"voltsense-predictor/v1","selected_sensors":[0,1],"alpha":[[1,2]],"c":[0],
		  "fallbacks":{"sensor_stats":[{"mean":1,"std":0.01},{"mean":1,"std":0.01}],
		  "models":[{"excluded":[0,1],"alpha":[[]],"c":[0],"rel_error":0.1}]}}`,
		`{"format":"voltsense-predictor/v1","selected_sensors":[0,1],"alpha":[[1,2]],"c":[0],
		  "fallbacks":{"sensor_stats":[{"mean":1,"std":0.01},{"mean":1,"std":-3}],
		  "models":[{"excluded":[1],"alpha":[[1]],"c":[0],"rel_error":0.1}]}}`,
		`{"format":"voltsense-predictor/v1","selected_sensors":[0,1],"alpha":[[1,2]],"c":[0],
		  "fallbacks":{"sensor_stats":[{"mean":1,"std":0.01},{"mean":1,"std":0.01}],
		  "models":[{"excluded":[1],"alpha":[[1],[1]],"c":[0,0],"rel_error":0.1}]}}`,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := LoadPredictor(bytes.NewReader(data))
		if err != nil {
			return // rejection is always acceptable; panics are not
		}
		// Accepted artifacts must be exactly one JSON value, with nothing
		// after it but whitespace, and satisfy the loader's invariants.
		if !json.Valid(data) {
			t.Fatalf("accepted input that is not exactly one JSON value: %q", data)
		}
		q := p.Model.NumInputs()
		k := p.Model.NumOutputs()
		if q == 0 || k == 0 || len(p.Selected) != q {
			t.Fatalf("accepted inconsistent shape: q=%d k=%d selected=%d", q, k, len(p.Selected))
		}
		for i := 1; i < len(p.Selected); i++ {
			if p.Selected[i] <= p.Selected[i-1] {
				t.Fatalf("accepted non-ascending selection %v", p.Selected)
			}
		}
		x := make([]float64, q)
		out := p.Predict(x)
		if len(out) != k {
			t.Fatalf("predict returned %d outputs, want %d", len(out), k)
		}
		if p.Fallbacks != nil {
			if len(p.Fallbacks.Stats) != q {
				t.Fatalf("accepted %d sensor stats for %d sensors", len(p.Fallbacks.Stats), q)
			}
			for i := range p.Fallbacks.Models {
				fm := &p.Fallbacks.Models[i]
				if len(fm.Excluded) == 0 || len(fm.Excluded) >= q {
					t.Fatalf("accepted fallback excluding %v of %d sensors", fm.Excluded, q)
				}
				if got := fm.Model.NumInputs() + len(fm.Excluded); got != q {
					t.Fatalf("fallback %d inputs+excluded = %d, want %d", i, got, q)
				}
				if fb := p.Fallbacks.Lookup(fm.Excluded); fb == nil {
					t.Fatalf("fallback %d not reachable via Lookup(%v)", i, fm.Excluded)
				}
				if out := fm.PredictFull(x); len(out) != k {
					t.Fatalf("fallback %d predicted %d outputs, want %d", i, len(out), k)
				}
			}
		}
		// Anything the loader accepts re-saves as v2 and loads back to
		// the same bits.
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			t.Fatalf("accepted artifact failed to re-save: %v", err)
		}
		if !strings.HasPrefix(buf.String(), `{"format":"`+PredictorFormat+`"`) {
			t.Fatalf("re-saved artifact is not %s: %.60s", PredictorFormat, buf.String())
		}
		back, err := LoadPredictor(&buf)
		if err != nil {
			t.Fatalf("re-saved artifact rejected: %v", err)
		}
		if diff := sameBits(back, p); diff != "" {
			t.Fatalf("re-save changed the %s", diff)
		}
	})
}
