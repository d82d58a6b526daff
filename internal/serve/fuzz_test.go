package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"voltsense/internal/core"
	"voltsense/internal/mat"
	"voltsense/internal/monitor"
	"voltsense/internal/transfer"
)

// FuzzLoadArtifact drives the fleet store's artifact path — the format sniff
// on the leading tokens, then one full decode by the loader the tag names —
// with mutated predictor and delta artifacts. It must never panic, and it
// must accept exactly what the standalone loaders accept: core.LoadPredictor,
// or transfer.LoadDelta resolved against the pinned prior, with the same
// result. The one allowed difference: an artifact whose leading format tag
// disagrees with a later duplicate of the key may be rejected.
func FuzzLoadArtifact(f *testing.F) {
	prior := testPrior()
	s, err := New(Config{
		StoreDir: f.TempDir(),
		Prior:    prior,
		Monitor:  monitor.Config{Vth: 0.90, ClearMargin: 0.02, ClearCycles: 2},
	})
	if err != nil {
		f.Fatal(err)
	}

	var pred, withFB, indented bytes.Buffer
	if err := testPredictor().Save(&pred); err != nil {
		f.Fatal(err)
	}
	if err := faultPredictor(f).Save(&withFB); err != nil {
		f.Fatal(err)
	}
	if err := json.Indent(&indented, withFB.Bytes(), "", "  "); err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	x, y := mat.Zeros(2, 12), mat.Zeros(3, 12)
	for i := 0; i < 12; i++ {
		r0, r1 := 0.85+0.15*rng.Float64(), 0.85+0.15*rng.Float64()
		x.Set(0, i, r0)
		x.Set(1, i, r1)
		for j, v := range trueChip(r0, r1) {
			y.Set(j, i, v)
		}
	}
	al, err := transfer.AlignChip(prior, x, y, transfer.AlignConfig{})
	if err != nil {
		f.Fatal(err)
	}
	var delta bytes.Buffer
	if err := transfer.SaveDelta(&delta, al.Delta, al.Predictor.Lineage); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		pred.String(),
		withFB.String(),
		indented.String(),
		legacyArtifact, // v1, indented
		faultArtifact,  // v1 with fallbacks
		delta.String(),
		pred.String() + `{"format":"garbage"} trailing junk`,
		withFB.String() + `{"format":"garbage"} trailing junk`,
		delta.String() + `{"format":"garbage"} trailing junk`,
		`{"selected_sensors":[3,7],"alpha":[[1,0],[0,1],[0.5,0.5]],"c":[0,0,0],"format":"voltsense-predictor/v1"}`,
		`{"selected_sensors":[3,7],"alpha":"AAAAAAAA8D8AAAAAAAAAAA==","c":"AAAAAAAAAAA=","format":"voltsense-predictor/v2"}`,
		`{"format":"voltsense-predictor/v2","selected_sensors":[3,7],"alpha":[[1,0]],"c":"AAAAAAAAAAA="}`,
		`{"rows":[],"prior_fingerprint":"` + prior.Fingerprint() + `","format":"voltsense-delta/v1"}`,
		`{"FORMAT":"voltsense-delta/v1","prior_fingerprint":"` + prior.Fingerprint() + `","rows":[]}`,
		`{"format":"voltsense-delta/v1","prior_fingerprint":"` + prior.Fingerprint() + `","rows":[],"format":"voltsense-predictor/v1"}`,
		`{"format":7}`,
		`{"format":"voltsense-delta/v1"}`,
		`{"format":"voltsense-delta/v1","prior_fingerprint":"0000000000000000","rows":[]}`,
		`[]`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := s.loadArtifact(data)

		var want *core.Predictor
		if p, perr := core.LoadPredictor(bytes.NewReader(data)); perr == nil {
			want = p
		} else if d, lin, derr := transfer.LoadDelta(bytes.NewReader(data)); derr == nil {
			if p, rerr := d.Resolve(prior, lin); rerr == nil {
				want = p
			}
		}
		switch {
		case err == nil && want == nil:
			t.Fatalf("loadArtifact accepted an artifact both loaders reject: %q", data)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("loadArtifact result differs from the loader's: %+v vs %+v", got, want)
		case err != nil && want != nil && !conflictingFormat(data):
			t.Fatalf("loadArtifact rejected an artifact a loader accepts: %v", err)
		}
	})
}

// conflictingFormat reports whether the artifact carries more than one
// top-level key a full decode matches to "format" (encoding/json matches
// keys case-insensitively and keeps the last), the one case where the
// leading tag may disagree with what the loader sees.
func conflictingFormat(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	depth, keys := 0, 0
	expectKey := false
	for {
		tok, err := dec.Token()
		if err != nil {
			return keys > 1
		}
		switch tok {
		case json.Delim('{'), json.Delim('['):
			depth++
			expectKey = depth == 1 && tok == json.Delim('{')
			continue
		case json.Delim('}'), json.Delim(']'):
			depth--
			expectKey = depth == 1
			continue
		}
		if depth != 1 {
			continue
		}
		if key, ok := tok.(string); ok && expectKey && strings.EqualFold(key, "format") {
			keys++
		}
		expectKey = !expectKey
	}
}
