package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"voltsense/internal/core"
	"voltsense/internal/faults"
	"voltsense/internal/mat"
	"voltsense/internal/monitor"
	"voltsense/internal/ols"
)

// benchPredictor builds a paper-scale model: 8 sensors predicting 32 blocks.
func benchPredictor(q, k int) *core.Predictor {
	alpha := mat.Zeros(k, q)
	sel := make([]int, q)
	c := make([]float64, k)
	for i := 0; i < k; i++ {
		c[i] = 0.05
		for j := 0; j < q; j++ {
			alpha.Set(i, j, 1/float64(q)+0.001*float64(i-j))
		}
	}
	for j := range sel {
		sel[j] = 2 * j
	}
	return &core.Predictor{Selected: sel, Model: &ols.Model{Alpha: alpha, C: c}}
}

func benchmarkPredict(b *testing.B, batch int) {
	const q, k = 8, 32
	s, err := New(Config{
		Loader:  func() (*core.Predictor, error) { return benchPredictor(q, k), nil },
		Monitor: monitor.Config{Vth: 0.95},
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	readings := make([][]reading, batch)
	for i := range readings {
		row := make([]reading, q)
		for j := range row {
			row[j] = reading(0.9 + 0.001*float64(i+j))
		}
		readings[i] = row
	}
	body, err := json.Marshal(predictRequest{Readings: readings})
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	b.StopTimer()
	// Vectors per second is the serving throughput figure of merit.
	b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "vectors/s")
}

func BenchmarkPredictBatch1(b *testing.B)  { benchmarkPredict(b, 1) }
func BenchmarkPredictBatch64(b *testing.B) { benchmarkPredict(b, 64) }

// BenchmarkStreamCycle measures one monitored NDJSON cycle end to end.
func BenchmarkStreamCycle(b *testing.B) {
	const q, k = 8, 32
	s, err := New(Config{
		Loader:  func() (*core.Predictor, error) { return benchPredictor(q, k), nil },
		Monitor: monitor.Config{Vth: 0.95},
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	line := `{"readings":[0.99,0.99,0.99,0.99,0.99,0.99,0.99,0.99]}` + "\n"
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.WriteString(line)
	}
	b.ReportAllocs()
	b.ResetTimer()
	resp, err := http.Post(ts.URL+"/v1/stream", "application/x-ndjson", &buf)
	if err != nil {
		b.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	b.StopTimer()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(out, []byte(fmt.Sprintf(`"cycles":%d`, b.N))) {
		b.Fatalf("stream failed: %d %s", resp.StatusCode, out)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}

// paperArtifact builds a predictor of the paper's artifact shape: 16
// sensors predicting 240 blocks, with the 16 leave-one-out fallbacks.
func paperArtifact() *core.Predictor {
	const q, k = 16, 240
	rng := rand.New(rand.NewSource(1))
	model := func(cols int) *ols.Model {
		m := &ols.Model{Alpha: mat.Zeros(k, cols), C: make([]float64, k)}
		for i := range m.Alpha.Data() {
			m.Alpha.Data()[i] = rng.NormFloat64() / q
		}
		for i := range m.C {
			m.C[i] = 0.9 + 0.01*rng.NormFloat64()
		}
		return m
	}
	p := &core.Predictor{Selected: make([]int, q), Model: model(q), Fallbacks: &core.FallbackSet{}}
	for j := 0; j < q; j++ {
		p.Selected[j] = 5 * j
		p.Fallbacks.Stats = append(p.Fallbacks.Stats, faults.SensorStats{Mean: 0.95 + 0.01*rng.Float64(), Std: 0.01 * rng.Float64()})
		p.Fallbacks.Models = append(p.Fallbacks.Models, core.FallbackModel{Excluded: []int{j}, Model: model(q - 1), RelError: 0.01 * rng.Float64()})
	}
	return p
}

// v1Copy writes p in the legacy voltsense-predictor/v1 layout, its
// coefficients as decimal JSON rows.
func v1Copy(p *core.Predictor) ([]byte, error) {
	type modelJSON struct {
		Excluded []int       `json:"excluded,omitempty"`
		Alpha    [][]float64 `json:"alpha"`
		C        []float64   `json:"c"`
		RelError float64     `json:"rel_error"`
	}
	rows := func(m *ols.Model) [][]float64 {
		out := make([][]float64, m.Alpha.Rows())
		for i := range out {
			out[i] = m.Alpha.Row(i)
		}
		return out
	}
	type statJSON struct {
		Mean float64 `json:"mean"`
		Std  float64 `json:"std"`
	}
	var fb struct {
		SensorStats []statJSON  `json:"sensor_stats"`
		Models      []modelJSON `json:"models"`
	}
	for _, s := range p.Fallbacks.Stats {
		fb.SensorStats = append(fb.SensorStats, statJSON{s.Mean, s.Std})
	}
	for _, fm := range p.Fallbacks.Models {
		fb.Models = append(fb.Models, modelJSON{fm.Excluded, rows(fm.Model), fm.Model.C, fm.RelError})
	}
	return json.Marshal(struct {
		Format    string      `json:"format"`
		Selected  []int       `json:"selected_sensors"`
		Alpha     [][]float64 `json:"alpha"`
		C         []float64   `json:"c"`
		Fallbacks any         `json:"fallbacks"`
	}{core.PredictorFormatV1, p.Selected, rows(p.Model), p.Model.C, fb})
}

// BenchmarkArtifactSave measures writing one paper-shaped tenant artifact.
func BenchmarkArtifactSave(b *testing.B) {
	p := paperArtifact()
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := p.Save(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "bytes/artifact")
}

// BenchmarkArtifactLoad measures the fleet store's load of one paper-shaped
// tenant artifact, as written today (v2) and as a legacy v1 copy.
func BenchmarkArtifactLoad(b *testing.B) {
	s, err := New(Config{StoreDir: b.TempDir(), Monitor: monitor.Config{Vth: 0.95}})
	if err != nil {
		b.Fatal(err)
	}
	p := paperArtifact()
	var v2 bytes.Buffer
	if err := p.Save(&v2); err != nil {
		b.Fatal(err)
	}
	v1, err := v1Copy(p)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
	}{{"v2", v2.Bytes()}, {"v1", v1}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.loadArtifact(c.data); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(c.data)), "bytes/artifact")
		})
	}
}
