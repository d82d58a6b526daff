// Command voltbench offers a configurable fleet workload — predict,
// feedback, calibrate, and NDJSON streaming sessions across many tenants —
// to a voltsense inference server and reports latency quantiles, throughput,
// and shed rates.
//
// By default it is self-contained: it synthesizes a tenant store, starts the
// fleet server in-process over pipe connections (no sockets, so thousands of
// concurrent streams fit in one process), and drives it. Point it at a live
// deployment instead with -addr.
//
// -calibrate-every folds few-shot /v1/calibrate alignments into the unary
// mix. In-process mode then pools the synthetic tenant artifacts into a
// golden voltsense-prior/v1 and serves in fleet mode, so calibrations write
// real thin delta artifacts under live traffic; against -addr, the remote
// server must have been started with -prior.
//
// The output JSON is benchreport-compatible — `benchreport -compare
// BENCH_PR9.json new.json` diffs the mean latencies like any other
// benchmark — with a "fleet" section carrying the full quantile and shed
// breakdown.
//
// Usage:
//
//	go run ./cmd/voltbench -tenants 8 -streams 1000 -requests 2000 -calibrate-every 50 -out BENCH_PR9.json
//	go run ./cmd/voltbench -addr http://prod:8080 -tenants 4 -streams 64
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"voltsense/internal/core"
	"voltsense/internal/loadgen"
	"voltsense/internal/mat"
	"voltsense/internal/monitor"
	"voltsense/internal/ols"
	"voltsense/internal/serve"
	"voltsense/internal/transfer"
)

func main() {
	var (
		out      = flag.String("out", "BENCH_PR9.json", "output JSON path")
		addr     = flag.String("addr", "", "base URL of a live server; empty serves in-process")
		store    = flag.String("store", "", "existing tenant store for in-process mode; empty synthesizes one")
		tenants  = flag.Int("tenants", 8, "number of tenants to spread load across")
		sensors  = flag.Int("sensors", 2, "sensors per synthetic tenant model (reading width)")
		blocks   = flag.Int("blocks", 3, "blocks per synthetic tenant model (voltage width)")
		workers  = flag.Int("workers", 8, "concurrent unary clients")
		requests = flag.Int("requests", 2000, "total unary requests (predict + feedback)")
		fbEvery  = flag.Int("feedback-every", 8, "every Nth unary request is feedback; 0 disables")
		calEvery = flag.Int("calibrate-every", 0, "every Nth unary request is a /v1/calibrate few-shot alignment; 0 disables")
		streams  = flag.Int("streams", 1000, "concurrent NDJSON sessions to open and hold")
		cycles   = flag.Int("cycles", 3, "cycles pumped per accepted session")

		maxInflight = flag.Int("max-inflight", 0, "in-process server: unary admission slots; 0 unlimited")
		maxQueue    = flag.Int("max-queue", 0, "in-process server: admission queue depth")
		maxStreams  = flag.Int("max-streams", 0, "in-process server: global stream cap; 0 unlimited")
		maxTenantSt = flag.Int("max-tenant-streams", 0, "in-process server: per-tenant stream cap; 0 unlimited")
	)
	flag.Parse()

	ids := tenantIDs(*tenants)
	target, shutdown, err := buildTarget(*addr, *store, ids, *sensors, *blocks, *calEvery > 0, serve.Overload{
		MaxInflight:      *maxInflight,
		MaxQueue:         *maxQueue,
		MaxStreams:       *maxStreams,
		MaxTenantStreams: *maxTenantSt,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "voltbench: %v\n", err)
		os.Exit(1)
	}
	defer shutdown()

	rep, err := loadgen.Run(target, loadgen.Options{
		Tenants:        ids,
		Sensors:        *sensors,
		Blocks:         *blocks,
		Workers:        *workers,
		Requests:       *requests,
		FeedbackEvery:  *fbEvery,
		CalibrateEvery: *calEvery,
		Streams:        *streams,
		StreamCycles:   *cycles,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "voltbench: %v\n", err)
		os.Exit(1)
	}

	if err := writeReport(*out, rep); err != nil {
		fmt.Fprintf(os.Stderr, "voltbench: %v\n", err)
		os.Exit(1)
	}
	printSummary(*out, rep)
}

// tenantIDs names n tenants; the first is "default" so unlabeled requests
// exercise the single-tenant compatibility path too.
func tenantIDs(n int) []string {
	if n < 1 {
		n = 1
	}
	ids := []string{"default"}
	for i := 1; i < n; i++ {
		ids = append(ids, fmt.Sprintf("chip%03d", i))
	}
	return ids
}

// buildTarget either points at a live server or synthesizes a store and
// serves it in-process over pipe connections. With calibrate set, the
// in-process server also gets a golden prior pooled from the synthetic
// artifact family, so /v1/calibrate is live (fleet mode).
func buildTarget(addr, store string, ids []string, sensors, blocks int, calibrate bool, ov serve.Overload) (loadgen.Target, func(), error) {
	if addr != "" {
		return loadgen.Target{BaseURL: addr, Client: http.DefaultClient}, func() {}, nil
	}
	cleanup := func() {}
	if store == "" {
		dir, err := os.MkdirTemp("", "voltbench-store-")
		if err != nil {
			return loadgen.Target{}, nil, err
		}
		cleanup = func() { os.RemoveAll(dir) }
		for i, id := range ids {
			if err := saveArtifact(filepath.Join(dir, id+".json"), syntheticPredictor(sensors, blocks, i)); err != nil {
				cleanup()
				return loadgen.Target{}, nil, err
			}
		}
		store = dir
	}
	var prior *transfer.SharedPrior
	if calibrate {
		var err error
		if prior, err = syntheticPrior(sensors, blocks); err != nil {
			cleanup()
			return loadgen.Target{}, nil, err
		}
	}
	s, err := newServer(store, prior, ov)
	if err != nil {
		cleanup()
		return loadgen.Target{}, nil, err
	}
	target, stop := loadgen.ServeInProcess(s.Handler())
	return target, func() { stop(); cleanup() }, nil
}

func newServer(store string, prior *transfer.SharedPrior, ov serve.Overload) (*serve.Server, error) {
	return serve.New(serve.Config{
		StoreDir:   store,
		MaxTenants: 4096, // the bench offers the fleet; don't evict under it
		Monitor:    monitor.Config{Vth: 0.85, ClearMargin: 0.02, ClearCycles: 2},
		Adapt:      true,
		Overload:   ov,
		Prior:      prior,
	})
}

// syntheticPrior pools a few members of the synthetic artifact family into a
// shared golden prior, the same distillation a real fleet runs over its
// characterized golden chips.
func syntheticPrior(q, k int) (*transfer.SharedPrior, error) {
	goldens := make([]*core.Predictor, 0, 3)
	for seed := 0; seed < 3; seed++ {
		goldens = append(goldens, syntheticPredictor(q, k, seed))
	}
	return transfer.FitPrior(goldens, transfer.PriorConfig{})
}

// syntheticPredictor builds a valid predictor with Q sensors and K blocks;
// the tenant seed perturbs coefficients so tenants differ.
func syntheticPredictor(q, k, seed int) *core.Predictor {
	p := &core.Predictor{
		Selected: make([]int, q),
		Model:    &ols.Model{Alpha: mat.Zeros(k, q), C: make([]float64, k)},
	}
	for j := range p.Selected {
		p.Selected[j] = j
	}
	for i := 0; i < k; i++ {
		for j := 0; j < q; j++ {
			p.Model.Alpha.Set(i, j, (1+0.01*float64((seed+i+j)%7))/float64(q))
		}
	}
	return p
}

// saveArtifact writes p to path through Predictor.Save, in the format the
// fleet itself writes.
func saveArtifact(path string, p *core.Predictor) error {
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// benchEntry and benchFile mirror cmd/benchreport's report schema so
// -compare works on voltbench output unchanged; the fleet section rides
// along as an extra key benchreport ignores.
type benchEntry struct {
	Name       string  `json:"name"`
	Package    string  `json:"package"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
}

type benchFile struct {
	GeneratedAt string          `json:"generated_at"`
	GoVersion   string          `json:"go_version"`
	GOMAXPROCS  int             `json:"gomaxprocs"`
	BenchTime   string          `json:"benchtime"`
	Benchmarks  []benchEntry    `json:"benchmarks"`
	Fleet       *loadgen.Report `json:"fleet"`
}

func writeReport(path string, rep *loadgen.Report) error {
	f := benchFile{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		BenchTime:   time.Duration(rep.WallNs).Round(time.Millisecond).String(),
		Fleet:       rep,
	}
	add := func(name string, st loadgen.OpStats) {
		if st.Count == 0 {
			return
		}
		f.Benchmarks = append(f.Benchmarks, benchEntry{
			Name: name, Package: "cmd/voltbench", Iterations: st.Count, NsPerOp: st.MeanNs,
		})
	}
	add("BenchmarkFleetPredict", rep.Predict)
	add("BenchmarkFleetFeedback", rep.Feedback)
	add("BenchmarkFleetCalibrate", rep.Calibrate)
	add("BenchmarkFleetStreamOpen", rep.StreamOpen)
	add("BenchmarkFleetStreamCycle", rep.StreamCycle)
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printSummary(path string, rep *loadgen.Report) {
	ms := func(ns float64) float64 { return ns / 1e6 }
	fmt.Printf("wrote %s\n", path)
	fmt.Printf("  tenants %d, wall %s, shed %d (rate %.3f)\n",
		rep.Tenants, time.Duration(rep.WallNs).Round(time.Millisecond), rep.ShedTotal, rep.ShedRate)
	line := func(name string, st loadgen.OpStats) {
		if st.Count == 0 && st.Shed == 0 && st.Errors == 0 {
			return
		}
		fmt.Printf("  %-12s n=%-6d err=%-4d shed=%-4d p50=%.2fms p95=%.2fms p99=%.2fms %.0f ops/s\n",
			name, st.Count, st.Errors, st.Shed, ms(st.P50Ns), ms(st.P95Ns), ms(st.P99Ns), st.OpsPerSec)
	}
	line("predict", rep.Predict)
	line("feedback", rep.Feedback)
	line("calibrate", rep.Calibrate)
	line("stream_open", rep.StreamOpen)
	line("stream_cycle", rep.StreamCycle)
	fmt.Printf("  streams: requested %d, peak concurrent %d\n", rep.Streams, rep.PeakStreams)
}
