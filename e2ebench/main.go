// Command e2ebench is voltsense's end-to-end benchmark. Each workload runs
// the life cycle of one chip design — collect voltage maps
// (experiments.New), place sensors (Tables 1/2), set up the fitted
// predictor as a fleet of tenants behind serve.New — and prints one JSON
// line of metrics. With --trace 1 it also rebuilds the offline run from
// public calls with a span around each call into a module, serves an
// open-loop schedule for --seconds, and prints per-layer metrics.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash e2ebench/run.sh --workload paper --seed 1 --seconds 8 --trace 0
//
// Subcommands: `compare DIR_A DIR_B` diffs two directories of result files
// and refuses results from different machines; `record` rewrites the
// reference outputs in refs/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// processStart approximates the process start: package initialization runs
// before main, ahead of any benchmark work.
var processStart = time.Now()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations and the ones that failed. A failed operation is
// reported once on standard error with its reason.
type tally struct {
	attempted, failed int64
	log               io.Writer
	logged            int
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if ok {
		return
	}
	t.failed++
	if t.logged < 20 {
		fmt.Fprintf(t.log, "check failed: "+format+"\n", args...)
		t.logged++
	}
}

// options are a run's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     string
	corrupt  bool
	outDir   string
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareCmd(args[1:], stdout, stderr)
		case "record":
			return recordCmd(args[1:], stderr)
		}
	}
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: paper, wide-mesh or fleet")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 8, "length of the fixed-rate serving schedule of traced runs, seconds")
	fs.IntVar(&trace, "trace", 0, "1 rebuilds the run from public calls with spans and reports per-layer metrics")
	fs.StringVar(&o.size, "size", sizeFull, "full, or tiny for the smoke test")
	fs.BoolVar(&o.corrupt, "corrupt", false, "perturb outputs before checking them (tests the checks)")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "results"), "directory for the result file and trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if o.size != sizeFull && o.size != sizeTiny {
		fmt.Fprintf(stderr, "e2ebench: unknown size %q\n", o.size)
		return 2
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 2
	}
	fp := fingerprintFor(o)
	fpJSON, _ := json.Marshal(fp)
	fmt.Fprintf(stdout, "fingerprint %s\n", fpJSON)

	res, spans, err := runWorkload(w, o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	if spans != nil {
		spans.summary(stderr, res.Metrics["trace.coverage"].Value, res.Metrics["trace.overhead_frac"].Value)
	}
	if err := writeResult(o, fp, res, spans); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// storedResult is the file a run leaves in the output directory, stamped
// with the machine and build it ran on.
type storedResult struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Result      result      `json:"result"`
	// LayerSelf is the traced run's self time per layer, in seconds.
	LayerSelf map[string]float64 `json:"layer_self_s,omitempty"`
}

func writeResult(o options, fp fingerprint, res *result, spans *tracer) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	stem := fmt.Sprintf("%s-seed%d-trace%d-%d", o.workload, o.seed, btoi(o.trace), time.Now().UnixNano())
	sr := storedResult{Fingerprint: fp, Result: *res}
	if spans != nil {
		sr.LayerSelf = spans.layerSelfAll()
	}
	data, err := json.MarshalIndent(sr, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.outDir, stem+".json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if spans == nil {
		return nil
	}
	return spans.writeFile(filepath.Join(o.outDir, stem+".spans.json"))
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func recordCmd(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to record (empty: all)")
	size := fs.String("size", sizeFull, "size to record")
	dir := fs.String("dir", filepath.Join("e2ebench", "refs"), "reference directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	for _, w := range workloads {
		if *name != "" && w.name != *name {
			continue
		}
		path := filepath.Join(*dir, filepath.Base(refName(w.name, *size)))
		if err := recordRefs(w, *size, path, stderr); err != nil {
			fmt.Fprintf(stderr, "record %s: %v\n", w.name, err)
			return 1
		}
	}
	return 0
}

// gomaxprocs is reported in the fingerprint and bounds the load generator.
func gomaxprocs() int { return runtime.GOMAXPROCS(0) }
