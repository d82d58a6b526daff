package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// fingerprint identifies the machine, toolchain and build a result came
// from. Machine fields must match for two results to be compared; the
// commit and source hash say which code ran.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Size       string `json:"size"`
	Trace      bool   `json:"trace"`
}

func fingerprintFor(o options) fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: gomaxprocs(),
		GoVersion:  runtime.Version(),
		Commit:     vcsRevision(),
		Source:     sourceHash("."),
		Workload:   o.workload,
		Seed:       o.seed,
		Size:       o.size,
		Trace:      o.trace,
	}
}

// machineKey is the part of a fingerprint two compared results must share.
func (f fingerprint) machineKey() string {
	return fmt.Sprintf("%s|%d|%d|%s", f.CPU, f.NProc, f.GOMAXPROCS, f.GoVersion)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// vcsRevision is the git commit the binary was built from, when the build
// ran inside a git checkout; otherwise empty, and the source hash stands in.
func vcsRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			return s.Value
		}
	}
	return ""
}

// sourceHash hashes every Go source and module file under root, in path
// order, skipping build output.
func sourceHash(root string) string {
	var paths []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// compareCmd diffs two directories of stored results: per workload and
// metric, the median of each side and the change against the bound in
// BENCHMARK.json. It refuses to compare results whose machine fingerprints
// differ, or whose workloads and seeds do not pair up.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchFile := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: e2ebench compare [-benchmark BENCHMARK.json] BASE_DIR NEW_DIR")
		return 2
	}
	bounds, err := loadBounds(*benchFile)
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	base, err := loadResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	head, err := loadResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	if err := comparable(base, head); err != nil {
		fmt.Fprintf(stderr, "compare: refusing: %v\n", err)
		return 3
	}
	worse := 0
	for _, wl := range sortedKeys(groupBy(base, func(r storedResult) string { return r.Fingerprint.Workload })) {
		for _, name := range metricNames(base, wl) {
			b := medianOf(base, wl, name)
			n := medianOf(head, wl, name)
			change := (n - b) / b
			verdict := ""
			if bd, ok := bounds[name]; ok {
				if (bd.better == "lower" && change > bd.bound) || (bd.better == "higher" && -change > bd.bound) {
					verdict = "WORSE"
					worse++
				}
			}
			fmt.Fprintf(stdout, "%-10s %-26s %14.6g %14.6g %+8.2f%% %s\n", wl, name, b, n, 100*change, verdict)
		}
	}
	if worse > 0 {
		return 1
	}
	return 0
}

type bound struct {
	better string
	bound  float64
}

func loadBounds(path string) (map[string]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]bound{}
	for _, m := range def.EndToEnd {
		out[m.Name] = bound{better: m.Better, bound: m.Bound}
	}
	return out, nil
}

func loadResults(dir string) ([]storedResult, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []storedResult
	for _, f := range files {
		if strings.HasSuffix(f, ".spans.json") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r storedResult
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if !r.Fingerprint.Trace {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced results", dir)
	}
	return out, nil
}

// comparable checks that both sides ran on one machine and toolchain, and
// on the same workloads and seeds.
func comparable(base, head []storedResult) error {
	keys := map[string]bool{}
	for _, r := range append(append([]storedResult(nil), base...), head...) {
		keys[r.Fingerprint.machineKey()] = true
	}
	if len(keys) != 1 {
		return fmt.Errorf("results come from %d different machines or toolchains: %v", len(keys), sortedKeys(keys))
	}
	runs := func(rs []storedResult) string {
		var s []string
		for _, r := range rs {
			s = append(s, fmt.Sprintf("%s/%s/%d", r.Fingerprint.Workload, r.Fingerprint.Size, r.Fingerprint.Seed))
		}
		sort.Strings(s)
		return strings.Join(s, ",")
	}
	if runs(base) != runs(head) {
		return fmt.Errorf("workloads and seeds differ between the two sides")
	}
	return nil
}

func groupBy(rs []storedResult, key func(storedResult) string) map[string]bool {
	out := map[string]bool{}
	for _, r := range rs {
		out[key(r)] = true
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func metricNames(rs []storedResult, wl string) []string {
	names := map[string]bool{}
	for _, r := range rs {
		if r.Fingerprint.Workload == wl {
			for n := range r.Result.Metrics {
				names[n] = true
			}
		}
	}
	return sortedKeys(names)
}

func medianOf(rs []storedResult, wl, name string) float64 {
	var vs []float64
	for _, r := range rs {
		if m, ok := r.Result.Metrics[name]; ok && r.Fingerprint.Workload == wl {
			vs = append(vs, m.Value)
		}
	}
	if len(vs) == 0 {
		return math.NaN()
	}
	return median(vs)
}

// median of a copy of vs.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
