package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// benchmarkDef is the part of BENCHMARK.json the smoke test checks against.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadDef(t *testing.T) benchmarkDef {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

// runTiny runs one tiny workload in-process and returns its result line.
func runTiny(t *testing.T, workload string, seed int64, trace int, extra ...string) result {
	t.Helper()
	args := append([]string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", "0.5", "--trace", strconv.Itoa(trace), "--size", "tiny",
		"--out", filepath.Join(t.TempDir(), "results")}, extra...)
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line %q: %v", args, lines[len(lines)-1], err)
	}
	return res
}

// TestSmoke runs every workload at a tiny size under two seeds, untraced and
// traced, and checks that each prints exactly the metrics BENCHMARK.json
// names, with their units, and that its outputs pass the checks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	def := loadDef(t)
	for _, w := range def.Workloads {
		for _, seed := range []int64{1, 2} {
			for trace, want := range [][]struct{ Name, Unit string }{
				toPairs(def.EndToEnd), toPairs(def.PerLayer),
			} {
				res := runTiny(t, w.Name, seed, trace)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s seed %d trace %d: correct=%v attempted=%d failed=%d", w.Name, seed, trace, res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s seed %d trace %d: %d metrics, want %d", w.Name, seed, trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("%s seed %d trace %d: metric %s = %+v (present %v), want unit %s", w.Name, seed, trace, m.Name, got, ok, m.Unit)
					}
				}
				if trace == 1 && res.Metrics["trace.coverage"].Value < 0.9 {
					t.Errorf("%s seed %d: trace coverage %v < 0.9", w.Name, seed, res.Metrics["trace.coverage"].Value)
				}
			}
		}
	}
}

func toPairs(ms []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) []struct{ Name, Unit string } {
	out := make([]struct{ Name, Unit string }, len(ms))
	for i, m := range ms {
		out[i] = struct{ Name, Unit string }{m.Name, m.Unit}
	}
	return out
}

// TestCorruptedOutputFails perturbs one output of each workload and expects
// the run to count it as a failure.
func TestCorruptedOutputFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range []string{"paper", "wide-mesh", "fleet"} {
		res := runTiny(t, w, 1, 0, "--corrupt")
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted run reported correct=%v failed=%d", w, res.Correct, res.Failed)
		}
	}
}

// TestCompareRefusesOtherMachines checks that results from two machines are
// not compared.
func TestCompareRefusesOtherMachines(t *testing.T) {
	a := storedResult{Fingerprint: fingerprint{CPU: "A", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1", Workload: "paper", Seed: 1}}
	b := a
	if err := comparable([]storedResult{a}, []storedResult{b}); err != nil {
		t.Fatalf("same machine refused: %v", err)
	}
	b.Fingerprint.CPU = "B"
	if err := comparable([]storedResult{a}, []storedResult{b}); err == nil {
		t.Fatal("results from different CPUs were compared")
	}
	b = a
	b.Fingerprint.Seed = 2
	if err := comparable([]storedResult{a}, []storedResult{b}); err == nil {
		t.Fatal("results from different seeds were compared")
	}
}

func TestPipelineSeedIsInPool(t *testing.T) {
	for _, s := range []int64{-7, 0, 1, 9, 1 << 40} {
		p := pipelineSeed(s)
		if p != pipelineSeed(s) || p < poolSeeds[0] || p > poolSeeds[len(poolSeeds)-1] {
			t.Errorf("pipelineSeed(%d) = %d", s, p)
		}
	}
}
