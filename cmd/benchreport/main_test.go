package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTrajectoryOrdersByPRNumber: reports are ordered by PR number, not by
// file name, so PR10 is the newest and its benchmarks make up the ns/op
// table even though "BENCH_PR10" sorts before "BENCH_PR2" lexically.
func TestTrajectoryOrdersByPRNumber(t *testing.T) {
	dir := t.TempDir()
	write := func(pr string, names ...string) {
		rep := report{GeneratedAt: "2026-01-01T00:00:00Z", GoVersion: "go1.22"}
		for _, n := range names {
			rep.Benchmarks = append(rep.Benchmarks, benchResult{Name: n, NsPerOp: 100})
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "BENCH_"+pr+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("PR2", "BenchmarkEngine")
	write("PR9", "BenchmarkFleet")
	write("PR10", "BenchmarkEngine", "BenchmarkNewer")

	out := captureStdout(t, func() error { return trajectoryReport(dir) })

	pr2, pr9, pr10 := strings.Index(out, "\nPR2 "), strings.Index(out, "\nPR9 "), strings.Index(out, "\nPR10 ")
	if pr2 < 0 || pr9 < 0 || pr10 < 0 || !(pr2 < pr9 && pr9 < pr10) {
		t.Fatalf("reports not listed as PR2, PR9, PR10:\n%s", out)
	}
	for _, name := range []string{"BenchmarkEngine", "BenchmarkNewer"} {
		if !strings.Contains(out, "\n"+name+" ") {
			t.Errorf("%s from the newest report (PR10) missing from the ns/op table:\n%s", name, out)
		}
	}
	if strings.Contains(out, "\nBenchmarkFleet ") {
		t.Errorf("BenchmarkFleet, absent from PR10, listed in the ns/op table:\n%s", out)
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	runErr := fn()
	os.Stdout = saved
	w.Close()
	out := <-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	return out
}
