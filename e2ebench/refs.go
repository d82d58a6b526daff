package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strconv"

	"voltsense/internal/experiments"
	"voltsense/internal/pdn"
)

// Reference files hold, per workload, size and pool seed, the outputs
// recorded from this benchmark's own pipeline calls. They are embedded so a
// run needs nothing beside the binary.
//
//go:embed refs/*.json
var refFS embed.FS

// Tolerances of the output checks.
const (
	relErrTol  = 1e-9 // Table 1 relative error (percent) and Table 2 rates
	voltageTol = 1e-9 // probed voltages, volts: the banded-oracle budget
	probesPer  = 24   // probes per sample-set kind
)

// refFile is one workload and size.
type refFile struct {
	Workload string              `json:"workload"`
	Size     string              `json:"size"`
	Backend  string              `json:"backend"`
	Seeds    map[string]*seedRef `json:"seeds"`
}

// seedRef is the reference for one pipeline seed. Table fields are empty
// for wide-mesh, whose reference comes from the banded backend and checks
// voltages only.
type seedRef struct {
	Table1  []table1Row  `json:"table1,omitempty"`
	T2Sel   []int        `json:"table2_selection,omitempty"`
	T2Rates [][6]float64 `json:"table2_rates,omitempty"`
	Probes  []probe      `json:"probes"`
}

// probe is one recorded voltage: set is "train_cand", "train_crit",
// "test_cand" or "test_crit"; bench indexes TestByBench for test sets.
type probe struct {
	Set   string  `json:"set"`
	Bench int     `json:"bench"`
	Row   int     `json:"row"`
	Col   int     `json:"col"`
	V     float64 `json:"v"`
}

func refName(workload, size string) string { return "refs/" + workload + "-" + size + ".json" }

func loadRef(workload, size string, seed int64) (*seedRef, error) {
	data, err := refFS.ReadFile(refName(workload, size))
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	var rf refFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("reference %s: %w", refName(workload, size), err)
	}
	r := rf.Seeds[strconv.FormatInt(seed, 10)]
	if r == nil {
		return nil, fmt.Errorf("reference %s has no seed %d", refName(workload, size), seed)
	}
	return r, nil
}

func t2Rates(rows []experiments.Table2Row) [][6]float64 {
	out := make([][6]float64, len(rows))
	for i, r := range rows {
		out[i] = [6]float64{r.Proposed.ME, r.Proposed.WAE, r.Proposed.TE, r.EagleEye.ME, r.EagleEye.WAE, r.EagleEye.TE}
	}
	return out
}

// sampleAt reads one probed voltage from a pass's sample sets.
func sampleAt(p *experiments.Pipeline, pr probe) (float64, bool) {
	var s *experiments.SampleSet
	switch pr.Set {
	case "train_cand", "train_crit":
		s = p.Train
	case "test_cand", "test_crit":
		if pr.Bench < 0 || pr.Bench >= len(p.TestByBench) {
			return 0, false
		}
		s = p.TestByBench[pr.Bench]
	default:
		return 0, false
	}
	m := s.CandV
	if pr.Set == "train_crit" || pr.Set == "test_crit" {
		m = s.CritV
	}
	if pr.Row < 0 || pr.Row >= m.Rows() || pr.Col < 0 || pr.Col >= m.Cols() {
		return 0, false
	}
	return m.At(pr.Row, pr.Col), true
}

// pickProbes draws probesPer entries from each sample-set kind.
func pickProbes(p *experiments.Pipeline, seed int64) []probe {
	rng := rand.New(rand.NewSource(seed))
	var out []probe
	for _, set := range []string{"train_cand", "train_crit", "test_cand", "test_crit"} {
		for i := 0; i < probesPer; i++ {
			pr := probe{Set: set}
			s := p.Train
			if set == "test_cand" || set == "test_crit" {
				pr.Bench = rng.Intn(len(p.TestByBench))
				s = p.TestByBench[pr.Bench]
			}
			m := s.CandV
			if set == "train_crit" || set == "test_crit" {
				m = s.CritV
			}
			pr.Row, pr.Col = rng.Intn(m.Rows()), rng.Intn(m.Cols())
			pr.V = m.At(pr.Row, pr.Col)
			out = append(out, pr)
		}
	}
	return out
}

// checkOutputs compares a pass against its reference, counting one attempted
// operation per compared item and one failure per mismatch. With corrupt
// set, one probed voltage is perturbed first, to prove the check bites.
func checkOutputs(o *outputs, ref *seedRef, corrupt bool, t *tally) {
	if corrupt && len(ref.Probes) > 0 {
		pr := ref.Probes[0]
		m := o.p.Train.CandV
		m.Set(pr.Row, pr.Col, m.At(pr.Row, pr.Col)+1e-6)
	}
	for _, pr := range ref.Probes {
		v, ok := sampleAt(o.p, pr)
		t.check(ok && math.Abs(v-pr.V) <= voltageTol, "voltage %s[%d](%d,%d) = %v, reference %v", pr.Set, pr.Bench, pr.Row, pr.Col, v, pr.V)
	}
	if ref.Table1 != nil {
		t.check(len(o.table1) == len(ref.Table1), "table 1 has %d rows, reference %d", len(o.table1), len(ref.Table1))
		for i := 0; i < len(o.table1) && i < len(ref.Table1); i++ {
			got, want := o.table1[i], ref.Table1[i]
			t.check(got.SensorsCore0 == want.SensorsCore0 && got.TotalSensors == want.TotalSensors &&
				equalInts(got.Selection, want.Selection),
				"table 1 λ=%v: sensors %d/%d selection %v, reference %d/%d %v", want.Lambda,
				got.SensorsCore0, got.TotalSensors, got.Selection, want.SensorsCore0, want.TotalSensors, want.Selection)
			t.check(math.Abs(got.RelErrPct-want.RelErrPct) <= relErrTol, "table 1 λ=%v: relative error %v%%, reference %v%%", want.Lambda, got.RelErrPct, want.RelErrPct)
		}
	}
	if ref.T2Sel != nil {
		t.check(equalInts(o.t2Sel, ref.T2Sel), "table 2 selection %v, reference %v", o.t2Sel, ref.T2Sel)
		got := t2Rates(o.t2Rows)
		t.check(len(got) == len(ref.T2Rates), "table 2 has %d rows, reference %d", len(got), len(ref.T2Rates))
		for i := 0; i < len(got) && i < len(ref.T2Rates); i++ {
			ok := true
			for j := range got[i] {
				ok = ok && math.Abs(got[i][j]-ref.T2Rates[i][j]) <= relErrTol
			}
			t.check(ok, "table 2 row %d rates %v, reference %v", i, got[i], ref.T2Rates[i])
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// recordRefs runs the untraced pipeline for every pool seed and writes the
// reference file for one workload and size. wide-mesh is recorded on the
// banded backend, the oracle its sparse collection must match within 1e-9 V.
func recordRefs(w workloadSpec, size, path string, log io.Writer) error {
	rf := refFile{Workload: w.name, Size: size, Backend: "auto", Seeds: map[string]*seedRef{}}
	for _, seed := range poolSeeds {
		cfg := w.cfg(size, seed)
		voltsOnly := w.name == "wide-mesh"
		if voltsOnly {
			cfg.Backend = pdn.Banded
			rf.Backend = "banded"
		}
		o, err := runPipeline(cfg, w.table1)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		r := &seedRef{Probes: pickProbes(o.p, seed)}
		if !voltsOnly {
			r.Table1 = o.table1
			r.T2Sel = o.t2Sel
			r.T2Rates = t2Rates(o.t2Rows)
		}
		rf.Seeds[strconv.FormatInt(seed, 10)] = r
		fmt.Fprintf(log, "recorded %s/%s seed %d (collect %.1fs, place %.1fs)\n", w.name, size, seed, o.collectS, o.placeS)
	}
	data, err := json.Marshal(rf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
