package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"voltsense/internal/experiments"
	"voltsense/internal/floorplan"
	"voltsense/internal/grid"
	"voltsense/internal/power"
)

// table1Row is one λ point of Table 1 plus the chip-wide selection behind it.
type table1Row struct {
	Lambda       float64 `json:"lambda"`
	SensorsCore0 int     `json:"sensors_core0"`
	TotalSensors int     `json:"total_sensors"`
	RelErrPct    float64 `json:"rel_error_pct"`
	Selection    []int   `json:"selection"`
}

// outputs is everything one pipeline pass produced that a check compares.
type outputs struct {
	p         *experiments.Pipeline
	table1    []table1Row
	t2Sel     []int
	t2Rows    []experiments.Table2Row
	collectS  float64
	placeS    float64
	placeWall [2]time.Time // start and end of placement
	collWall  [2]time.Time // start and end of collection
}

// buildSubstrate is the offline set-up: the chip, its mesh and the power
// model, exactly as experiments.New builds them.
func buildSubstrate(cfg experiments.Config) (*floorplan.Chip, *grid.Grid, *power.Model) {
	chip := floorplan.New(cfg.Chip)
	return chip, grid.Build(chip, cfg.Grid), power.DefaultModel(chip)
}

// runPipeline is the untraced pass: experiments.New, then Table 1 (when
// asked) and Table 2 at q=2 with the placement cache cleared.
func runPipeline(cfg experiments.Config, table1 bool) (*outputs, error) {
	o := &outputs{}
	o.collWall[0] = time.Now()
	p, err := experiments.New(cfg)
	o.collWall[1] = time.Now()
	if err != nil {
		return nil, fmt.Errorf("collect: %w", err)
	}
	o.p = p
	p.ClearPlacementCache()
	o.placeWall[0] = time.Now()
	var t1 *experiments.Table1Data
	if table1 {
		if t1, err = p.Table1(nil); err != nil {
			return nil, fmt.Errorf("table 1: %w", err)
		}
	}
	t2, err := p.Table2(2)
	o.placeWall[1] = time.Now()
	if err != nil {
		return nil, fmt.Errorf("table 2: %w", err)
	}
	o.collectS = o.collWall[1].Sub(o.collWall[0]).Seconds()
	o.placeS = o.placeWall[1].Sub(o.placeWall[0]).Seconds()

	// The selections behind the tables come from the placement cache the
	// tables just filled, so reading them back solves nothing.
	if table1 {
		byLambda, err := p.ChipPlacementPath(cfg.Lambdas)
		if err != nil {
			return nil, fmt.Errorf("table 1 selections: %w", err)
		}
		for i, r := range t1.Rows {
			o.table1 = append(o.table1, table1Row{
				Lambda: r.Lambda, SensorsCore0: r.SensorsCore0, TotalSensors: r.TotalSensors,
				RelErrPct: r.RelErrorPercent, Selection: union(byLambda[i]),
			})
		}
	}
	_, sel, err := p.ChipPlacementCount(2)
	if err != nil {
		return nil, fmt.Errorf("table 2 selection: %w", err)
	}
	o.t2Sel = sel
	o.t2Rows = t2.Rows
	return o, nil
}

// union merges per-core selections into ascending global candidate indices.
func union(pls []*experiments.CorePlacement) []int {
	var u []int
	for _, pl := range pls {
		u = append(u, pl.CandIdx...)
	}
	sort.Ints(u)
	return u
}

// digest hashes the bits of every output a traced pass must reproduce: the
// critical nodes, every sample set, and both tables with their selections.
func (o *outputs) digest() [32]byte {
	h := sha256.New()
	var buf [8]byte
	f := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	i := func(v int) { f(float64(v)) }
	ints := func(vs []int) {
		i(len(vs))
		for _, v := range vs {
			i(v)
		}
	}
	set := func(s *experiments.SampleSet) {
		for _, v := range s.CandV.Data() {
			f(v)
		}
		for _, v := range s.CritV.Data() {
			f(v)
		}
		ints(s.Bench)
	}
	p := o.p
	ints(p.CritNodes)
	set(p.Train)
	for _, s := range p.TestByBench {
		set(s)
	}
	for _, r := range o.table1 {
		f(r.Lambda)
		i(r.SensorsCore0)
		i(r.TotalSensors)
		f(r.RelErrPct)
		ints(r.Selection)
	}
	ints(o.t2Sel)
	for _, r := range o.t2Rows {
		h.Write([]byte(r.Bench))
		for _, rt := range []float64{r.Proposed.ME, r.Proposed.WAE, r.Proposed.TE, r.EagleEye.ME, r.EagleEye.WAE, r.EagleEye.TE} {
			f(rt)
		}
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}
