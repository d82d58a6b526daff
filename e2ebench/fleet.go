package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"voltsense/internal/core"
	"voltsense/internal/experiments"
	"voltsense/internal/faults"
	"voltsense/internal/loadgen"
	"voltsense/internal/mat"
	"voltsense/internal/monitor"
	"voltsense/internal/online"
	"voltsense/internal/serve"
	"voltsense/internal/transfer"
)

// serveSpec sizes the fleet phase.
type serveSpec struct {
	tenants          int     // tenant artifacts in the store
	goldens          int     // golden chips pooled into the shared prior
	artifactSamples  int     // training maps behind each artifact, at most
	rate             float64 // open-loop unary requests per second, connection 1
	streamRate       float64 // NDJSON cycles per second, connection 2
	feedbackEvery    int     // every Nth unary request is /v1/feedback
	calibrateEvery   int     // every Nth unary request is /v1/calibrate
	calibrateSamples int     // labeled samples per calibrate call
	ladderBase       float64 // lowest rung of the rate ladder, requests/s
	ladderRatio      float64 // ratio between rungs
	ladderRungs      int
	ladderHold       float64 // seconds per rung
	p99Limit         time.Duration
}

var defaultServe = serveSpec{
	tenants: 8, goldens: 3, artifactSamples: 200,
	rate: 500, streamRate: 200, feedbackEvery: 8, calibrateEvery: 50, calibrateSamples: 8,
	ladderBase: 500, ladderRatio: 1.1, ladderRungs: 44, ladderHold: 0.4,
	p99Limit: time.Millisecond,
}

const benchReqHeader = "X-Bench-Request"

// fleet is one chip design's predictor served as a fleet of tenants.
type fleet struct {
	spec   serveSpec
	vth    float64
	dir    string
	ids    []string
	preds  []*core.Predictor // each tenant's artifact; JSON round-trips float64 exactly
	golden []*core.Predictor
	x, f   [][]float64 // training readings (16) and truths (240), shuffled

	srv      *serve.Server
	prior    *transfer.SharedPrior
	firstGen map[string]uint64
	target   loadgen.Target
	stop     func()

	tr *tracer
	// Per request index, traced runs only: when the handler started (tracer
	// clock) and how long it ran, both in nanoseconds.
	handlerAt, handlerNs []atomic.Int64
}

// buildArtifacts fits the tenants' and golden chips' artifacts: the Table 2
// selection refit (with leave-one-out fallbacks) on a different random
// subset of the training maps for each chip, written to the store.
func buildArtifacts(p *experiments.Pipeline, sel []int, spec serveSpec, seed int64, dir string) (*fleet, error) {
	fl := &fleet{spec: spec, vth: p.Cfg.Vth, dir: dir}
	xs := p.Train.CandV.SelectRows(sel)
	ds := &core.Dataset{X: xs, F: p.Train.CritV}
	local := make([]int, len(sel))
	for i := range local {
		local[i] = i
	}
	n := xs.Cols()
	sub := min(spec.artifactSamples, n*3/4)
	rng := rand.New(rand.NewSource(seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for i := 0; i < spec.tenants+spec.goldens; i++ {
		cols := rng.Perm(n)[:sub]
		sort.Ints(cols)
		d := ds.Subset(cols)
		if i >= spec.tenants {
			g, err := core.BuildPredictor(d, local)
			if err != nil {
				return nil, fmt.Errorf("golden %d: %w", i-spec.tenants, err)
			}
			fl.golden = append(fl.golden, g)
			continue
		}
		pred, err := core.BuildPredictorWithFallbacks(d, local, 1)
		if err != nil {
			return nil, fmt.Errorf("tenant %d: %w", i, err)
		}
		var buf bytes.Buffer
		if err := pred.Save(&buf); err != nil {
			return nil, err
		}
		id := "default"
		if i > 0 {
			id = fmt.Sprintf("chip%03d", i)
		}
		if err := os.WriteFile(filepath.Join(dir, id+".json"), buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
		fl.ids = append(fl.ids, id)
		fl.preds = append(fl.preds, pred)
	}
	for _, j := range rng.Perm(n) {
		fl.x = append(fl.x, xs.Col(j))
		fl.f = append(fl.f, p.Train.CritV.Col(j))
	}
	return fl, nil
}

// startServer is the fleet's set-up: fit the shared prior, construct the
// server and load every tenant into the registry.
func (fl *fleet) startServer() error {
	prior, err := transfer.FitPrior(fl.golden, transfer.PriorConfig{})
	if err != nil {
		return fmt.Errorf("prior: %w", err)
	}
	srv, err := serve.New(serve.Config{
		StoreDir:   fl.dir,
		MaxTenants: 64,
		Monitor:    monitor.Config{Vth: fl.vth, ClearMargin: 0.02, ClearCycles: 2},
		Adapt:      true,
		Prior:      prior,
	})
	if err != nil {
		return err
	}
	for _, id := range fl.ids {
		if _, err := srv.Registry().Get(id); err != nil {
			return fmt.Errorf("warm load %s: %w", id, err)
		}
	}
	fl.srv, fl.prior = srv, prior
	return nil
}

// listen serves the server over an in-memory listener. In traced runs the
// handler is wrapped to time every request inside ServeHTTP.
func (fl *fleet) listen(maxRequests int) {
	h := fl.srv.Handler()
	if fl.tr != nil {
		fl.handlerAt = make([]atomic.Int64, maxRequests)
		fl.handlerNs = make([]atomic.Int64, maxRequests)
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			inner.ServeHTTP(w, r)
			d := time.Since(t0)
			if i, err := strconv.Atoi(r.Header.Get(benchReqHeader)); err == nil && i >= 0 && i < len(fl.handlerNs) {
				fl.handlerAt[i].Store(fl.tr.ns(t0))
				fl.handlerNs[i].Store(d.Nanoseconds())
			}
		})
	}
	fl.target, fl.stop = loadgen.ServeInProcess(h)
}

// conn returns a client holding its own single connection to the server.
func (fl *fleet) conn() *http.Client {
	tr := fl.target.Client.Transport.(*http.Transport).Clone()
	tr.MaxConnsPerHost = 1
	tr.MaxIdleConnsPerHost = 1
	return &http.Client{Transport: tr}
}

func (fl *fleet) close() {
	if fl.stop != nil {
		fl.stop()
	}
	os.RemoveAll(fl.dir)
}

// Request kinds of the unary schedule.
const (
	kindPredict = iota
	kindFeedback
	kindCalibrate
)

// call is one scheduled request and what came back.
type call struct {
	kind     int
	tenant   int
	sample   int // index into fl.x / fl.f
	body     []byte
	due      time.Time
	sent     time.Time
	done     time.Time
	status   int
	err      error
	response []byte
}

func (fl *fleet) path(kind int) string {
	switch kind {
	case kindFeedback:
		return "/v1/feedback"
	case kindCalibrate:
		return "/v1/calibrate"
	}
	return "/v1/predict"
}

func (fl *fleet) sampleJSON(j int, truth bool) map[string]any {
	m := map[string]any{"readings": fl.x[j]}
	if truth {
		m["voltages"] = fl.f[j]
	}
	return m
}

// schedule lays out n unary requests: every calibrateEvery-th a calibrate
// against one of the upper half of the tenants, every feedbackEvery-th a
// feedback, the rest predicts; tenants and samples drawn from the seed.
// Tenants in the lower half are never recalibrated, so their predicts stay
// on the first artifact generation and are checked exactly.
func (fl *fleet) schedule(n int, rng *rand.Rand, predictOnly bool) []*call {
	calls := make([]*call, n)
	nt := len(fl.ids)
	for i := range calls {
		c := &call{kind: kindPredict, tenant: rng.Intn(nt), sample: rng.Intn(len(fl.x))}
		switch {
		case predictOnly:
			c.tenant = rng.Intn(nt / 2)
		case (i+1)%fl.spec.calibrateEvery == 0:
			c.kind = kindCalibrate
			c.tenant = nt/2 + rng.Intn(nt-nt/2)
		case (i+1)%fl.spec.feedbackEvery == 0:
			c.kind = kindFeedback
		}
		var body any
		switch c.kind {
		case kindPredict:
			body = map[string]any{"readings": [][]float64{fl.x[c.sample]}}
		case kindFeedback:
			body = map[string]any{"samples": []any{fl.sampleJSON(c.sample, true)}}
		case kindCalibrate:
			samples := make([]any, fl.spec.calibrateSamples)
			for s := range samples {
				samples[s] = fl.sampleJSON((c.sample+s)%len(fl.x), true)
			}
			body = map[string]any{"samples": samples}
		}
		c.body, _ = json.Marshal(body)
		calls[i] = c
	}
	return calls
}

// waitUntil blocks until t. The runtime's timers wake up to a millisecond
// late on Linux, so it sleeps in nanosleep (which the runtime treats as a
// blocking system call, freeing the processor for other goroutines) to just
// before t and spins the rest of the way.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t) - 80*time.Microsecond
		if d <= 0 {
			break
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		if err := syscall.Nanosleep(&ts, nil); err != syscall.EINTR {
			break
		}
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// send issues one call on client, open loop: the caller has already waited
// for its due time.
func (fl *fleet) send(client *http.Client, c *call, index int) {
	req, err := http.NewRequest(http.MethodPost, fl.target.BaseURL+fl.path(c.kind), bytes.NewReader(c.body))
	if err != nil {
		c.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.TenantHeader, fl.ids[c.tenant])
	if index >= 0 {
		req.Header.Set(benchReqHeader, strconv.Itoa(index))
	}
	c.sent = time.Now()
	resp, err := client.Do(req)
	if err != nil {
		c.err = err
		c.done = time.Now()
		return
	}
	c.response, c.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	c.done = time.Now()
	c.status = resp.StatusCode
}

// runOpenLoop sends calls over conns connections, call i on connection
// i mod conns, each at start + i/rate. Request indices are offset by base
// for the traced handler timings; base < 0 disables them.
func (fl *fleet) runOpenLoop(calls []*call, conns int, rate float64, start time.Time, base int) {
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		client := fl.conn()
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			defer client.CloseIdleConnections()
			for i := k; i < len(calls); i += conns {
				c := calls[i]
				c.due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				waitUntil(c.due)
				idx := -1
				if base >= 0 {
					idx = base + i
				}
				fl.send(client, c, idx)
			}
		}(k)
	}
	wg.Wait()
}

// streamCycle is one NDJSON cycle of the stream connection.
type streamCycle struct {
	due, done time.Time
	line      []byte
	err       error
}

// runStream holds one NDJSON session open on its own connection and pumps
// cycles at rate per second until n cycles are done.
func (fl *fleet) runStream(n int, rate float64, start time.Time) []*streamCycle {
	cycles := make([]*streamCycle, n)
	for i := range cycles {
		cycles[i] = &streamCycle{due: start.Add(time.Duration(float64(i) / rate * float64(time.Second)))}
	}
	client := fl.conn()
	defer client.CloseIdleConnections()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, fl.target.BaseURL+"/v1/stream?emit_voltages=true", pr)
	if err != nil {
		for _, c := range cycles {
			c.err = err
		}
		return cycles
	}
	req.Header.Set(serve.TenantHeader, fl.ids[0])
	resp, err := client.Do(req)
	if err == nil && resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		err = fmt.Errorf("stream status %d", resp.StatusCode)
	}
	if err != nil {
		pw.Close()
		for _, c := range cycles {
			c.err = err
		}
		return cycles
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	enc := json.NewEncoder(pw)
	for i, c := range cycles {
		waitUntil(c.due)
		if c.err = enc.Encode(map[string]any{"readings": fl.x[(i*7919)%len(fl.x)]}); c.err != nil {
			break
		}
		// Alarm events may precede this cycle's voltages line.
		for {
			line, err := br.ReadBytes('\n')
			if err != nil {
				c.err = err
				break
			}
			if bytes.Contains(line, []byte(`"voltages"`)) {
				c.line = line
				break
			}
		}
		c.done = time.Now()
		if c.err != nil {
			break
		}
	}
	pw.Close()
	io.Copy(io.Discard, br)
	return cycles
}

// latencies returns each successful call's time from due to done.
func latencies(calls []*call, kind int) []time.Duration {
	var out []time.Duration
	for _, c := range calls {
		if c.kind == kind && c.err == nil && c.status == http.StatusOK {
			out = append(out, c.done.Sub(c.due))
		}
	}
	return out
}

// percentile is the nearest-rank percentile of ds (0 when empty).
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// ladder climbs a fixed geometric ladder of predict rates on up to GOMAXPROCS
// connections and returns the highest rung whose p99 latency from due stays
// within the limit while the generator keeps up. It bisects the rung index,
// assuming a rung passes whenever a higher one does.
func (fl *fleet) ladder(rng *rand.Rand, hold float64, t *tally) float64 {
	rungs := make([]float64, fl.spec.ladderRungs)
	for i := range rungs {
		rungs[i] = fl.spec.ladderBase * math.Pow(fl.spec.ladderRatio, float64(i))
	}
	conns := gomaxprocs()
	pass := func(rate float64) bool {
		n := max(int(rate*hold), 50)
		calls := fl.schedule(n, rng, true)
		fl.runOpenLoop(calls, conns, rate, time.Now().Add(5*time.Millisecond), -1)
		fl.checkCalls(calls, t, false)
		lat := latencies(calls, kindPredict)
		if len(lat) < n {
			return false
		}
		// The generator keeps up when the last third leaves no later than
		// the first third did.
		late := func(cs []*call) time.Duration {
			var ds []time.Duration
			for _, c := range cs {
				ds = append(ds, c.sent.Sub(c.due))
			}
			return percentile(ds, 0.5)
		}
		keepsUp := late(calls[2*n/3:]) <= late(calls[:n/3])+100*time.Microsecond
		time.Sleep(20 * time.Millisecond) // let the server drain between rungs
		return percentile(lat, 0.99) <= fl.spec.p99Limit && keepsUp
	}
	lo, hi := -1, len(rungs)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if pass(rungs[mid]) {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		return 0
	}
	return rungs[lo]
}

// Response shapes the checks decode.
type predictResp struct {
	Tenant          string      `json:"tenant"`
	ModelGeneration uint64      `json:"model_generation"`
	Voltages        [][]float64 `json:"voltages"`
}

type feedbackResp struct {
	Accepted int `json:"accepted"`
	Skipped  int `json:"skipped"`
}

type calibrateResp struct {
	Tenant       string `json:"tenant"`
	Accepted     int    `json:"accepted"`
	ModelVersion int    `json:"model_version"`
}

func finiteRow(v []float64, k int) bool {
	if len(v) != k {
		return false
	}
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// checkCalls verifies every response: a predict answered by a tenant's first
// artifact generation must equal local Eq. 20 within 1e-12; everything else
// must have the right shape and finite values. With corrupt set, the first
// exactly checked prediction is compared against a perturbed expectation.
func (fl *fleet) checkCalls(calls []*call, t *tally, corrupt bool) {
	k := fl.preds[0].Model.NumOutputs()
	for _, c := range calls {
		id := fl.ids[c.tenant]
		if c.err != nil || c.status != http.StatusOK {
			t.check(false, "%s %s: status %d, error %v: %s", fl.path(c.kind), id, c.status, c.err, bytes.TrimSpace(c.response))
			continue
		}
		switch c.kind {
		case kindPredict:
			var r predictResp
			err := json.Unmarshal(c.response, &r)
			ok := err == nil && r.Tenant == id && len(r.Voltages) == 1 && finiteRow(r.Voltages[0], k)
			if ok && r.ModelGeneration == fl.firstGen[id] {
				want := fl.preds[c.tenant].Predict(fl.x[c.sample])
				if corrupt {
					want[0] += 1e-6
					corrupt = false
				}
				for i := range want {
					ok = ok && math.Abs(r.Voltages[0][i]-want[i]) <= 1e-12
				}
			}
			t.check(ok, "predict %s: response %.200s does not match Eq. 20", id, c.response)
		case kindFeedback:
			var r feedbackResp
			err := json.Unmarshal(c.response, &r)
			t.check(err == nil && r.Accepted+r.Skipped == 1, "feedback %s: response %.200s", id, c.response)
		case kindCalibrate:
			var r calibrateResp
			err := json.Unmarshal(c.response, &r)
			t.check(err == nil && r.Tenant == id && r.Accepted == fl.spec.calibrateSamples && r.ModelVersion >= 1,
				"calibrate %s: response %.200s", id, c.response)
		}
	}
}

func (fl *fleet) checkStream(cycles []*streamCycle, t *tally) []time.Duration {
	k := fl.preds[0].Model.NumOutputs()
	var lat []time.Duration
	for i, c := range cycles {
		var v struct {
			Voltages []float64 `json:"voltages"`
		}
		ok := c.err == nil && c.line != nil && json.Unmarshal(c.line, &v) == nil && finiteRow(v.Voltages, k)
		t.check(ok, "stream cycle %d: %v %.200s", i, c.err, c.line)
		if ok {
			lat = append(lat, c.done.Sub(c.due))
		}
	}
	return lat
}

// warmup sends one predict per tenant and records the artifact generation
// that answered, so later responses can be matched to it.
func (fl *fleet) warmup(t *tally) {
	client := fl.conn()
	defer client.CloseIdleConnections()
	fl.firstGen = map[string]uint64{}
	for i, id := range fl.ids {
		c := &call{kind: kindPredict, tenant: i, sample: i}
		c.body, _ = json.Marshal(map[string]any{"readings": [][]float64{fl.x[i]}})
		fl.send(client, c, -1)
		var r predictResp
		if c.err == nil && c.status == http.StatusOK && json.Unmarshal(c.response, &r) == nil {
			fl.firstGen[id] = r.ModelGeneration
		}
		fl.checkCalls([]*call{c}, t, false)
	}
}

// serveResult is what the fleet phase measured.
type serveResult struct {
	predict, feedback, calibrate []time.Duration // from due
	stream                       []time.Duration
	lateness                     []time.Duration // sent − due, unary
	maxRate                      float64
	handler                      []time.Duration // traced: predict time inside ServeHTTP
	transport                    []time.Duration // traced: client time minus handler time
	loads                        uint64
}

// runFleetPhase drives the fixed-rate schedule and the stream together for
// seconds, then climbs the rate ladder.
func (fl *fleet) runFleetPhase(seconds, hold float64, seed int64, t *tally, corrupt bool) *serveResult {
	rng := rand.New(rand.NewSource(seed))
	n := max(int(fl.spec.rate*seconds), fl.spec.calibrateEvery)
	calls := fl.schedule(n, rng, false)
	cycles := max(int(fl.spec.streamRate*seconds), 10)
	start := time.Now().Add(10 * time.Millisecond)
	var sc []*streamCycle
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sc = fl.runStream(cycles, fl.spec.streamRate, start)
	}()
	fl.runOpenLoop(calls, 1, fl.spec.rate, start, 0)
	wg.Wait()

	res := &serveResult{
		predict:   latencies(calls, kindPredict),
		feedback:  latencies(calls, kindFeedback),
		calibrate: latencies(calls, kindCalibrate),
	}
	for _, c := range calls {
		if !c.sent.IsZero() {
			res.lateness = append(res.lateness, c.sent.Sub(c.due))
		}
	}
	if fl.tr != nil {
		fl.traceCalls(calls, res)
	}
	fl.checkCalls(calls, t, corrupt)
	res.stream = fl.checkStream(sc, t)
	res.loads = fl.srv.Registry().Loads()
	res.maxRate = fl.ladder(rng, hold, t)
	return res
}

// traceCalls records a span per request and one per handler call inside it.
func (fl *fleet) traceCalls(calls []*call, res *serveResult) {
	for i, c := range calls {
		if c.done.IsZero() {
			continue
		}
		parent := fl.tr.record("loadgen.request", c.due, c.done, -1, runRequest+int64(i))
		h := time.Duration(fl.handlerNs[i].Load())
		if h <= 0 {
			continue // the handler had not stored its timing yet
		}
		at := fl.handlerAt[i].Load()
		fl.tr.recordNs("serve.handler", at, at+h.Nanoseconds(), parent, runRequest+int64(i))
		if c.kind == kindPredict && c.status == http.StatusOK {
			res.handler = append(res.handler, h)
			res.transport = append(res.transport, c.done.Sub(c.sent)-h)
		}
	}
}

// timePerCall times calls of fn in batches and returns the median time per call.
func timePerCall(batches, per int, fn func(i int)) time.Duration {
	var ds []time.Duration
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn(b*per + i)
		}
		ds = append(ds, time.Since(t0)/time.Duration(per))
	}
	return percentile(ds, 0.5)
}

// layerProbes times the serving layers' public calls directly: registry
// lookup, fault guard, Eq. 20, online ingest, transfer alignment, and the
// allocations of one predict through ServeHTTP.
func (fl *fleet) layerProbes(scale int) (map[string]metric, error) {
	out := map[string]metric{}
	pred := fl.preds[0]
	n := len(fl.x)
	reg := fl.srv.Registry()
	out["registry.get_us"] = metric{us(timePerCall(20, 50*scale, func(i int) { reg.Get(fl.ids[i%(len(fl.ids)/2)]) })), "us"}

	fb := pred.Fallbacks
	det, err := faults.NewDetector(fb.Stats, faults.DetectorConfig{})
	if err != nil {
		return nil, err
	}
	guard, err := faults.NewGuard(det, faults.Route{Predict: pred.Predict}, func(faulty []int) (faults.Route, bool) {
		fm := fb.Lookup(faulty)
		if fm == nil {
			return faults.Route{}, false
		}
		return faults.Route{Predict: fm.PredictFull, Excluded: fm.Excluded}, true
	})
	if err != nil {
		return nil, err
	}
	out["faults.guard_us"] = metric{us(timePerCall(20, 20*scale, func(i int) { guard.Process(append([]float64(nil), fl.x[i%n]...)) })), "us"}
	out["core.eq20_us"] = metric{us(timePerCall(20, 20*scale, func(i int) { pred.Predict(fl.x[i%n]) })), "us"}

	ad, err := online.NewAdapter(pred, online.Config{Vth: fl.vth}, func(*core.Predictor, bool) error { return nil })
	if err != nil {
		return nil, err
	}
	out["online.ingest_us"] = metric{us(timePerCall(20, 10*scale, func(i int) { ad.Ingest(fl.x[i%n], fl.f[i%n]) })), "us"}

	q, k, ns := len(fl.x[0]), len(fl.f[0]), fl.spec.calibrateSamples
	x, f := mat.Zeros(q, ns), mat.Zeros(k, ns)
	for s := 0; s < ns; s++ {
		x.SetCol(s, fl.x[s])
		f.SetCol(s, fl.f[s])
	}
	out["transfer.align_ms"] = metric{ms(timePerCall(10, 2, func(int) { transfer.AlignChip(fl.prior, x, f, transfer.AlignConfig{}) })), "ms"}

	// Allocations of one predict through the handler, less those of the
	// request and recorder the probe itself builds.
	body, _ := json.Marshal(map[string]any{"readings": [][]float64{fl.x[0]}})
	mk := func() (*http.Request, *httptest.ResponseRecorder) {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
		req.Header.Set(serve.TenantHeader, fl.ids[0])
		return req, httptest.NewRecorder()
	}
	const reps = 200
	allocs := func(serveIt bool) float64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < reps; i++ {
			req, rec := mk()
			if serveIt {
				fl.srv.Handler().ServeHTTP(rec, req)
			}
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / reps
	}
	out["serve.allocs_per_predict"] = metric{allocs(true) - allocs(false), "count"}
	return out, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
