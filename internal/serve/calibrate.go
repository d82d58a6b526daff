package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"

	"voltsense/internal/core"
	"voltsense/internal/mat"
	"voltsense/internal/registry"
	"voltsense/internal/transfer"
)

// loadArtifact decodes one store artifact. Full predictor artifacts —
// voltsense-predictor/v2 with binary coefficient blocks, or legacy
// voltsense-predictor/v1 with decimal ones — load through core.LoadPredictor;
// thin voltsense-delta/v1 artifacts (written by /v1/calibrate) resolve
// against the pinned shared prior into a full predictor at load time. A delta in a store with no configured prior
// is a deployment error, reported per tenant rather than crashing the fleet.
// The artifact is parsed in full once, by the loader its format tag names.
func (s *Server) loadArtifact(data []byte) (*core.Predictor, error) {
	format, err := artifactFormat(data)
	if err != nil {
		return nil, err
	}
	if format != transfer.DeltaFormat {
		return core.LoadPredictor(bytes.NewReader(data))
	}
	if s.cfg.Prior == nil {
		return nil, errors.New("serve: artifact is a voltsense-delta/v1 thin delta but no shared prior is pinned; restart voltserved with -prior")
	}
	d, lin, err := transfer.LoadDelta(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	pred, err := d.Resolve(s.cfg.Prior, lin)
	if err != nil {
		return nil, err
	}
	s.metrics.TransferDeltaLoads.Inc()
	return pred, nil
}

// artifactFormat returns an artifact's format tag. Every artifact voltsense
// writes leads with it, so it is read from the first tokens; only when
// "format" is not the first key is the whole artifact decoded for it. The
// loader it picks checks the tag again on its full decode, which keeps the
// last of duplicate keys, so an artifact never loads under a format its
// full decode does not carry.
func artifactFormat(data []byte) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err == nil && tok == json.Delim('{') {
		if key, err := dec.Token(); err == nil && key == "format" {
			if v, err := dec.Token(); err == nil {
				if format, ok := v.(string); ok {
					return format, nil
				}
			}
		}
	}
	var head struct {
		Format string `json:"format"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return "", fmt.Errorf("serve: artifact: %w", err)
	}
	return head.Format, nil
}

// calibrateRequest is the /v1/calibrate input: labeled samples for one
// tenant, in the same shape as /v1/feedback. An empty samples list is legal
// and enrolls the tenant at the pure prior mean (zero-shot enrollment).
type calibrateRequest struct {
	Tenant  string           `json:"tenant"`
	Samples []feedbackSample `json:"samples"`
}

// calibrateResponse reports what the calibration produced.
type calibrateResponse struct {
	Tenant            string `json:"tenant"`
	Accepted          int    `json:"accepted"`
	PriorOnly         bool   `json:"prior_only"`
	ModelGeneration   uint64 `json:"model_generation"`
	ModelVersion      int    `json:"model_version"`
	DeltaCoefficients int    `json:"delta_coefficients"`
	PriorFingerprint  string `json:"prior_fingerprint"`
	Note              string `json:"note,omitempty"`
}

// handleCalibrate is the fleet enrollment/recalibration path: align the
// tenant's labeled samples against the shared golden-chip prior
// (transfer.AlignChip), persist the result as a thin voltsense-delta/v1
// artifact in the store, and force-refresh the tenant so the aligned model
// serves immediately. Unlike /v1/feedback it may name a tenant with no
// artifact yet — that is exactly how a new chip joins the fleet.
func (s *Server) handleCalibrate(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	if s.cfg.StoreDir == "" || s.cfg.Prior == nil {
		httpError(w, http.StatusNotFound, "fleet calibration is disabled; restart voltserved with -store and -prior")
		return
	}
	release, reason := s.adm.acquire()
	if reason != "" {
		s.shed(w, s.tenantForShed(r), reason)
		return
	}
	defer release()
	var req calibrateRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "malformed JSON: %v", err)
		return
	}
	if len(req.Samples) > s.cfg.MaxBatch {
		httpError(w, http.StatusRequestEntityTooLarge, "batch of %d exceeds limit %d", len(req.Samples), s.cfg.MaxBatch)
		return
	}
	id := r.Header.Get(TenantHeader)
	if id == "" {
		id = r.URL.Query().Get("tenant")
	}
	if id == "" {
		id = req.Tenant
	}
	if id == "" {
		id = s.defaultID
	}
	if !registry.ValidID(id) {
		httpError(w, http.StatusBadRequest, "invalid tenant id %q", id)
		return
	}

	// Validate the whole batch against the prior's shape before fitting
	// any of it. Calibration samples never carry nulls: a labeled sample
	// with a dropped-out sensor teaches the alignment garbage.
	prior := s.cfg.Prior
	q, k := prior.Q(), prior.K()
	n := len(req.Samples)
	x := mat.Zeros(q, n)
	f := mat.Zeros(k, n)
	for i, smp := range req.Samples {
		readings := toFloats(smp.Readings)
		if err := checkVector(readings, q, false); err != nil {
			httpError(w, http.StatusBadRequest, "samples[%d].readings: %v", i, err)
			return
		}
		if len(smp.Voltages) != k {
			httpError(w, http.StatusBadRequest, "samples[%d].voltages has %d values, prior has %d nodes", i, len(smp.Voltages), k)
			return
		}
		for j, v := range smp.Voltages {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				httpError(w, http.StatusBadRequest, "samples[%d].voltages[%d]: non-finite value %v", i, j, v)
				return
			}
		}
		for j := 0; j < q; j++ {
			x.Set(j, i, readings[j])
		}
		for j := 0; j < k; j++ {
			f.Set(j, i, smp.Voltages[j])
		}
	}

	s.calibMu.Lock()
	defer s.calibMu.Unlock()

	// Chain the lineage off the incumbent, when one loads: a recalibration
	// is version parent+1. A missing artifact (new chip) or a broken one
	// (calibration is the repair path) starts the chain at version 1.
	acfg := transfer.AlignConfig{
		Shrinkage:  s.cfg.CalibrateShrinkage,
		MinSamples: s.cfg.CalibrateMinSamples,
		DeltaTol:   s.cfg.CalibrateDeltaTol,
	}
	if v, err := s.reg.Get(id); err == nil {
		if lin := v.(*Tenant).cur.Load().pred.Lineage; lin != nil && lin.Version > 0 {
			acfg.Parent = lin.Version
			acfg.Version = lin.Version + 1
		}
	}

	al, err := transfer.AlignChip(prior, x, f, acfg)
	if err != nil {
		httpError(w, http.StatusBadRequest, "alignment failed: %v", err)
		return
	}

	if err := s.writeDeltaArtifact(id, al.Delta, al.Predictor.Lineage); err != nil {
		httpError(w, http.StatusInternalServerError, "persisting calibration: %v", err)
		return
	}
	if err := s.reg.Refresh(id); err != nil {
		httpError(w, http.StatusInternalServerError, "calibration persisted but reload failed: %v", err)
		return
	}

	s.metrics.TransferCalibrations.Inc()
	s.metrics.TransferSamples.Add(uint64(al.Samples))
	if al.PriorOnly {
		s.metrics.TransferPriorOnly.Inc()
	}

	resp := calibrateResponse{
		Tenant:            id,
		Accepted:          al.Samples,
		PriorOnly:         al.PriorOnly,
		ModelVersion:      al.Predictor.Lineage.Version,
		DeltaCoefficients: al.Delta.NNZ(),
		PriorFingerprint:  prior.Fingerprint(),
	}
	if v, ok := s.reg.Peek(id); ok {
		resp.ModelGeneration = v.(*Tenant).cur.Load().gen
	}
	if al.PriorOnly {
		minSamples := s.cfg.CalibrateMinSamples
		if minSamples <= 0 {
			minSamples = 4
		}
		resp.Note = fmt.Sprintf("evidence gate: %d samples < %d required; tenant enrolled at the prior mean", al.Samples, minSamples)
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeDeltaArtifact atomically replaces the tenant's store artifact with a
// thin delta. The registry's change detection fingerprints size+mtime, so
// the write must be temp-file + rename — a reader never sees a torn file.
func (s *Server) writeDeltaArtifact(id string, d *transfer.Delta, lin *core.Lineage) error {
	tmp, err := os.CreateTemp(s.cfg.StoreDir, "."+id+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := transfer.SaveDelta(tmp, d, lin); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(s.cfg.StoreDir, id+".json"))
}
