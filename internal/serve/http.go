package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/trace"
)

// HTTP/JSON wire types. Field order is fixed so identical requests
// marshal to byte-identical responses (docs/api.md documents the schema).

// VMRequest addresses one trace VM by id.
type VMRequest struct {
	VM int `json:"vm"`
}

// ResourceSeries is one resource's per-window prediction pair.
type ResourceSeries struct {
	Pct []float64 `json:"pct"`
	Max []float64 `json:"max"`
}

// PerKind is a JSON object keyed by resource kind name. The fields are
// in resources.Kinds order, which is also the names' sorted order, so it
// encodes to the bytes of the map[string]T it stands for without building,
// sorting and reflecting over a map per response.
type PerKind[T any] struct {
	CPU     T `json:"cpu"`
	Memory  T `json:"memory"`
	Network T `json:"network"`
	SSD     T `json:"ssd"`
}

// A new resource kind needs a PerKind field: this stops compiling.
var _ = [1]struct{}{}[resources.NumKinds-4]

// perKind builds the wire object of one value per kind.
func perKind[T any](at func(resources.Kind) T) *PerKind[T] {
	return &PerKind[T]{CPU: at(resources.CPU), Memory: at(resources.Memory), Network: at(resources.Network), SSD: at(resources.SSD)}
}

// PredictResponse is the /v1/predict result.
type PredictResponse struct {
	VM         int     `json:"vm"`
	OK         bool    `json:"ok"`
	Percentile float64 `json:"percentile,omitempty"`
	Windows    int     `json:"windows,omitempty"`
	// Resources is each resource kind's per-window prediction; omitted
	// when OK is false.
	Resources *PerKind[ResourceSeries] `json:"resources,omitempty"`
}

// AdmitResponse is the /v1/admit result.
type AdmitResponse struct {
	VM             int               `json:"vm"`
	Admitted       bool              `json:"admitted"`
	Reason         string            `json:"reason,omitempty"`
	Cluster        int               `json:"cluster"`
	Server         int               `json:"server"`
	Oversubscribed bool              `json:"oversubscribed"`
	Alloc          *PerKind[float64] `json:"alloc,omitempty"`
	Guaranteed     *PerKind[float64] `json:"guaranteed,omitempty"`
	// Retryable marks a rejection that capacity churn can relieve; such
	// rejections are served as 503 with a Retry-After header.
	Retryable bool `json:"retryable,omitempty"`
	// Degraded reports the admission was shaped without a prediction
	// model (fully guaranteed, best-fit).
	Degraded bool `json:"degraded,omitempty"`
}

// ReadyResponse is the /readyz result.
type ReadyResponse struct {
	Ready  bool   `json:"ready"`
	Reason string `json:"reason,omitempty"`
}

// ReleaseResponse is the /v1/release result.
type ReleaseResponse struct {
	VM       int  `json:"vm"`
	Released bool `json:"released"`
}

// ReportRequest is the /v1/report body: a live memory-utilization push
// for an admitted VM, as a fraction of its allocation.
type ReportRequest struct {
	VM         int     `json:"vm"`
	MemoryUtil float64 `json:"memory_util"`
}

// ReportResponse is the /v1/report result.
type ReportResponse struct {
	VM      int  `json:"vm"`
	Applied bool `json:"applied"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP API:
//
//	GET  /healthz     — liveness probe (process up)
//	GET  /readyz      — readiness probe (model trained, not degraded)
//	GET  /v1/stats    — admission counters, request counts and cache stats
//	POST /v1/predict  — per-window utilization prediction for one VM
//	POST /v1/admit    — predict, shape into a CoachVM and place it
//	POST /v1/release  — free an admitted VM's capacity
//	POST /v1/report   — push live memory utilization for an admitted VM
//
// Retryable conditions — capacity/pressure rejections, a degraded
// prediction model, shutdown — are served as 503 with a Retry-After
// header. See docs/api.md for request/response schemas, error codes and
// curl examples.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/readyz", s.handleReady)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/predict", s.handlePredict)
	mux.HandleFunc("/v1/admit", s.handleAdmit)
	mux.HandleFunc("/v1/release", s.handleRelease)
	mux.HandleFunc("/v1/report", s.handleReport)
	return mux
}

// injectDelay sleeps the fault schedule's injected latency for the
// current tick, if any — applied to the request-serving endpoints only,
// never the probes.
func (s *Service) injectDelay() {
	if d := s.InjectedDelay(); d > 0 {
		time.Sleep(d)
	}
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady serves the readiness probe: 200 once the model is trained
// and the service is not degraded or shutting down, 503 with a
// Retry-After otherwise — so rollout gates and load balancers hold
// traffic through cold starts and degraded windows.
func (s *Service) handleReady(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	ready, reason := s.Ready()
	if !ready {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, ReadyResponse{Ready: false, Reason: reason})
		return
	}
	writeJSON(w, http.StatusOK, ReadyResponse{Ready: true})
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Service) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req VMRequest
	vm := s.decodeBody(w, r, &req, &req.VM)
	if vm == nil {
		return
	}
	s.injectDelay()
	pred, predicted, err := s.Predict(vm)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	resp := PredictResponse{VM: vm.ID, OK: predicted}
	if predicted {
		resp.Percentile = pred.Percentile
		resp.Windows = pred.Windows.PerDay
		resp.Resources = perKind(func(k resources.Kind) ResourceSeries {
			return ResourceSeries{Pct: pred.Pct[k], Max: pred.Max[k]}
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleAdmit(w http.ResponseWriter, r *http.Request) {
	var req VMRequest
	vm := s.decodeBody(w, r, &req, &req.VM)
	if vm == nil {
		return
	}
	s.injectDelay()
	res, err := s.Admit(vm)
	if err != nil {
		if errors.Is(err, ErrAlreadyAdmitted) {
			writeJSON(w, http.StatusConflict, ErrorResponse{Error: err.Error()})
			return
		}
		writeServiceError(w, err)
		return
	}
	resp := AdmitResponse{
		VM:             vm.ID,
		Admitted:       res.Admitted,
		Cluster:        res.Cluster,
		Server:         res.Server,
		Oversubscribed: res.Oversubscribed,
		Retryable:      res.Retryable,
		Degraded:       res.Degraded,
	}
	if res.Admitted {
		resp.Alloc = perKind(func(k resources.Kind) float64 { return res.Alloc[k] })
		resp.Guaranteed = perKind(func(k resources.Kind) float64 { return res.Guaranteed[k] })
	} else if resp.Reason = res.Reason; resp.Reason == "" {
		resp.Reason = "no server in the home cluster has capacity"
	}
	if !res.Admitted && res.Retryable {
		// Transient full/pressured fleet: released capacity or a server
		// recovery can admit this VM later — tell the client when to
		// come back instead of making rejection look permanent.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleReport applies a live utilization report (POST /v1/report): the
// pushed memory_util fraction drives the VM's data-plane working set
// instead of the age-indexed trace replay. 409 when the VM is not
// admitted, 404 when unknown, 400 on a malformed body or a disabled data
// plane.
func (s *Service) handleReport(w http.ResponseWriter, r *http.Request) {
	var req ReportRequest
	vm := s.decodeBody(w, r, &req, &req.VM)
	if vm == nil {
		return
	}
	s.injectDelay()
	applied, err := s.Report(vm, req.MemoryUtil)
	if err != nil {
		if errors.Is(err, ErrDataPlaneDisabled) {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
			return
		}
		writeServiceError(w, err)
		return
	}
	if !applied {
		writeJSON(w, http.StatusConflict, ErrorResponse{Error: fmt.Sprintf("vm %d is not admitted", vm.ID)})
		return
	}
	writeJSON(w, http.StatusOK, ReportResponse{VM: vm.ID, Applied: true})
}

func (s *Service) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req VMRequest
	vm := s.decodeBody(w, r, &req, &req.VM)
	if vm == nil {
		return
	}
	s.injectDelay()
	released, err := s.Release(vm)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	if !released {
		writeJSON(w, http.StatusConflict, ErrorResponse{Error: fmt.Sprintf("vm %d is not admitted", vm.ID)})
		return
	}
	writeJSON(w, http.StatusOK, ReleaseResponse{VM: vm.ID, Released: true})
}

// maxBodyBytes bounds a POST body; every request is one small JSON
// object.
const maxBodyBytes = 4 << 10

// decodeBody parses a POSTed JSON request into req — exactly one object of
// at most maxBodyBytes, no unknown fields — and resolves the trace VM that
// vmID (a field of req) names. It writes the error response itself when it
// returns nil: 405 on a wrong method, 413 on an oversized body, 400 on a
// malformed one or trailing data, 404 on an unknown VM.
func (s *Service) decodeBody(w http.ResponseWriter, r *http.Request, req any, vmID *int) *trace.VM {
	if !requireMethod(w, r, http.MethodPost) {
		return nil
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(req)
	if err == nil {
		if _, err = dec.Token(); err == nil {
			err = errors.New("trailing data after the request object")
		} else if err == io.EOF {
			err = nil
		}
	}
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, ErrorResponse{Error: "malformed request body: " + err.Error()})
		return nil
	}
	vm := s.VM(*vmID)
	if vm == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("unknown vm %d", *vmID)})
	}
	return vm
}

func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "method not allowed"})
		return false
	}
	return true
}

// writeServiceError maps service errors to status codes: shutdown and an
// unavailable prediction model (degraded mode) are 503 — the model case
// with a Retry-After, since a later training run can recover — anything
// else is a 500.
func writeServiceError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	if errors.Is(err, ErrModelUnavailable) {
		w.Header().Set("Retry-After", "1")
		code = http.StatusServiceUnavailable
	} else if errors.Is(err, ErrClosed) {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, ErrorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
