package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	repro "repro"
)

// maxRequestBytes bounds a request body (a macromodel JSON grows with
// poles × ports², and untrusted payloads must not exhaust memory).
const maxRequestBytes = 64 << 20

// CheckSpec is the wire form of the passivity-check options a job carries
// (a stable subset of repro.CheckOptions).
type CheckSpec struct {
	// Method names the detection algorithm: "", "auto", "hamiltonian",
	// "sweep" or "adaptive".
	Method string `json:"method,omitempty"`
	// SweepPoints sets the fixed sweep's grid density (0 = default).
	SweepPoints int `json:"sweep_points,omitempty"`
	// FreqMinHz/FreqMaxHz bound the checked band (0 = derive from poles).
	FreqMinHz float64 `json:"freq_min_hz,omitempty"`
	// FreqMaxHz is the upper band edge in Hz.
	FreqMaxHz float64 `json:"freq_max_hz,omitempty"`
	// Certify escalates passive verdicts through the certification
	// pipeline.
	Certify bool `json:"certify,omitempty"`
}

// EnforceSpec is the wire form of the enforcement options (a stable
// subset of repro.EnforceOptions; the check side rides in CheckSpec).
type EnforceSpec struct {
	// MaxIterations bounds the perturbation loop (0 = default).
	MaxIterations int `json:"max_iterations,omitempty"`
	// Margin pushes constrained singular values to 1 − Margin.
	Margin float64 `json:"margin,omitempty"`
	// ClampD permits the one-time D singular-value clip.
	ClampD bool `json:"clamp_d,omitempty"`
	// Certify requires an interval certificate before the loop exits.
	Certify bool `json:"certify,omitempty"`
}

// Request is the JSON body of POST /v1/check and POST /v1/enforce.
type Request struct {
	// Model is the macromodel to process (the repro.Macromodel JSON
	// schema, as written by SaveFile).
	Model *repro.Macromodel `json:"model"`
	// Check tunes the passivity check of either job kind.
	Check CheckSpec `json:"check"`
	// Enforce tunes the enforcement loop (/v1/enforce only).
	Enforce EnforceSpec `json:"enforce"`
	// DeadlineMS bounds the job's running wall-clock in milliseconds
	// (0 = server default).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// MaxAttempts bounds the job's server-side attempts; retryable
	// failures (worker panics, transient errors) re-run the job on a
	// different worker up to this total (0 = server default).
	MaxAttempts int `json:"max_attempts,omitempty"`
}

// Response is the JSON body answering both job endpoints.
type Response struct {
	// Worker is the worker index that served the job; AffinityHit reports
	// a warm-cache placement; Fingerprint is the model's pole-set
	// fingerprint in hex.
	Worker int `json:"worker"`
	// AffinityHit reports that the job landed on the worker already
	// associated with its fingerprint.
	AffinityHit bool `json:"affinity_hit"`
	// Fingerprint is the pole-set fingerprint, %016x.
	Fingerprint string `json:"fingerprint"`
	// QueueWaitMS and ServiceMS split the job's latency into queueing and
	// service time.
	QueueWaitMS float64 `json:"queue_wait_ms"`
	// ServiceMS is the worker execution time in milliseconds.
	ServiceMS float64 `json:"service_ms"`
	// Report is the passivity report of the (final) model.
	Report *repro.PassivityReport `json:"report,omitempty"`
	// Enforce is the enforcement report (/v1/enforce).
	Enforce *repro.EnforceReport `json:"enforce,omitempty"`
	// Model is the enforced model (/v1/enforce).
	Model *repro.Macromodel `json:"model,omitempty"`
	// Attempts counts how many times the job ran (1 = no retries).
	Attempts int `json:"attempts,omitempty"`
	// LastError is the most recent failed attempt's error when the
	// delivered outcome came from a retry.
	LastError string `json:"last_error,omitempty"`
	// Error carries the job failure on non-2xx statuses.
	Error string `json:"error,omitempty"`
}

// ParseCheckMethod maps the wire method names to repro.CheckMethod.
func ParseCheckMethod(name string) (repro.CheckMethod, error) {
	switch name {
	case "", "auto":
		return repro.CheckAuto, nil
	case "hamiltonian":
		return repro.CheckHamiltonian, nil
	case "sweep":
		return repro.CheckSweep, nil
	case "adaptive":
		return repro.CheckAdaptive, nil
	}
	return repro.CheckAuto, fmt.Errorf("unknown check method %q (want auto, hamiltonian, sweep or adaptive)", name)
}

// CheckOptions converts the wire spec to library options.
func (c CheckSpec) CheckOptions() (repro.CheckOptions, error) {
	m, err := ParseCheckMethod(c.Method)
	if err != nil {
		return repro.CheckOptions{}, err
	}
	return repro.CheckOptions{
		Method:      m,
		SweepPoints: c.SweepPoints,
		FreqMin:     c.FreqMinHz,
		FreqMax:     c.FreqMaxHz,
		Certify:     c.Certify,
	}, nil
}

// EnforceOptions converts the wire spec to library options (Check is
// filled by the job's CheckSpec).
func (e EnforceSpec) EnforceOptions() repro.EnforceOptions {
	return repro.EnforceOptions{
		MaxIterations: e.MaxIterations,
		Margin:        e.Margin,
		ClampD:        e.ClampD,
		Certify:       e.Certify,
	}
}

// Handler returns the server's HTTP interface:
//
//	POST /v1/check    submit a check job, wait, return its Response
//	POST /v1/enforce  submit an enforce job (response carries the model)
//	GET  /metrics     Prometheus text-format metrics
//	GET  /healthz     liveness (200 "ok", 503 while draining)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/check", func(w http.ResponseWriter, r *http.Request) {
		s.handleJob(w, r, JobCheck)
	})
	mux.HandleFunc("/v1/enforce", func(w http.ResponseWriter, r *http.Request) {
		s.handleJob(w, r, JobEnforce)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.writePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		switch {
		case draining:
			http.Error(w, "draining", http.StatusServiceUnavailable)
		case !s.Ready():
			// Not ready ≠ not alive: startup cache loading (and its
			// quarantine scan) is still running, so a fleet LB should not
			// route here yet — every job would start cold.
			http.Error(w, "loading", http.StatusServiceUnavailable)
		default:
			fmt.Fprintln(w, "ok")
		}
	})
	return mux
}

// ParseRetryAfter reads a Retry-After header value in either RFC 9110
// form — delta-seconds or an HTTP-date — returning how long the sender
// asked the client to wait (0 when absent, unparseable, or already in
// the past). Both passcheck's remote client and the cluster worker agent
// feed it into their backoff, so a daemon hinting with a date is honored
// the same as one hinting with seconds.
func ParseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// Backoff returns the wait before retry number attempt (1-based) — the
// one retry schedule of passcheck's remote client and the cluster worker
// agent: base doubled per attempt and capped at max, or the Retry-After
// hint (capped at 30 s) when one was given, then jittered into [d/2, d]
// so a fleet of clients does not re-dogpile a recovering server in
// lockstep.
func Backoff(attempt int, base, max, hint time.Duration) time.Duration {
	d := base << (attempt - 1)
	if d > max || d <= 0 {
		d = max
	}
	if hint > 0 {
		d = min(hint, 30*time.Second)
	}
	return d/2 + rand.N(d/2+1)
}

// WriteJSON emits one JSON response with the given status — the one
// JSON writer of the daemon's and the coordinator's HTTP surfaces.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	// Marshal before touching the header: an encoding failure after
	// WriteHeader(200) would truncate the body mid-stream and surface at
	// the client as an opaque EOF instead of an error it can report.
	body, err := json.Marshal(v)
	if err != nil {
		body, _ = json.Marshal(Response{Error: "encoding response: " + err.Error()})
		status = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

// DecodePost decodes a POST request's JSON body of at most limit bytes
// into v. On failure it answers the client itself (405, or 400 with the
// decode error) and returns false.
func DecodePost(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v); err != nil {
		WriteJSON(w, http.StatusBadRequest, Response{Error: "decoding request: " + err.Error()})
		return false
	}
	return true
}

// JobRequest is a decoded /v1/check or /v1/enforce body. Each surface
// keeps its own type (the daemon decodes the model, the coordinator keeps
// its raw bytes for the ledger); Validate vets it before admission.
type JobRequest interface {
	Validate() error
}

// Validate rejects a request without a model or with a malformed check
// spec.
func (r *Request) Validate() error {
	if r.Model == nil {
		return errors.New("request carries no model")
	}
	_, err := r.Check.CheckOptions()
	return err
}

// AdmitJob runs the admission half of a /v1 job request: it decodes the
// body into req (DecodePost), validates it and submits it through
// submit. Every failure is answered here and AdmitJob returns false: 400
// for a bad body or spec; for a submit error, 429 with a Retry-After of
// retryAfter when it matches full, 503 when the pool is draining or
// retired, 400 otherwise. On true the caller waits for the job and
// writes its result.
func AdmitJob(w http.ResponseWriter, r *http.Request, req JobRequest, limit int64, full error, retryAfter string, submit func() error) bool {
	if !DecodePost(w, r, req, limit) {
		return false
	}
	err := req.Validate()
	if err == nil {
		err = submit()
	}
	status := http.StatusBadRequest
	switch {
	case err == nil:
		return true
	case errors.Is(err, full):
		w.Header().Set("Retry-After", retryAfter)
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining), errors.Is(err, ErrNoWorkers):
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, Response{Error: err.Error()})
	return false
}

// handleJob admits a Request and waits for its Result.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request, kind JobKind) {
	var req Request
	var ch <-chan *Result
	if !AdmitJob(w, r, &req, maxRequestBytes, ErrQueueFull, "1", func() error {
		chk, _ := req.Check.CheckOptions() // validated by AdmitJob
		var err error
		ch, err = s.Submit(&Job{
			Kind:        kind,
			Model:       req.Model,
			Check:       chk,
			Enforce:     req.Enforce.EnforceOptions(),
			Deadline:    time.Duration(req.DeadlineMS) * time.Millisecond,
			MaxAttempts: req.MaxAttempts,
		})
		return err
	}) {
		return
	}
	// The worker always delivers (the channel is buffered), so waiting
	// here cannot leak even if the client has gone away.
	resp, status := ResponseStatus(<-ch)
	WriteJSON(w, status, resp)
}

// ResponseStatus converts a finished job's Result into the wire Response
// and the HTTP status it travels under — the single mapping both the
// local HTTP handler and a cluster worker agent reporting to its
// coordinator use, so a job fails identically whichever path served it.
func ResponseStatus(res *Result) (Response, int) {
	resp := Response{
		Worker:      res.Worker,
		AffinityHit: res.AffinityHit,
		Fingerprint: fmt.Sprintf("%016x", res.Fingerprint),
		QueueWaitMS: float64(res.QueueWait) / float64(time.Millisecond),
		ServiceMS:   float64(res.Service) / float64(time.Millisecond),
		Report:      res.Report,
		Enforce:     res.Enforce,
		Model:       res.Model,
		Attempts:    res.Attempts,
	}
	if res.LastErr != nil {
		resp.LastError = res.LastErr.Error()
	}
	switch {
	case errors.Is(res.Err, context.DeadlineExceeded):
		resp.Error = "job deadline exceeded"
		return resp, http.StatusGatewayTimeout
	case errors.Is(res.Err, context.Canceled):
		resp.Error = "job cancelled by server shutdown"
		return resp, http.StatusServiceUnavailable
	case res.Err != nil:
		resp.Error = res.Err.Error()
		return resp, http.StatusInternalServerError
	}
	return resp, http.StatusOK
}
