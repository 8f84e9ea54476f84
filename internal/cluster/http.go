package cluster

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/serve"
)

// maxBodyBytes bounds any request body the coordinator reads (models and
// cache uploads both grow with poles × ports²).
const maxBodyBytes = 256 << 20

// clientRequest mirrors serve.Request with the model kept as raw bytes:
// the ledger stores the admitted JSON verbatim, so every lease of the
// item ships byte-identical model input and a retry restarts pristine.
type clientRequest struct {
	Model       json.RawMessage   `json:"model"`
	Check       serve.CheckSpec   `json:"check"`
	Enforce     serve.EnforceSpec `json:"enforce"`
	DeadlineMS  int64             `json:"deadline_ms,omitempty"`
	MaxAttempts int               `json:"max_attempts,omitempty"`
}

// Validate rejects a request without a model or with a malformed check
// spec — before a worker burns a lease on it, exactly as the single-host
// surface does.
func (r *clientRequest) Validate() error {
	if len(r.Model) == 0 {
		return errors.New("request carries no model")
	}
	_, err := r.Check.CheckOptions()
	return err
}

// encodeCompletion frames a completion for POST /cluster/v1/complete:
// an 8-byte little-endian length, that many bytes of CompleteRequest
// JSON (which never carries Cache), then the raw cache blob, if any.
func encodeCompletion(req *CompleteRequest) ([]byte, error) {
	head, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, 8, 8+len(head)+len(req.Cache))
	binary.LittleEndian.PutUint64(frame, uint64(len(head)))
	frame = append(frame, head...)
	return append(frame, req.Cache...), nil
}

// decodeCompletion parses a framed completion body. The returned
// request's Cache is a sub-slice of body (nil when the frame carries no
// blob), so the upload is never copied.
func decodeCompletion(body []byte) (*CompleteRequest, error) {
	if len(body) < 8 {
		return nil, fmt.Errorf("short completion frame (%d bytes)", len(body))
	}
	n := binary.LittleEndian.Uint64(body)
	if n > uint64(len(body)-8) {
		return nil, fmt.Errorf("completion frame declares %d JSON bytes, body holds %d", n, len(body)-8)
	}
	var req CompleteRequest
	if err := json.Unmarshal(body[8:8+n], &req); err != nil {
		return nil, fmt.Errorf("decoding completion: %w", err)
	}
	if blob := body[8+n:]; len(blob) > 0 {
		req.Cache = blob
	}
	return &req, nil
}

// readBody reads a request body of exactly Content-Length bytes, bounded
// by maxBodyBytes, into one buffer, answering the error itself.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return nil, false
	}
	switch n := r.ContentLength; {
	case n < 0:
		serve.WriteJSON(w, http.StatusLengthRequired, serve.Response{Error: "request needs a Content-Length"})
		return nil, false
	case n > maxBodyBytes:
		serve.WriteJSON(w, http.StatusRequestEntityTooLarge, serve.Response{Error: fmt.Sprintf("request body of %d bytes exceeds %d", n, maxBodyBytes)})
		return nil, false
	}
	body := make([]byte, r.ContentLength)
	if _, err := io.ReadFull(r.Body, body); err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, serve.Response{Error: "reading request: " + err.Error()})
		return nil, false
	}
	return body, true
}

// Handler returns the coordinator's HTTP interface. The client surface is
// wire-compatible with a single passivityd daemon; the worker surface
// carries the /cluster/v1/ pull protocol:
//
//	POST /v1/check            submit a check job, wait, return its Response
//	POST /v1/enforce          submit an enforce job
//	POST /cluster/v1/join     register a worker host
//	POST /cluster/v1/lease    long-poll for work (204 = none, 410 = re-join)
//	POST /cluster/v1/complete deliver a result (+ optional cache upload) as
//	                          one octet-stream frame: 8-byte LE length,
//	                          CompleteRequest JSON, raw blob bytes
//	POST /cluster/v1/heartbeat renew liveness and leases
//	GET  /cluster/v1/cache    download a content-addressed cache blob (raw
//	                          bytes; 404 once evicted or superseded)
//	GET  /metrics             Prometheus text-format metrics
//	GET  /healthz             readiness (503 until a worker host has joined)
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/check", func(w http.ResponseWriter, r *http.Request) {
		c.handleJob(w, r, serve.JobCheck)
	})
	mux.HandleFunc("/v1/enforce", func(w http.ResponseWriter, r *http.Request) {
		c.handleJob(w, r, serve.JobEnforce)
	})
	mux.HandleFunc("/cluster/v1/join", func(w http.ResponseWriter, r *http.Request) {
		var req JoinRequest
		if !serve.DecodePost(w, r, &req, maxBodyBytes) {
			return
		}
		resp, err := c.Join(&req)
		if err != nil {
			serve.WriteJSON(w, http.StatusBadRequest, serve.Response{Error: err.Error()})
			return
		}
		serve.WriteJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("/cluster/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !serve.DecodePost(w, r, &req, maxBodyBytes) {
			return
		}
		resp, err := c.Lease(r.Context(), &req)
		switch {
		case err == ErrUnknownWorker:
			// 410 tells the agent its registration is gone — re-join.
			serve.WriteJSON(w, http.StatusGone, serve.Response{Error: err.Error()})
		case err != nil:
			serve.WriteJSON(w, http.StatusServiceUnavailable, serve.Response{Error: err.Error()})
		case resp == nil:
			w.WriteHeader(http.StatusNoContent)
		default:
			serve.WriteJSON(w, http.StatusOK, resp)
		}
	})
	mux.HandleFunc("/cluster/v1/complete", func(w http.ResponseWriter, r *http.Request) {
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		req, err := decodeCompletion(body)
		if err != nil {
			serve.WriteJSON(w, http.StatusBadRequest, serve.Response{Error: err.Error()})
			return
		}
		serve.WriteJSON(w, http.StatusOK, c.Complete(req))
	})
	mux.HandleFunc("/cluster/v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !serve.DecodePost(w, r, &req, maxBodyBytes) {
			return
		}
		if err := c.Heartbeat(&req); err != nil {
			serve.WriteJSON(w, http.StatusGone, serve.Response{Error: err.Error()})
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/cluster/v1/cache", func(w http.ResponseWriter, r *http.Request) {
		blob := c.CacheBlob(r.URL.Query().Get("addr"))
		if blob == nil {
			// Evicted or never stored: the agent runs the job cold.
			http.Error(w, "no such blob", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
		w.Write(blob)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		c.writePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		c.mu.Lock()
		closed, members := c.closed, len(c.members)
		c.mu.Unlock()
		switch {
		case closed:
			http.Error(w, "closed", http.StatusServiceUnavailable)
		case members == 0:
			// A coordinator with no worker hosts parks every job; an LB
			// should hold traffic until the first join.
			http.Error(w, "no workers joined", http.StatusServiceUnavailable)
		default:
			fmt.Fprintln(w, "ok")
		}
	})
	return mux
}

// handleJob admits one client job to the ledger and waits for its result.
func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request, kind serve.JobKind) {
	var req clientRequest
	var it *item
	// RFC 9110 allows either form of Retry-After; the coordinator hints
	// with an HTTP-date (the daemon hints with delta-seconds), so clients
	// must parse both — serve.ParseRetryAfter does.
	retryAt := time.Now().Add(2 * time.Second).UTC().Format(http.TimeFormat)
	if !serve.AdmitJob(w, r, &req, maxBodyBytes, ErrTooManyPending, retryAt, func() error {
		var err error
		it, err = c.Submit(kind, req.Model, req.Check, req.Enforce, req.DeadlineMS, req.MaxAttempts)
		return err
	}) {
		return
	}
	// The coordinator always finishes an admitted item (lease expiry and
	// Close both fail it), so this wait cannot leak; a departed client
	// just never reads the buffered result.
	<-it.done
	serve.WriteJSON(w, it.status, it.resp)
}
