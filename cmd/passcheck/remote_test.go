package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	repro "repro"
	"repro/internal/serve"
)

// testClient builds a remoteRun with fast, deterministic backoff against
// the given server.
func testClient(t *testing.T, base string, retries int) *remoteRun {
	t.Helper()
	return &remoteRun{
		ctx: context.Background(), base: base, cli: &http.Client{},
		retries: retries, waitBase: time.Millisecond, waitMax: 5 * time.Millisecond,
	}
}

func okBody(t *testing.T) []byte {
	t.Helper()
	blob, err := json.Marshal(&serve.Response{
		Worker: 1, Report: &repro.PassivityReport{Passive: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// The client must absorb queue-full 429s and server-side 5xx hiccups and
// still deliver the eventual 200.
func TestPostRetriesUntilSuccess(t *testing.T) {
	var calls atomic.Int64
	ok := okBody(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
		case 2:
			http.Error(w, "bad gateway", http.StatusBadGateway)
		default:
			w.Write(ok)
		}
	}))
	defer srv.Close()

	r := testClient(t, srv.URL, 5)
	resp, err := r.post("/v1/check", &serve.Request{})
	if err != nil {
		t.Fatalf("post after flaky starts: %v", err)
	}
	if resp.Worker != 1 || !resp.Report.Passive {
		t.Fatalf("decoded response mangled: %+v", resp)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d calls, want 3 (429, 502, 200)", n)
	}
}

// A non-2xx with a body that is not a Response must surface the HTTP
// status and a snippet of the raw body, not a JSON decode error.
func TestPostUndecodableErrorBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprint(w, "<html>proxy exploded</html>")
	}))
	defer srv.Close()

	r := testClient(t, srv.URL, 2)
	_, err := r.post("/v1/check", &serve.Request{})
	if err == nil {
		t.Fatal("want error for persistent 500")
	}
	for _, want := range []string{"HTTP 500", "proxy exploded"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not surface %q", err, want)
		}
	}
	var he *httpError
	if !errors.As(err, &he) || he.status != http.StatusInternalServerError {
		t.Fatalf("want *httpError with status 500, got %#v", err)
	}
}

// Client-side 4xx statuses are final: one request, no backoff, and the
// daemon's own error string is surfaced.
func TestPostClientErrorNotRetried(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(&serve.Response{Error: "missing model"})
	}))
	defer srv.Close()

	r := testClient(t, srv.URL, 5)
	_, err := r.post("/v1/check", &serve.Request{})
	if err == nil || !strings.Contains(err.Error(), "HTTP 400") || !strings.Contains(err.Error(), "missing model") {
		t.Fatalf("want daemon error surfaced with status, got %v", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("4xx was retried: %d calls", n)
	}
}

// A daemon that never recovers exhausts the attempt budget.
func TestPostExhaustsRetries(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	r := testClient(t, srv.URL, 3)
	_, err := r.post("/v1/check", &serve.Request{})
	if err == nil || !strings.Contains(err.Error(), "HTTP 503") {
		t.Fatalf("want HTTP 503 after exhausted retries, got %v", err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d calls, want exactly the 3-attempt budget", n)
	}
}

// Connection-level failures (daemon down) are retryable too.
func TestPostConnectionErrorRetried(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	base := srv.URL
	srv.Close() // nothing listens here any more

	r := testClient(t, base, 2)
	start := time.Now()
	_, err := r.post("/v1/check", &serve.Request{})
	if err == nil {
		t.Fatal("want connection error")
	}
	if !retryableRemote(err) {
		t.Fatalf("connection error classified non-retryable: %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("connection retries did not stay bounded")
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"2", 2 * time.Second},
		{"0", 0},
		{"soon", 0},
		{"-3", 0},
	}
	for _, c := range cases {
		if got := parseRetryAfter(c.in); got != c.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	// HTTP-date form: a timestamp well in the future yields a positive
	// wait; one in the past yields zero.
	future := time.Now().Add(90 * time.Second).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(future); got < 80*time.Second || got > 91*time.Second {
		t.Errorf("parseRetryAfter(future date) = %v, want ~90s", got)
	}
	past := time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(past); got != 0 {
		t.Errorf("parseRetryAfter(past date) = %v, want 0", got)
	}
}

// The client's backoff (serve.Backoff) grows exponentially from
// waitBase, is capped at waitMax, stays positive (jitter never zeroes it
// out), and yields to the daemon's Retry-After hint.
func TestBackoffSchedule(t *testing.T) {
	r := &remoteRun{
		waitBase: 100 * time.Millisecond, waitMax: time.Second,
	}
	plain := errors.New("conn reset")
	for attempt := 1; attempt <= 8; attempt++ {
		ideal := r.waitBase << (attempt - 1)
		if ideal > r.waitMax || ideal <= 0 {
			ideal = r.waitMax
		}
		for i := 0; i < 32; i++ {
			d := serve.Backoff(attempt, r.waitBase, r.waitMax, retryHint(plain))
			if d < ideal/2 || d > ideal {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, ideal/2, ideal)
			}
		}
	}
	hinted := &httpError{status: 429, retryAfter: 3 * time.Second}
	for i := 0; i < 32; i++ {
		if d := serve.Backoff(1, r.waitBase, r.waitMax, retryHint(hinted)); d < 1500*time.Millisecond || d > 3*time.Second {
			t.Fatalf("Retry-After hint ignored: backoff %v", d)
		}
	}
}
