package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestCounterMetricsBackendLabels checks the per-backend node accounting
// and the dimension-gate decline counter behind
// passivityd_counter_nodes_total{backend=...} and
// passivityd_counter_declines_total.
func TestCounterMetricsBackendLabels(t *testing.T) {
	m := newMetrics()
	m.stage("certificate-stage/contour-counter", time.Millisecond, 3, 120, "structured", 0)
	m.stage("certificate-stage/contour-counter", time.Millisecond, 1, 45, "dense", 0)
	m.stage("certificate-stage/contour-counter", time.Millisecond, 0, 0, "structured", 2)
	m.stage("certificate-stage/contour-counter", time.Millisecond, 0, 7, "", 0)
	if got := m.nodesTotal["structured"]; got != 120 {
		t.Errorf("structured nodes = %d, want 120", got)
	}
	if got := m.nodesTotal["dense"]; got != 45 {
		t.Errorf("dense nodes = %d, want 45", got)
	}
	if got := m.nodesTotal["unlabelled"]; got != 7 {
		t.Errorf("unlabelled nodes = %d, want 7", got)
	}
	if m.declinesTotal != 2 {
		t.Errorf("declines = %d, want 2", m.declinesTotal)
	}
}

// TestWriteJSONEncodeFailure pins the header-ordering contract of
// WriteJSON: a value the encoder rejects (here a bare IEEE infinity) must
// come back as a clean 500 with a decodable error body, not a 200 whose
// body truncated mid-stream.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, map[string]float64{"x": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("error body not decodable: %v (%q)", err, rec.Body.String())
	}
	if resp.Error == "" {
		t.Fatalf("error body carries no message: %q", rec.Body.String())
	}
}
