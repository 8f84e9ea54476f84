package serve

import (
	"bytes"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	repro "repro"
)

// metricSet reduces a Prometheus text exposition to its HELP and TYPE
// lines plus one "name{label,...}" key per sample (label names only), in
// sorted order — what a /metrics scraper depends on.
func metricSet(text string) []string {
	labelName := regexp.MustCompile(`([a-z_]+)="`)
	seen := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			seen[line] = true
			continue
		}
		name, rest, _ := strings.Cut(line, " ")
		if i := strings.IndexByte(name, '{'); i >= 0 {
			var keys []string
			for _, m := range labelName.FindAllStringSubmatch(line[i:len(line)-len(rest)], -1) {
				keys = append(keys, m[1])
			}
			name = name[:i] + "{" + strings.Join(keys, ",") + "}"
		}
		seen[name] = true
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// TestMetricsExpositionPinned pins the daemon's /metrics surface: with
// every labelled family populated, the HELP/TYPE lines and the metric
// name+label keys must stay exactly the set dashboards were built on.
func TestMetricsExpositionPinned(t *testing.T) {
	s, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := s.met
	m.rejected("queue_full")
	m.finished(JobCheck, &Result{})
	m.finished(JobEnforce, &Result{Err: ErrQueueFull})
	m.stage("certificate-stage/contour-counter", time.Millisecond, 3, 120, "structured", 1)
	m.cacheStats(0, repro.SessionCacheStats{Models: 1, Bytes: 100})
	var buf bytes.Buffer
	s.writePrometheus(&buf)
	if got := metricSet(buf.String()); !slices.Equal(got, serveMetricSet) {
		t.Fatalf("/metrics surface changed:\n got %q\nwant %q", got, serveMetricSet)
	}
}

// serveMetricSet is the surface as exposed before the writer was shared
// with the coordinator.
var serveMetricSet = []string{
	"# HELP passivityd_affinity_hit_ratio Affinity hits over accepted jobs.",
	"# HELP passivityd_affinity_hits_total Jobs placed on the worker already holding their pole-set fingerprint.",
	"# HELP passivityd_affinity_misses_total Jobs placed by the least-loaded fallback.",
	"# HELP passivityd_counter_declines_total Intervals certificate stages refused at their dimension gates.",
	"# HELP passivityd_counter_nodes_total Contour-quadrature determinant evaluations reported by certificate-stage events, by kernel backend.",
	"# HELP passivityd_jobs_accepted_total Jobs admitted to the queue.",
	"# HELP passivityd_jobs_completed_total Finished jobs by kind and status.",
	"# HELP passivityd_jobs_rejected_total Jobs rejected at admission.",
	"# HELP passivityd_panics_total Worker panics recovered by job supervision.",
	"# HELP passivityd_quarantined_caches_total Corrupt cache files quarantined at load.",
	"# HELP passivityd_queue_depth Accepted-but-unfinished jobs.",
	"# HELP passivityd_queue_wait_count Jobs the wait total covers.",
	"# HELP passivityd_queue_wait_seconds_total Cumulative time jobs spent queued.",
	"# HELP passivityd_requeued_total Jobs moved onto a different worker's queue.",
	"# HELP passivityd_retries_total Job attempts re-run after a retryable failure.",
	"# HELP passivityd_service_count Jobs the service totals cover, by kind.",
	"# HELP passivityd_service_seconds_total Cumulative worker time by job kind.",
	"# HELP passivityd_sigma_samples_total Sigma evaluations reported by progress events.",
	"# HELP passivityd_stage_events_total Progress events per stage.",
	"# HELP passivityd_stage_seconds_total Wall-clock charged to each progress stage.",
	"# HELP passivityd_worker_cache_bytes Estimated resident evaluation-cache bytes per worker Session.",
	"# HELP passivityd_worker_cache_models Resident pole-set caches per worker Session.",
	"# HELP passivityd_worker_restarts_total Worker Sessions rebuilt fresh after a panic.",
	"# HELP passivityd_workers Worker pool size.",
	"# HELP passivityd_workers_retired_total Workers retired for exhausting their restart budget.",
	"# TYPE passivityd_affinity_hit_ratio gauge",
	"# TYPE passivityd_affinity_hits_total counter",
	"# TYPE passivityd_affinity_misses_total counter",
	"# TYPE passivityd_counter_declines_total counter",
	"# TYPE passivityd_counter_nodes_total counter",
	"# TYPE passivityd_jobs_accepted_total counter",
	"# TYPE passivityd_jobs_completed_total counter",
	"# TYPE passivityd_jobs_rejected_total counter",
	"# TYPE passivityd_panics_total counter",
	"# TYPE passivityd_quarantined_caches_total counter",
	"# TYPE passivityd_queue_depth gauge",
	"# TYPE passivityd_queue_wait_count counter",
	"# TYPE passivityd_queue_wait_seconds_total counter",
	"# TYPE passivityd_requeued_total counter",
	"# TYPE passivityd_retries_total counter",
	"# TYPE passivityd_service_count counter",
	"# TYPE passivityd_service_seconds_total counter",
	"# TYPE passivityd_sigma_samples_total counter",
	"# TYPE passivityd_stage_events_total counter",
	"# TYPE passivityd_stage_seconds_total counter",
	"# TYPE passivityd_worker_cache_bytes gauge",
	"# TYPE passivityd_worker_cache_models gauge",
	"# TYPE passivityd_worker_restarts_total counter",
	"# TYPE passivityd_workers gauge",
	"# TYPE passivityd_workers_retired_total counter",
	"passivityd_affinity_hit_ratio",
	"passivityd_affinity_hits_total",
	"passivityd_affinity_misses_total",
	"passivityd_counter_declines_total",
	"passivityd_counter_nodes_total{backend}",
	"passivityd_jobs_accepted_total",
	"passivityd_jobs_completed_total{kind,status}",
	"passivityd_jobs_rejected_total{reason}",
	"passivityd_panics_total",
	"passivityd_quarantined_caches_total",
	"passivityd_queue_depth",
	"passivityd_queue_wait_count",
	"passivityd_queue_wait_seconds_total",
	"passivityd_requeued_total",
	"passivityd_retries_total",
	"passivityd_service_count{kind}",
	"passivityd_service_seconds_total{kind}",
	"passivityd_sigma_samples_total",
	"passivityd_stage_events_total{stage}",
	"passivityd_stage_seconds_total{stage}",
	"passivityd_worker_cache_bytes{worker}",
	"passivityd_worker_cache_models{worker}",
	"passivityd_worker_restarts_total",
	"passivityd_workers",
	"passivityd_workers_retired_total",
}
