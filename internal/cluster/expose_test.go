package cluster

import (
	"bytes"
	"regexp"
	"slices"
	"strings"
	"testing"
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

// TestClusterMetricsExpositionPinned pins the coordinator's /metrics
// surface: the HELP/TYPE lines and the metric name+label keys must stay
// exactly the set dashboards (and the benchmark's unlabelled
// passivityd_cluster_* scrape) were built on.
func TestClusterMetricsExpositionPinned(t *testing.T) {
	c := NewCoordinator(Options{})
	t.Cleanup(c.Close)
	c.met.completed("check", 200)
	var buf bytes.Buffer
	c.writePrometheus(&buf)
	if got := metricSet(buf.String()); !slices.Equal(got, clusterMetricSet) {
		t.Fatalf("/metrics surface changed:\n got %q\nwant %q", got, clusterMetricSet)
	}
}

// clusterMetricSet is the surface as exposed before the writer was shared
// with the daemon.
var clusterMetricSet = []string{
	"# HELP passivityd_cluster_cache_ships_total Leases that carried a warm-cache address for the host to fetch.",
	"# HELP passivityd_cluster_cache_store_blobs Resident blobs in the content-addressed store.",
	"# HELP passivityd_cluster_cache_store_bytes Resident bytes in the content-addressed store.",
	"# HELP passivityd_cluster_cache_transfers_bytes_total Cache bytes moved through the store, uploads plus downloads.",
	"# HELP passivityd_cluster_duplicates_dropped_total Completions discarded for a stale epoch or unknown item.",
	"# HELP passivityd_cluster_jobs_completed_total Results recorded, by kind and HTTP status.",
	"# HELP passivityd_cluster_jobs_failed_total Items failed by the coordinator itself (attempts spent, shutdown).",
	"# HELP passivityd_cluster_jobs_rejected_total Jobs rejected at admission (ledger full).",
	"# HELP passivityd_cluster_jobs_submitted_total Jobs admitted to the ledger.",
	"# HELP passivityd_cluster_joins_total Worker host registrations.",
	"# HELP passivityd_cluster_leases_active Items currently leased to a host.",
	"# HELP passivityd_cluster_leases_total Leases issued.",
	"# HELP passivityd_cluster_leaves_total Worker hosts evicted (lost or re-joined).",
	"# HELP passivityd_cluster_members Live worker hosts.",
	"# HELP passivityd_cluster_pending Admitted-but-unfinished ledger items.",
	"# HELP passivityd_cluster_quarantined_uploads_total Corrupt cache uploads quarantined at ingest.",
	"# HELP passivityd_cluster_queue_depth Items queued on member queues.",
	"# HELP passivityd_cluster_requeues_total Leased items requeued after lease expiry or host loss.",
	"# HELP passivityd_cluster_steals_total Leases served by stealing from a peer's queue.",
	"# HELP passivityd_cluster_warm_leases_total Leases placed on a host already holding the fingerprint warm.",
	"# TYPE passivityd_cluster_cache_ships_total counter",
	"# TYPE passivityd_cluster_cache_store_blobs gauge",
	"# TYPE passivityd_cluster_cache_store_bytes gauge",
	"# TYPE passivityd_cluster_cache_transfers_bytes_total counter",
	"# TYPE passivityd_cluster_duplicates_dropped_total counter",
	"# TYPE passivityd_cluster_jobs_completed_total counter",
	"# TYPE passivityd_cluster_jobs_failed_total counter",
	"# TYPE passivityd_cluster_jobs_rejected_total counter",
	"# TYPE passivityd_cluster_jobs_submitted_total counter",
	"# TYPE passivityd_cluster_joins_total counter",
	"# TYPE passivityd_cluster_leases_active gauge",
	"# TYPE passivityd_cluster_leases_total counter",
	"# TYPE passivityd_cluster_leaves_total counter",
	"# TYPE passivityd_cluster_members gauge",
	"# TYPE passivityd_cluster_pending gauge",
	"# TYPE passivityd_cluster_quarantined_uploads_total counter",
	"# TYPE passivityd_cluster_queue_depth gauge",
	"# TYPE passivityd_cluster_requeues_total counter",
	"# TYPE passivityd_cluster_steals_total counter",
	"# TYPE passivityd_cluster_warm_leases_total counter",
	"passivityd_cluster_cache_ships_total",
	"passivityd_cluster_cache_store_blobs",
	"passivityd_cluster_cache_store_bytes",
	"passivityd_cluster_cache_transfers_bytes_total",
	"passivityd_cluster_duplicates_dropped_total",
	"passivityd_cluster_jobs_completed_total{kind,status}",
	"passivityd_cluster_jobs_failed_total",
	"passivityd_cluster_jobs_rejected_total",
	"passivityd_cluster_jobs_submitted_total",
	"passivityd_cluster_joins_total",
	"passivityd_cluster_leases_active",
	"passivityd_cluster_leases_total",
	"passivityd_cluster_leaves_total",
	"passivityd_cluster_members",
	"passivityd_cluster_pending",
	"passivityd_cluster_quarantined_uploads_total",
	"passivityd_cluster_queue_depth",
	"passivityd_cluster_requeues_total",
	"passivityd_cluster_steals_total",
	"passivityd_cluster_warm_leases_total",
}
