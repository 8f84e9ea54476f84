package cluster

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/serve"
)

// clusterMetrics aggregates the coordinator's operational counters,
// exported in Prometheus text format on the coordinator's /metrics.
// Gauges (members, active leases, ledger depth) are computed from the
// live ledger at scrape time; only the counters live here.
type clusterMetrics struct {
	mu sync.Mutex

	submittedTotal int64
	rejectedTotal  int64
	joinsTotal     int64
	leavesTotal    int64

	leasesTotal     int64
	warmLeasesTotal int64 // leases whose member already held the fingerprint
	stealsTotal     int64
	requeuesTotal   int64
	duplicatesTotal int64

	completedTotal map[string]int64 // by "kind/status code"
	failedTotal    int64

	quarantinedUploads int64
	cacheShipsTotal    int64 // leases that carried a CacheAddr
	cacheBytesTotal    int64 // bytes moved through the store, both directions
}

func newClusterMetrics() *clusterMetrics {
	return &clusterMetrics{completedTotal: make(map[string]int64)}
}

// add bumps one counter under the registry lock.
func (m *clusterMetrics) add(c *int64, n int64) {
	m.mu.Lock()
	*c += n
	m.mu.Unlock()
}

func (m *clusterMetrics) completed(kind string, status int) {
	m.mu.Lock()
	m.completedTotal[fmt.Sprintf("%s/%d", kind, status)]++
	m.mu.Unlock()
}

// WarmLeaseRatio reports the fraction of leases that landed on a member
// already holding the item's fingerprint warm — the cluster-level
// analogue of the single-host affinity hit ratio, and the warm-transfer
// hit rate BENCH_10.json records.
func (c *Coordinator) WarmLeaseRatio() float64 {
	c.met.mu.Lock()
	defer c.met.mu.Unlock()
	if c.met.leasesTotal == 0 {
		return 0
	}
	return float64(c.met.warmLeasesTotal) / float64(c.met.leasesTotal)
}

// StealsTotal reports how many leases were served by stealing from a
// peer's queue.
func (c *Coordinator) StealsTotal() int64 {
	c.met.mu.Lock()
	defer c.met.mu.Unlock()
	return c.met.stealsTotal
}

// writePrometheus renders the coordinator state on /metrics.
func (c *Coordinator) writePrometheus(w io.Writer) {
	c.mu.Lock()
	membersLive := len(c.members)
	leasesActive := 0
	queueDepth := 0
	for _, m := range c.members {
		leasesActive += len(m.leased)
		queueDepth += len(m.queue)
	}
	pending := c.pending
	c.mu.Unlock()
	storeBytes, storeBlobs := c.store.stats()

	m := c.met
	m.mu.Lock()
	defer m.mu.Unlock()

	serve.WriteMetric(w, "passivityd_cluster_members", "gauge", "Live worker hosts.", membersLive)
	serve.WriteMetric(w, "passivityd_cluster_leases_active", "gauge", "Items currently leased to a host.", leasesActive)
	serve.WriteMetric(w, "passivityd_cluster_queue_depth", "gauge", "Items queued on member queues.", queueDepth)
	serve.WriteMetric(w, "passivityd_cluster_pending", "gauge", "Admitted-but-unfinished ledger items.", pending)

	serve.WriteMetric(w, "passivityd_cluster_jobs_submitted_total", "counter", "Jobs admitted to the ledger.", m.submittedTotal)
	serve.WriteMetric(w, "passivityd_cluster_jobs_rejected_total", "counter", "Jobs rejected at admission (ledger full).", m.rejectedTotal)
	serve.WriteMetric(w, "passivityd_cluster_joins_total", "counter", "Worker host registrations.", m.joinsTotal)
	serve.WriteMetric(w, "passivityd_cluster_leaves_total", "counter", "Worker hosts evicted (lost or re-joined).", m.leavesTotal)

	serve.WriteMetric(w, "passivityd_cluster_leases_total", "counter", "Leases issued.", m.leasesTotal)
	serve.WriteMetric(w, "passivityd_cluster_warm_leases_total", "counter", "Leases placed on a host already holding the fingerprint warm.", m.warmLeasesTotal)
	serve.WriteMetric(w, "passivityd_cluster_steals_total", "counter", "Leases served by stealing from a peer's queue.", m.stealsTotal)
	serve.WriteMetric(w, "passivityd_cluster_requeues_total", "counter", "Leased items requeued after lease expiry or host loss.", m.requeuesTotal)
	serve.WriteMetric(w, "passivityd_cluster_duplicates_dropped_total", "counter", "Completions discarded for a stale epoch or unknown item.", m.duplicatesTotal)

	serve.WriteFamily(w, "passivityd_cluster_jobs_completed_total", "counter", "Results recorded, by kind and HTTP status.", []string{"kind", "status"}, m.completedTotal)
	serve.WriteMetric(w, "passivityd_cluster_jobs_failed_total", "counter", "Items failed by the coordinator itself (attempts spent, shutdown).", m.failedTotal)

	serve.WriteMetric(w, "passivityd_cluster_quarantined_uploads_total", "counter", "Corrupt cache uploads quarantined at ingest.", m.quarantinedUploads)
	serve.WriteMetric(w, "passivityd_cluster_cache_ships_total", "counter", "Leases that carried a warm-cache address for the host to fetch.", m.cacheShipsTotal)
	serve.WriteMetric(w, "passivityd_cluster_cache_transfers_bytes_total", "counter", "Cache bytes moved through the store, uploads plus downloads.", m.cacheBytesTotal)
	serve.WriteMetric(w, "passivityd_cluster_cache_store_bytes", "gauge", "Resident bytes in the content-addressed store.", storeBytes)
	serve.WriteMetric(w, "passivityd_cluster_cache_store_blobs", "gauge", "Resident blobs in the content-addressed store.", storeBlobs)
}
