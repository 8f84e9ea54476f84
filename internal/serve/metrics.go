package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	repro "repro"
)

// metrics aggregates the server's operational counters. Everything is
// guarded by one mutex — update rates are per job and per progress event,
// far below contention territory — and exported in Prometheus text format
// by writePrometheus.
type metrics struct {
	mu sync.Mutex

	acceptedTotal  int64
	rejectedTotal  map[string]int64 // by reason: queue_full, draining
	affinityHits   int64
	affinityMisses int64

	// completedTotal counts finished jobs by "kind/status" (status: ok,
	// error, deadline, cancelled).
	completedTotal map[string]int64

	// Fault-tolerance counters: recovered worker panics, Session rebuilds
	// after panics, workers retired for exhausting their restart budget,
	// attempt re-runs, jobs moved to another worker's queue, and cache
	// files quarantined as corrupt at load.
	panicsTotal      int64
	restartsTotal    int64
	retiredTotal     int64
	retriesTotal     int64
	requeuedTotal    int64
	quarantinedTotal int64

	queueWaitSec   float64
	queueWaitCount int64
	serviceSec     map[string]float64 // by job kind
	serviceCount   map[string]int64

	// stageSec/stageEvents charge wall-clock between progress events to
	// the emitting stage (check, iteration, certificate-stage) — the
	// per-stage latency view of the PR 5 progress stream.
	stageSec    map[string]float64
	stageEvents map[string]int64
	sigmaTotal  int64
	// nodesTotal counts contour-quadrature determinant evaluations by the
	// kernel backend that priced them ("structured" or "dense");
	// declinesTotal counts the intervals certificate stages refused at
	// their dimension gates.
	nodesTotal    map[string]int64
	declinesTotal int64

	// cacheBytes/cacheModels hold the latest per-worker Session cache
	// snapshot, keyed by worker index.
	cacheBytes, cacheModels map[string]int64
}

func newMetrics() *metrics {
	return &metrics{
		rejectedTotal:  make(map[string]int64),
		completedTotal: make(map[string]int64),
		serviceSec:     make(map[string]float64),
		serviceCount:   make(map[string]int64),
		stageSec:       make(map[string]float64),
		stageEvents:    make(map[string]int64),
		nodesTotal:     make(map[string]int64),
		cacheBytes:     make(map[string]int64),
		cacheModels:    make(map[string]int64),
	}
}

// add bumps one counter under the registry lock.
func (m *metrics) add(c *int64, n int64) {
	m.mu.Lock()
	*c += n
	m.mu.Unlock()
}

func (m *metrics) accepted(affinityHit bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.acceptedTotal++
	if affinityHit {
		m.affinityHits++
	} else {
		m.affinityMisses++
	}
}

func (m *metrics) rejected(reason string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rejectedTotal[reason]++
}

func (m *metrics) finished(kind JobKind, res *Result) {
	status := "ok"
	switch {
	case errors.Is(res.Err, context.DeadlineExceeded):
		status = "deadline"
	case errors.Is(res.Err, context.Canceled):
		status = "cancelled"
	case res.Err != nil:
		status = "error"
	}
	k := kind.String()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.completedTotal[k+"/"+status]++
	m.queueWaitSec += res.QueueWait.Seconds()
	m.queueWaitCount++
	m.serviceSec[k] += res.Service.Seconds()
	m.serviceCount[k]++
}

func (m *metrics) stage(stage string, d time.Duration, samples, nodes int, backend string, declined int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stageSec[stage] += d.Seconds()
	m.stageEvents[stage]++
	m.sigmaTotal += int64(samples)
	if nodes > 0 {
		if backend == "" {
			backend = "unlabelled"
		}
		m.nodesTotal[backend] += int64(nodes)
	}
	m.declinesTotal += int64(declined)
}

func (m *metrics) cacheStats(worker int, st repro.SessionCacheStats) {
	id := strconv.Itoa(worker)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cacheBytes[id] = st.Bytes
	m.cacheModels[id] = int64(st.Models)
}

// hitRatio is hits/(hits+misses) over all accepted jobs (0 when none
// were accepted yet). Callers hold m.mu.
func (m *metrics) hitRatio() float64 {
	if t := m.affinityHits + m.affinityMisses; t > 0 {
		return float64(m.affinityHits) / float64(t)
	}
	return 0
}

// AffinityHitRatio reports hits/(hits+misses) over all accepted jobs
// (0 when none were accepted yet).
func (s *Server) AffinityHitRatio() float64 {
	s.met.mu.Lock()
	defer s.met.mu.Unlock()
	return s.met.hitRatio()
}

// WriteMetric writes one unlabelled metric in the Prometheus text
// exposition format (hand-rolled — the module takes no dependencies):
// HELP, TYPE ("counter" or "gauge") and the sample.
func WriteMetric(w io.Writer, name, typ, help string, v any) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, typ, name, v)
}

// WriteFamily writes one labelled metric family: HELP, TYPE, then one
// sample per key of values in sorted key order. A key holds the values of
// all labels joined by "/", split at the first len(labels)-1 slashes (the
// last label's value may itself contain slashes).
func WriteFamily[V int64 | float64](w io.Writer, name, typ, help string, labels []string, values map[string]V) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for _, k := range slices.Sorted(maps.Keys(values)) {
		pairs := strings.SplitN(k, "/", len(labels))
		for i, v := range pairs {
			pairs[i] = fmt.Sprintf("%s=%q", labels[i], v)
		}
		fmt.Fprintf(w, "%s{%s} %v\n", name, strings.Join(pairs, ","), values[k])
	}
}

// writePrometheus renders the server state on /metrics.
func (s *Server) writePrometheus(w io.Writer) {
	queued := s.QueueDepth()
	m := s.met
	m.mu.Lock()
	defer m.mu.Unlock()

	WriteMetric(w, "passivityd_workers", "gauge", "Worker pool size.", len(s.workers))
	WriteMetric(w, "passivityd_queue_depth", "gauge", "Accepted-but-unfinished jobs.", queued)
	WriteMetric(w, "passivityd_jobs_accepted_total", "counter", "Jobs admitted to the queue.", m.acceptedTotal)
	WriteFamily(w, "passivityd_jobs_rejected_total", "counter", "Jobs rejected at admission.", []string{"reason"}, m.rejectedTotal)

	WriteMetric(w, "passivityd_affinity_hits_total", "counter", "Jobs placed on the worker already holding their pole-set fingerprint.", m.affinityHits)
	WriteMetric(w, "passivityd_affinity_misses_total", "counter", "Jobs placed by the least-loaded fallback.", m.affinityMisses)
	WriteMetric(w, "passivityd_affinity_hit_ratio", "gauge", "Affinity hits over accepted jobs.", m.hitRatio())

	WriteMetric(w, "passivityd_panics_total", "counter", "Worker panics recovered by job supervision.", m.panicsTotal)
	WriteMetric(w, "passivityd_worker_restarts_total", "counter", "Worker Sessions rebuilt fresh after a panic.", m.restartsTotal)
	WriteMetric(w, "passivityd_workers_retired_total", "counter", "Workers retired for exhausting their restart budget.", m.retiredTotal)
	WriteMetric(w, "passivityd_retries_total", "counter", "Job attempts re-run after a retryable failure.", m.retriesTotal)
	WriteMetric(w, "passivityd_requeued_total", "counter", "Jobs moved onto a different worker's queue.", m.requeuedTotal)
	WriteMetric(w, "passivityd_quarantined_caches_total", "counter", "Corrupt cache files quarantined at load.", m.quarantinedTotal)

	WriteFamily(w, "passivityd_jobs_completed_total", "counter", "Finished jobs by kind and status.", []string{"kind", "status"}, m.completedTotal)
	WriteMetric(w, "passivityd_queue_wait_seconds_total", "counter", "Cumulative time jobs spent queued.", m.queueWaitSec)
	WriteMetric(w, "passivityd_queue_wait_count", "counter", "Jobs the wait total covers.", m.queueWaitCount)
	WriteFamily(w, "passivityd_service_seconds_total", "counter", "Cumulative worker time by job kind.", []string{"kind"}, m.serviceSec)
	WriteFamily(w, "passivityd_service_count", "counter", "Jobs the service totals cover, by kind.", []string{"kind"}, m.serviceCount)

	WriteFamily(w, "passivityd_stage_seconds_total", "counter", "Wall-clock charged to each progress stage.", []string{"stage"}, m.stageSec)
	WriteFamily(w, "passivityd_stage_events_total", "counter", "Progress events per stage.", []string{"stage"}, m.stageEvents)
	WriteMetric(w, "passivityd_sigma_samples_total", "counter", "Sigma evaluations reported by progress events.", m.sigmaTotal)
	WriteFamily(w, "passivityd_counter_nodes_total", "counter", "Contour-quadrature determinant evaluations reported by certificate-stage events, by kernel backend.", []string{"backend"}, m.nodesTotal)
	WriteMetric(w, "passivityd_counter_declines_total", "counter", "Intervals certificate stages refused at their dimension gates.", m.declinesTotal)

	WriteFamily(w, "passivityd_worker_cache_bytes", "gauge", "Estimated resident evaluation-cache bytes per worker Session.", []string{"worker"}, m.cacheBytes)
	WriteFamily(w, "passivityd_worker_cache_models", "gauge", "Resident pole-set caches per worker Session.", []string{"worker"}, m.cacheModels)
}
