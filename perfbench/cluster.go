package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	repro "repro"
	"repro/internal/cluster"
	"repro/internal/serve"
)

// clusterSystem is one coordinator with its two agent hosts, all behind
// loopback HTTP.
type clusterSystem struct {
	coord  *cluster.Coordinator
	front  *loopback
	hosts  []*serve.Server
	agents []*cluster.Agent
}

func (cs *clusterSystem) close() {
	for _, a := range cs.agents {
		a.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, h := range cs.hosts {
		if err := h.Drain(ctx); err != nil {
			logf("draining host: %v", err)
		}
	}
	cs.coord.Close()
	cs.front.close()
}

// pollWait is the coordinator's default lease long-poll bound; a job
// whose latency reaches half of it sat out a lost wake-up.
const pollWait = 2 * time.Second

func runClusterChurn(cfg config, rep *report) error {
	const nFP, variants = 16, 8
	models, err := library(cfg.seed, nFP, variants)
	if err != nil {
		return fmt.Errorf("building library: %w", err)
	}
	bodies := make([][]byte, len(models))
	for i, m := range models {
		if bodies[i], err = checkBody(m, serve.CheckSpec{Method: "adaptive"}); err != nil {
			return err
		}
	}

	// References: a local Session.Check of every model. The same sweep
	// probes the library's steady-state cache footprint; each host gets
	// 30% of it, so neither can hold the whole library.
	chk := repro.CheckOptions{Method: repro.CheckAdaptive}
	probe := repro.NewSession()
	refs := make([]*repro.PassivityReport, len(models))
	for i, m := range models {
		if refs[i], err = probe.Check(context.Background(), m, chk); err != nil {
			return fmt.Errorf("reference check %d: %w", i, err)
		}
	}
	budget := probe.CacheStats().Bytes * 3 / 10
	logf("library %d models, footprint %d bytes, host budget %d", len(models), probe.CacheStats().Bytes, budget)

	cli := newClient()
	defer cli.CloseIdleConnections()
	var (
		m0, m1    map[string]float64
		scrapeErr error
		calls     []call
		idx       []int
		mu        sync.Mutex
	)
	cs, st, setupS, err := measure(phases[*clusterSystem]{
		callers:  2,
		build:    func() (*clusterSystem, error) { return startCluster(budget) },
		teardown: (*clusterSystem).close,
		// Warm-up sweep: placement, host caches and the blob store fill.
		nWarm: len(models),
		warm: func(cs *clusterSystem, i int) error {
			return post(cli, cs.front.url+"/v1/check", bodies[i]).err
		},
		onStart: func(cs *clusterSystem) { m0, scrapeErr = scrape(cli, cs.front.url) },
		job: func(cs *clusterSystem, seq int) {
			i := seq % len(models)
			c := post(cli, cs.front.url+"/v1/check", bodies[i])
			mu.Lock()
			calls = append(calls, c)
			idx = append(idx, i)
			mu.Unlock()
		},
	}, cfg.seconds)
	if err != nil {
		return err
	}
	defer cs.close()
	rep.setE2E("setup_s", "s", setupS)
	if scrapeErr == nil {
		m1, scrapeErr = scrape(cli, cs.front.url)
	}
	if scrapeErr != nil {
		return fmt.Errorf("scraping coordinator metrics: %w", scrapeErr)
	}
	rep.setLoopMetrics(st)
	rep.attempted = len(calls)

	// Output checks: Passive and MaxSigma bitwise equal to the local
	// reference.
	var reqBytes, respBytes, waits, services, overheads []float64
	stalled := 0
	for n, c := range calls {
		i := idx[n]
		switch {
		case c.err != nil:
			rep.fail("check job %d (model %d): %v", n, i, c.err)
			continue
		case c.resp.Report == nil:
			rep.fail("check job %d (model %d): response carries no report", n, i)
			continue
		case c.resp.Report.Passive != refs[i].Passive ||
			math.Float64bits(c.resp.Report.MaxSigma) != math.Float64bits(refs[i].MaxSigma):
			rep.fail("check job %d (model %d): passive=%v σmax=%v, reference passive=%v σmax=%v",
				n, i, c.resp.Report.Passive, c.resp.Report.MaxSigma, refs[i].Passive, refs[i].MaxSigma)
			continue
		}
		reqBytes = append(reqBytes, float64(len(bodies[i])))
		respBytes = append(respBytes, float64(c.respBytes))
		waits = append(waits, c.resp.QueueWaitMS)
		services = append(services, c.resp.ServiceMS)
		overheads = append(overheads, c.latMS-c.resp.QueueWaitMS-c.resp.ServiceMS)
		if c.latMS >= float64(pollWait/2)/float64(time.Millisecond) {
			stalled++
		}
	}
	rep.checked = true
	if !cfg.trace {
		return nil
	}

	jobs := float64(len(calls))
	delta := func(name string) float64 { return m1[name] - m0[name] }
	leases := delta("passivityd_cluster_leases_total")
	warm := 0.0
	if leases > 0 {
		warm = delta("passivityd_cluster_warm_leases_total") / leases
	}
	rep.setLayer("wire.req_bytes", "bytes", median(reqBytes))
	rep.setLayer("wire.resp_bytes", "bytes", median(respBytes))
	rep.setLayer("serve.queue_wait_ms", "ms", median(waits))
	rep.setLayer("serve.service_ms", "ms", median(services))
	rep.setLayer("cluster.overhead_ms", "ms", median(overheads))
	rep.setLayer("cluster.warm_lease_ratio", "ratio", warm)
	rep.setLayer("cluster.steals_per_job", "1/job", delta("passivityd_cluster_steals_total")/jobs)
	rep.setLayer("cluster.ship_bytes_per_job", "bytes/job", delta("passivityd_cluster_cache_transfers_bytes_total")/jobs)
	rep.setLayer("cluster.requeues", "count", delta("passivityd_cluster_requeues_total"))
	rep.setLayer("cluster.stalled_jobs", "count", float64(stalled))

	// Blob replay on the hosts' own resident caches: export, validate,
	// import into a fresh Session.
	var blobBytes, exportMS, fpMS, importMS []float64
	for _, h := range cs.hosts {
		for _, fp := range h.CacheFingerprints() {
			t := time.Now()
			blob, err := h.ExportCache(fp)
			if err != nil {
				continue // checked out or evicted meanwhile: nothing to replay
			}
			exportMS = append(exportMS, msSince(t))
			blobBytes = append(blobBytes, float64(len(blob)))
			t = time.Now()
			got, err := repro.CacheBlobFingerprint(blob)
			fpMS = append(fpMS, msSince(t))
			if err != nil || got != fp {
				rep.fail("cache blob %016x does not validate: %v", fp, err)
				continue
			}
			t = time.Now()
			if _, err := repro.NewSession().ImportCache(blob); err != nil {
				rep.fail("importing cache blob %016x: %v", fp, err)
				continue
			}
			importMS = append(importMS, msSince(t))
		}
	}
	rep.setLayer("session.blob_bytes", "bytes", median(blobBytes))
	rep.setLayer("session.export_ms", "ms", median(exportMS))
	rep.setLayer("session.blob_fingerprint_ms", "ms", median(fpMS))
	rep.setLayer("session.import_ms", "ms", median(importMS))

	// Local check replay of the library at a host worker's parallelism:
	// first check of each model in a fresh Session, then a repeat.
	sess := repro.NewSession(repro.WithWorkers(1))
	var cold, warmMS []float64
	for pass := 0; pass < 2; pass++ {
		for i, m := range models {
			t := time.Now()
			r, err := sess.Check(context.Background(), m, chk)
			ms := msSince(t)
			if err != nil || math.Float64bits(r.MaxSigma) != math.Float64bits(refs[i].MaxSigma) {
				rep.fail("local check replay of model %d disagrees with its reference (%v)", i, err)
				continue
			}
			if pass == 0 {
				cold = append(cold, ms)
			} else {
				warmMS = append(warmMS, ms)
			}
		}
	}
	rep.setLayer("check.cold_ms", "ms", median(cold))
	rep.setLayer("check.warm_ms", "ms", median(warmMS))
	return nil
}

// startCluster starts a coordinator and two agent hosts, each a
// one-worker serve.Server with the given cache budget, and joins them.
func startCluster(budget int64) (*clusterSystem, error) {
	cs := &clusterSystem{coord: cluster.NewCoordinator(cluster.Options{Placement: cluster.PlaceAffinity, Seed: 7})}
	front, err := serveLoopback(cs.coord.Handler())
	if err != nil {
		cs.coord.Close()
		return nil, err
	}
	cs.front = front
	for _, name := range []string{"host-a", "host-b"} {
		h, err := serve.New(serve.Options{
			Workers: 1, WorkerParallelism: 1, QueueDepth: 256,
			DefaultDeadline: time.Minute, CacheBudget: budget,
		})
		if err != nil {
			cs.close()
			return nil, err
		}
		cs.hosts = append(cs.hosts, h)
		a, err := cluster.NewAgent(h, cluster.AgentOptions{Coordinator: front.url, Name: name, Concurrency: 1})
		if err == nil {
			err = a.Start(context.Background())
		}
		if err != nil {
			cs.close()
			return nil, fmt.Errorf("starting agent %s: %w", name, err)
		}
		cs.agents = append(cs.agents, a)
	}
	return cs, nil
}

// library builds nFP seeded pole sets (SyntheticMacromodel, 4 ports, 60
// poles, peak gain 0.9) with variants residue variants each, in
// fingerprint-major order. Variant v scales every residue of its base by
// 1+0.002·v, so the pole set — and the cache a server keeps for it — is
// shared while the σ layer differs.
func library(seed int64, nFP, variants int) ([]*repro.Macromodel, error) {
	var models []*repro.Macromodel
	for f := 0; f < nFP; f++ {
		base, err := repro.SyntheticMacromodel(repro.SyntheticModelOptions{
			Ports: 4, Poles: 60, Seed: seed*1000 + int64(f), PeakGain: 0.9,
		})
		if err != nil {
			return nil, err
		}
		for v := 0; v < variants; v++ {
			m, err := scaleResidues(base, 1+0.002*float64(v))
			if err != nil {
				return nil, err
			}
			models = append(models, m)
		}
	}
	return models, nil
}

// scaleResidues returns a copy of m with every residue scaled, going
// through the model's JSON form (the public schema).
func scaleResidues(m *repro.Macromodel, scale float64) (*repro.Macromodel, error) {
	blob, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	var mj map[string]json.RawMessage
	if err := json.Unmarshal(blob, &mj); err != nil {
		return nil, err
	}
	var res [][][][2]float64
	if err := json.Unmarshal(mj["residues"], &res); err != nil {
		return nil, err
	}
	for _, rm := range res {
		for i := range rm {
			for j := range rm[i] {
				rm[i][j][0] *= scale
				rm[i][j][1] *= scale
			}
		}
	}
	if mj["residues"], err = json.Marshal(res); err != nil {
		return nil, err
	}
	if blob, err = json.Marshal(mj); err != nil {
		return nil, err
	}
	out := &repro.Macromodel{}
	return out, json.Unmarshal(blob, out)
}
