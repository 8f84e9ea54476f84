package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	repro "repro"
	"repro/internal/serve"
)

// fastCheck keeps test jobs in the millisecond range.
var fastCheck = serve.CheckSpec{Method: "sweep", SweepPoints: 80}

// variant builds a model sharing base's pole set exactly (same pole
// fingerprint) with residues scaled by a real factor — the shape of a
// parameter sweep over a fixed pole library.
func variant(t testing.TB, base *repro.Macromodel, scale float64) *repro.Macromodel {
	t.Helper()
	blob, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	var mj struct {
		R0       float64          `json:"r0"`
		Poles    [][2]float64     `json:"poles"`
		Residues [][][][2]float64 `json:"residues"`
		D        [][]float64      `json:"d"`
	}
	if err := json.Unmarshal(blob, &mj); err != nil {
		t.Fatal(err)
	}
	for _, rm := range mj.Residues {
		for i := range rm {
			for j := range rm[i] {
				rm[i][j][0] *= scale
				rm[i][j][1] *= scale
			}
		}
	}
	out, err := json.Marshal(mj)
	if err != nil {
		t.Fatal(err)
	}
	m := &repro.Macromodel{}
	if err := json.Unmarshal(out, m); err != nil {
		t.Fatal(err)
	}
	return m
}

// library builds nFP×variants violating models: nFP distinct pole sets,
// each with residue-scaled copies (the acceptance criteria's 64-model /
// 8-fingerprint sweep is library(t, 8, 8, …)).
func library(t testing.TB, nFP, variants, poles int) []*repro.Macromodel {
	t.Helper()
	var out []*repro.Macromodel
	for f := 0; f < nFP; f++ {
		base, err := repro.SyntheticMacromodel(repro.SyntheticModelOptions{
			Ports: 2, Poles: poles, Seed: 7100 + int64(f), PeakGain: 1.3,
		})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < variants; v++ {
			out = append(out, variant(t, base, 1+0.002*float64(v)))
		}
	}
	return out
}

// modelJSON marshals a model for submission (and byte comparison).
func modelJSON(t testing.TB, m *repro.Macromodel) json.RawMessage {
	t.Helper()
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// newHost builds a serve.Server worker host, drained at cleanup.
func newHost(t testing.TB, workers int) *serve.Server {
	t.Helper()
	srv, err := serve.New(serve.Options{Workers: workers, QueueDepth: 256, DefaultDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(ctx)
	})
	return srv
}

// startAgent joins srv to the coordinator at base, stopped at cleanup.
func startAgent(t testing.TB, srv *serve.Server, base, name string, concurrency int) *Agent {
	t.Helper()
	a, err := NewAgent(srv, AgentOptions{Coordinator: base, Name: name, Concurrency: concurrency})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatalf("agent %s: %v", name, err)
	}
	t.Cleanup(a.Stop)
	return a
}

// postEnforce submits one enforce job to the coordinator's client surface.
func postEnforce(t testing.TB, base string, model json.RawMessage) (*serve.Response, int) {
	t.Helper()
	body, err := json.Marshal(map[string]any{
		"model": model, "check": fastCheck, "enforce": serve.EnforceSpec{},
	})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(base+"/v1/enforce", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var resp serve.Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return &resp, hr.StatusCode
}

// waitUntil polls cond at 5ms until it holds or the deadline passes.
func waitUntil(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// cacheBlobFor warms a throwaway Session on a model and exports the
// resulting checksummed cache blob.
func cacheBlobFor(t testing.TB, m *repro.Macromodel) (uint64, []byte) {
	t.Helper()
	sess := repro.NewSession()
	chk, err := fastCheck.CheckOptions()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Check(context.Background(), m, chk); err != nil {
		t.Fatal(err)
	}
	fp := repro.PoleFingerprint(m)
	blob, err := sess.ExportCache(fp)
	if err != nil {
		t.Fatalf("exporting cache: %v", err)
	}
	return fp, blob
}

// TestClusterEnforceBitwise is the acceptance workload: a 64-model
// library over 8 pole fingerprints enforced through a coordinator with
// two in-process worker hosts must produce models byte-identical to a
// single-host Session.EnforceBatch over the same library.
func TestClusterEnforceBitwise(t *testing.T) {
	models := library(t, 8, 8, 12)

	// Single-host reference: EnforceBatch perturbs clones in place.
	ref := make([]*repro.Macromodel, len(models))
	for i, m := range models {
		ref[i] = m.Clone()
	}
	chk, err := fastCheck.CheckOptions()
	if err != nil {
		t.Fatal(err)
	}
	sess := repro.NewSession()
	brep, err := sess.EnforceBatch(context.Background(), ref, repro.BatchEnforceOptions{
		Enforce: repro.EnforceOptions{Check: chk},
	})
	if err != nil {
		t.Fatalf("single-host EnforceBatch: %v", err)
	}
	if brep.Failed != 0 {
		t.Fatalf("single-host batch failed %d models", brep.Failed)
	}

	// Cluster arm: coordinator + two agent hosts.
	c := NewCoordinator(Options{})
	t.Cleanup(c.Close)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	startAgent(t, newHost(t, 2), ts.URL, "host-a", 2)
	startAgent(t, newHost(t, 2), ts.URL, "host-b", 2)

	got := make([]*serve.Response, len(models))
	var wg sync.WaitGroup
	for i, m := range models {
		wg.Add(1)
		go func(i int, blob json.RawMessage) {
			defer wg.Done()
			resp, status := postEnforce(t, ts.URL, blob)
			if status != http.StatusOK {
				t.Errorf("model %d: HTTP %d: %s", i, status, resp.Error)
				return
			}
			got[i] = resp
		}(i, modelJSON(t, m))
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for i := range models {
		if got[i] == nil || got[i].Model == nil {
			t.Fatalf("model %d: no enforced model returned", i)
		}
		want := modelJSON(t, ref[i])
		have := modelJSON(t, got[i].Model)
		if !bytes.Equal(want, have) {
			t.Fatalf("model %d: cluster result differs from single-host EnforceBatch\nwant %s\nhave %s",
				i, want[:min(len(want), 200)], have[:min(len(have), 200)])
		}
		if got[i].Report == nil || !got[i].Report.Passive {
			t.Fatalf("model %d: not passive after enforcement", i)
		}
	}
}

// TestClusterWorkerLossRequeue kills a worker host mid-lease and asserts
// the item requeues onto the surviving host and delivers exactly one
// result.
func TestClusterWorkerLossRequeue(t *testing.T) {
	c := NewCoordinator(Options{LeaseTTL: 250 * time.Millisecond, WorkerTTL: time.Hour, PollWait: 100 * time.Millisecond})
	t.Cleanup(c.Close)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	// Host a stalls its first job attempt long past the lease TTL, then
	// vanishes (context cancelled: no heartbeats, no completion).
	hostA := newHost(t, 1)
	hostA.InjectFaults(new(serve.FaultPlan).DelayOn(1, 5*time.Second))
	agentA, err := NewAgent(hostA, AgentOptions{Coordinator: ts.URL, Name: "host-a", Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctxA, cancelA := context.WithCancel(context.Background())
	if err := agentA.Start(ctxA); err != nil {
		t.Fatal(err)
	}
	defer cancelA()
	t.Cleanup(func() {
		// Unblock the stalled job before Stop waits on the lease loop.
		dctx, dcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer dcancel()
		hostA.Drain(dctx)
		agentA.Stop()
	})

	model := library(t, 1, 1, 12)[0]
	respc := make(chan *serve.Response, 1)
	statusc := make(chan int, 1)
	go func() {
		resp, status := postEnforce(t, ts.URL, modelJSON(t, model))
		respc <- resp
		statusc <- status
	}()

	// Wait for host a to hold the lease, then kill it.
	waitUntil(t, 5*time.Second, "host-a to lease the item", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		m := c.members["host-a"]
		return m != nil && len(m.leased) == 1
	})
	cancelA()
	startAgent(t, newHost(t, 1), ts.URL, "host-b", 1)

	select {
	case resp := <-respc:
		status := <-statusc
		if status != http.StatusOK {
			t.Fatalf("HTTP %d: %s", status, resp.Error)
		}
		if resp.Model == nil || resp.Report == nil || !resp.Report.Passive {
			t.Fatalf("requeued job returned no passive model: %+v", resp)
		}
		if resp.Attempts != 2 {
			t.Errorf("attempts = %d, want 2 (one lost lease, one successful re-run)", resp.Attempts)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("requeued job never completed")
	}
	c.met.mu.Lock()
	requeues := c.met.requeuesTotal
	c.met.mu.Unlock()
	if requeues < 1 {
		t.Errorf("requeuesTotal = %d, want >= 1", requeues)
	}
}

// fakeJoin registers a synthetic member directly (no agent behind it).
func fakeJoin(t testing.TB, c *Coordinator, name string, fps ...string) {
	t.Helper()
	if _, err := c.Join(&JoinRequest{Name: name, Fingerprints: fps}); err != nil {
		t.Fatal(err)
	}
}

// leaseOrFail pulls one lease for a fake member.
func leaseOrFail(t testing.TB, c *Coordinator, worker string) *LeaseResponse {
	t.Helper()
	lease, err := c.Lease(context.Background(), &LeaseRequest{Worker: worker})
	if err != nil {
		t.Fatalf("lease %s: %v", worker, err)
	}
	if lease == nil {
		t.Fatalf("lease %s: no work", worker)
	}
	return lease
}

// TestClusterDuplicateCompletionDiscarded expires a lease, re-runs the
// item elsewhere, then delivers the original holder's late completion —
// which must be discarded, leaving the second host's result standing.
func TestClusterDuplicateCompletionDiscarded(t *testing.T) {
	c := NewCoordinator(Options{LeaseTTL: 50 * time.Millisecond, WorkerTTL: time.Hour, PollWait: 50 * time.Millisecond})
	t.Cleanup(c.Close)
	fakeJoin(t, c, "w1")
	fakeJoin(t, c, "w2")

	model := library(t, 1, 1, 12)[0]
	it, err := c.Submit(serve.JobCheck, modelJSON(t, model), fastCheck, serve.EnforceSpec{}, 0, 3)
	if err != nil {
		t.Fatal(err)
	}

	// w1 leases; placement is deterministic (lowest name on a tie) but
	// either fake can pull — whoever holds it goes silent.
	lease1, err := c.Lease(context.Background(), &LeaseRequest{Worker: "w1"})
	if err != nil {
		t.Fatal(err)
	}
	holder, other := "w1", "w2"
	if lease1 == nil {
		lease1 = leaseOrFail(t, c, "w2")
		holder, other = "w2", "w1"
	}

	// The holder goes silent; the lease expires and the item requeues onto
	// the other host (never back onto the holder).
	waitUntil(t, 5*time.Second, "lease expiry requeue", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.items[lease1.Item].state == statePending
	})
	lease2 := leaseOrFail(t, c, other)
	if lease2.Item != lease1.Item {
		t.Fatalf("second lease got item %d, want %d", lease2.Item, lease1.Item)
	}
	if lease2.Epoch == lease1.Epoch {
		t.Fatalf("requeued lease kept epoch %d", lease1.Epoch)
	}
	if !bytes.Equal(lease2.Model, lease1.Model) {
		t.Fatal("requeued lease shipped different model bytes — retries must restart pristine")
	}

	// The second host completes with the current epoch: accepted.
	ack := c.Complete(&CompleteRequest{
		Worker: other, Item: lease2.Item, Epoch: lease2.Epoch,
		Status: http.StatusOK, Response: serve.Response{Worker: 2},
	})
	if !ack.Accepted {
		t.Fatalf("live completion rejected: %s", ack.Reason)
	}

	// The original holder's late completion presents a stale epoch:
	// discarded, result untouched.
	late := c.Complete(&CompleteRequest{
		Worker: holder, Item: lease1.Item, Epoch: lease1.Epoch,
		Status: http.StatusOK, Response: serve.Response{Worker: 1},
	})
	if late.Accepted {
		t.Fatal("stale-epoch completion was accepted")
	}
	unknown := c.Complete(&CompleteRequest{Worker: holder, Item: 9999, Epoch: 1})
	if unknown.Accepted {
		t.Fatal("unknown-item completion was accepted")
	}

	<-it.done
	if it.resp.Worker != 2 {
		t.Fatalf("delivered result came from worker %d, want the second host's", it.resp.Worker)
	}
	c.met.mu.Lock()
	dups := c.met.duplicatesTotal
	c.met.mu.Unlock()
	if dups < 2 {
		t.Errorf("duplicatesTotal = %d, want >= 2", dups)
	}
}

// TestClusterCorruptCacheUploadQuarantined uploads a bit-flipped cache
// blob with a completion: the job must complete normally while the blob
// is quarantined — counted, never stored, never shipped.
func TestClusterCorruptCacheUploadQuarantined(t *testing.T) {
	c := NewCoordinator(Options{PollWait: 50 * time.Millisecond})
	t.Cleanup(c.Close)
	fakeJoin(t, c, "w1")

	model := library(t, 1, 1, 12)[0]
	fp, blob := cacheBlobFor(t, model)
	corrupt := append([]byte(nil), blob...)
	corrupt[len(corrupt)/2] ^= 0x40

	it, err := c.Submit(serve.JobCheck, modelJSON(t, model), fastCheck, serve.EnforceSpec{}, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	lease := leaseOrFail(t, c, "w1")
	ack := c.Complete(&CompleteRequest{
		Worker: "w1", Item: lease.Item, Epoch: lease.Epoch,
		Status: http.StatusOK, Response: serve.Response{}, Cache: corrupt,
	})
	if !ack.Accepted {
		t.Fatalf("completion with corrupt cache rejected: %s", ack.Reason)
	}
	<-it.done
	if it.status != http.StatusOK {
		t.Fatalf("job status %d, want 200 — a corrupt upload must not fail the job", it.status)
	}
	if addr := c.store.latestAddr(fp); addr != "" {
		t.Fatalf("corrupt blob was stored at %s", addr)
	}
	c.met.mu.Lock()
	quarantined := c.met.quarantinedUploads
	c.met.mu.Unlock()
	if quarantined != 1 {
		t.Errorf("quarantinedUploads = %d, want 1", quarantined)
	}

	// The intact blob uploads fine on the next completion.
	it2, err := c.Submit(serve.JobCheck, modelJSON(t, model), fastCheck, serve.EnforceSpec{}, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	lease2 := leaseOrFail(t, c, "w1")
	if c.Complete(&CompleteRequest{
		Worker: "w1", Item: lease2.Item, Epoch: lease2.Epoch,
		Status: http.StatusOK, Response: serve.Response{}, Cache: blob,
	}); c.store.latestAddr(fp) == "" {
		t.Fatal("intact blob was not stored")
	}
	<-it2.done
}

// TestClusterStealing queues a same-fingerprint pile on one member and
// asserts an idle peer's lease steals from it, moving the placement.
func TestClusterStealing(t *testing.T) {
	c := NewCoordinator(Options{PollWait: 50 * time.Millisecond})
	t.Cleanup(c.Close)
	fakeJoin(t, c, "w1")
	fakeJoin(t, c, "w2")

	models := library(t, 1, 4, 12)
	fp := repro.PoleFingerprint(models[0])
	items := make([]*item, len(models))
	for i, m := range models {
		it, err := c.Submit(serve.JobCheck, modelJSON(t, m), fastCheck, serve.EnforceSpec{}, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		items[i] = it
	}
	c.mu.Lock()
	placed, _ := c.placement.Owner(fp)
	queueLen := len(c.members[placed].queue)
	c.mu.Unlock()
	if queueLen != len(models) {
		t.Fatalf("%d of %d same-fingerprint items queued on %s", queueLen, len(models), placed)
	}

	thief := "w1"
	if placed == "w1" {
		thief = "w2"
	}
	lease := leaseOrFail(t, c, thief)
	if !lease.Stolen {
		t.Fatal("idle peer's lease was not marked stolen")
	}
	c.mu.Lock()
	newPlace, _ := c.placement.Owner(fp)
	c.mu.Unlock()
	if newPlace != thief {
		t.Fatalf("placement stayed on %s after the steal, want %s", newPlace, thief)
	}
	if c.StealsTotal() != 1 {
		t.Errorf("StealsTotal = %d, want 1", c.StealsTotal())
	}
	for _, it := range items {
		c.mu.Lock()
		st, holder, id, epoch := it.state, it.holder, it.id, it.epoch
		c.mu.Unlock()
		if st == stateLeased {
			c.Complete(&CompleteRequest{Worker: holder, Item: id, Epoch: epoch, Status: http.StatusOK})
		}
	}
}

// TestClusterWarmTransfer pushes a cache blob through a completion and
// asserts the next lease of that fingerprint on a cold member carries the
// blob's address, and the blob downloads intact.
func TestClusterWarmTransfer(t *testing.T) {
	c := NewCoordinator(Options{PollWait: 50 * time.Millisecond})
	t.Cleanup(c.Close)
	fakeJoin(t, c, "w1")

	model := library(t, 1, 1, 12)[0]
	_, blob := cacheBlobFor(t, model)

	it, err := c.Submit(serve.JobCheck, modelJSON(t, model), fastCheck, serve.EnforceSpec{}, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	lease := leaseOrFail(t, c, "w1")
	c.Complete(&CompleteRequest{
		Worker: "w1", Item: lease.Item, Epoch: lease.Epoch,
		Status: http.StatusOK, Response: serve.Response{}, Cache: blob,
	})
	<-it.done

	// A cold member joins; the same fingerprint's next items pile onto w1
	// (it holds the placement) and the idle peer steals from the backlog's
	// tail — that stolen lease must ship the blob address.
	fakeJoin(t, c, "w2")
	var sibs [2]*item
	for i := range sibs {
		it2, err := c.Submit(serve.JobCheck, modelJSON(t, model), fastCheck, serve.EnforceSpec{}, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		sibs[i] = it2
	}
	lease2 := leaseOrFail(t, c, "w2")
	if !lease2.Stolen {
		t.Fatal("w2's lease did not steal from the backlog")
	}
	if lease2.CacheAddr == "" {
		t.Fatal("lease onto a cold member carried no cache address")
	}
	got := c.CacheBlob(lease2.CacheAddr)
	if !bytes.Equal(got, blob) {
		t.Fatal("downloaded blob differs from the uploaded one")
	}
	if _, err := repro.CacheBlobFingerprint(got); err != nil {
		t.Fatalf("shipped blob fails validation: %v", err)
	}
	c.Complete(&CompleteRequest{Worker: "w2", Item: lease2.Item, Epoch: lease2.Epoch, Status: http.StatusOK})
	leaseSib := leaseOrFail(t, c, "w1") // w1 drains its remaining sibling
	c.Complete(&CompleteRequest{Worker: "w1", Item: leaseSib.Item, Epoch: leaseSib.Epoch, Status: http.StatusOK})
	for _, s := range sibs {
		<-s.done
	}

	// w1 already holds the fingerprint warm: a lease back onto it must NOT
	// re-ship the blob.
	it3, err := c.Submit(serve.JobCheck, modelJSON(t, model), fastCheck, serve.EnforceSpec{}, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	var lease3 *LeaseResponse
	holder3 := ""
	for _, w := range []string{"w1", "w2"} {
		if l, _ := c.Lease(context.Background(), &LeaseRequest{Worker: w}); l != nil {
			lease3, holder3 = l, w
			break
		}
	}
	if lease3 == nil {
		t.Fatal("third item never leased")
	}
	if lease3.CacheAddr != "" {
		t.Error("lease onto a warm member re-shipped the cache")
	}
	c.Complete(&CompleteRequest{Worker: holder3, Item: lease3.Item, Epoch: lease3.Epoch, Status: http.StatusOK})
	<-it3.done
}

// TestClusterAgentWarmImport drives the full warm-transfer path through
// real agents: host a warms a fingerprint and uploads its cache; after a
// vanishes, a cold host b gets the next same-fingerprint job with the
// blob shipped ahead — observable as an affinity hit on b's first contact
// with the fingerprint.
func TestClusterAgentWarmImport(t *testing.T) {
	c := NewCoordinator(Options{
		LeaseTTL: 200 * time.Millisecond, WorkerTTL: 600 * time.Millisecond,
		PollWait: 50 * time.Millisecond,
	})
	t.Cleanup(c.Close)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	model := library(t, 1, 1, 12)[0]

	hostA := newHost(t, 1)
	agentA, err := NewAgent(hostA, AgentOptions{Coordinator: ts.URL, Name: "host-a", Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctxA, cancelA := context.WithCancel(context.Background())
	if err := agentA.Start(ctxA); err != nil {
		t.Fatal(err)
	}
	defer cancelA()
	t.Cleanup(agentA.Stop)

	resp, status := postEnforce(t, ts.URL, modelJSON(t, model))
	if status != http.StatusOK {
		t.Fatalf("warmup job: HTTP %d: %s", status, resp.Error)
	}
	fp := repro.PoleFingerprint(model)
	if c.store.latestAddr(fp) == "" {
		t.Fatal("completion did not upload the cache blob")
	}

	// Host a vanishes; the coordinator evicts it at the worker TTL.
	cancelA()
	agentA.Stop()
	waitUntil(t, 5*time.Second, "host-a eviction", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.members["host-a"] == nil
	})

	startAgent(t, newHost(t, 1), ts.URL, "host-b", 1)
	resp2, status := postEnforce(t, ts.URL, modelJSON(t, model))
	if status != http.StatusOK {
		t.Fatalf("warm-import job: HTTP %d: %s", status, resp2.Error)
	}
	if !resp2.AffinityHit {
		t.Error("first contact on host-b was not an affinity hit — the shipped cache was not imported")
	}
	c.met.mu.Lock()
	ships := c.met.cacheShipsTotal
	bytesMoved := c.met.cacheBytesTotal
	c.met.mu.Unlock()
	if ships < 1 {
		t.Errorf("cacheShipsTotal = %d, want >= 1", ships)
	}
	if bytesMoved <= 0 {
		t.Errorf("cacheBytesTotal = %d, want > 0", bytesMoved)
	}
}

// TestClusterAdmissionRetryAfterDate fills the ledger and asserts the 429
// carries an HTTP-date Retry-After that the shared parser honors.
func TestClusterAdmissionRetryAfterDate(t *testing.T) {
	c := NewCoordinator(Options{MaxPending: 1})
	t.Cleanup(c.Close)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	model := library(t, 1, 1, 12)[0]
	if _, err := c.Submit(serve.JobCheck, modelJSON(t, model), fastCheck, serve.EnforceSpec{}, 0, 1); err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(map[string]any{"model": modelJSON(t, model), "check": fastCheck})
	hr, err := http.Post(ts.URL+"/v1/check", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	io.Copy(io.Discard, hr.Body)
	if hr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP %d, want 429", hr.StatusCode)
	}
	ra := hr.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 carried no Retry-After")
	}
	if !strings.Contains(ra, "GMT") {
		t.Fatalf("Retry-After %q is not an HTTP-date", ra)
	}
	if d := serve.ParseRetryAfter(ra); d <= 0 || d > 10*time.Second {
		t.Fatalf("ParseRetryAfter(%q) = %v, want a short positive wait", ra, d)
	}
}

// TestClusterMetricsEndpoint scrapes the coordinator's /metrics and
// checks the cluster series are exported.
func TestClusterMetricsEndpoint(t *testing.T) {
	c := NewCoordinator(Options{PollWait: 50 * time.Millisecond})
	t.Cleanup(c.Close)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	// /healthz is 503 until a worker joins.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-join /healthz = %d, want 503", hr.StatusCode)
	}
	fakeJoin(t, c, "w1")
	hr, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("post-join /healthz = %d, want 200", hr.StatusCode)
	}

	model := library(t, 1, 1, 12)[0]
	it, err := c.Submit(serve.JobCheck, modelJSON(t, model), fastCheck, serve.EnforceSpec{}, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	lease := leaseOrFail(t, c, "w1")
	c.Complete(&CompleteRequest{Worker: "w1", Item: lease.Item, Epoch: lease.Epoch, Status: http.StatusOK})
	<-it.done

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	blob, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(blob)
	for _, series := range []string{
		"passivityd_cluster_leases_active",
		"passivityd_cluster_steals_total",
		"passivityd_cluster_requeues_total",
		"passivityd_cluster_cache_transfers_bytes_total",
		"passivityd_cluster_duplicates_dropped_total",
		"passivityd_cluster_quarantined_uploads_total",
		`passivityd_cluster_jobs_completed_total{kind="check",status="200"} 1`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
}
