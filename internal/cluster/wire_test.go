package cluster

import (
	"bytes"
	"encoding/binary"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	repro "repro"
	"repro/internal/serve"
)

// postFrame sends a raw body to the completion endpoint.
func postFrame(t testing.TB, base string, body []byte) int {
	t.Helper()
	hr, err := http.Post(base+"/cluster/v1/complete", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hr.Body)
	hr.Body.Close()
	return hr.StatusCode
}

// TestClusterCompletionFrameRoundTrip pins the frame layout: the JSON
// never carries the blob, and the decoded blob is the body's tail.
func TestClusterCompletionFrameRoundTrip(t *testing.T) {
	in := &CompleteRequest{Worker: "w1", Item: 7, Epoch: 2, Status: http.StatusOK,
		Response: serve.Response{Worker: 3}, Cache: []byte("blob bytes")}
	frame, err := encodeCompletion(in)
	if err != nil {
		t.Fatal(err)
	}
	n := binary.LittleEndian.Uint64(frame)
	if bytes.Contains(frame[8:8+n], []byte("cache")) {
		t.Fatalf("frame JSON carries the blob: %s", frame[8:8+n])
	}
	out, err := decodeCompletion(frame)
	if err != nil {
		t.Fatal(err)
	}
	if out.Worker != "w1" || out.Item != 7 || out.Epoch != 2 || out.Status != http.StatusOK || out.Response.Worker != 3 {
		t.Fatalf("decoded %+v", out)
	}
	if !bytes.Equal(out.Cache, in.Cache) || &out.Cache[0] != &frame[8+n] {
		t.Fatal("decoded blob is not the frame's tail")
	}
	in.Cache = nil
	if frame, err = encodeCompletion(in); err != nil {
		t.Fatal(err)
	}
	if out, err = decodeCompletion(frame); err != nil || out.Cache != nil {
		t.Fatalf("blob-less frame decoded to cache %v, err %v", out.Cache, err)
	}
}

// TestClusterMalformedCompletionFrame posts broken frames for a live
// lease: each gets 400 and leaves the ledger as it was, and a well-formed
// frame still completes the item afterwards.
func TestClusterMalformedCompletionFrame(t *testing.T) {
	c := NewCoordinator(Options{PollWait: 50 * time.Millisecond})
	t.Cleanup(c.Close)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	fakeJoin(t, c, "w1")

	model := library(t, 1, 1, 12)[0]
	fp, blob := cacheBlobFor(t, model)
	it, err := c.Submit(serve.JobCheck, modelJSON(t, model), fastCheck, serve.EnforceSpec{}, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	lease := leaseOrFail(t, c, "w1")
	good, err := encodeCompletion(&CompleteRequest{
		Worker: "w1", Item: lease.Item, Epoch: lease.Epoch, Status: http.StatusOK, Cache: blob,
	})
	if err != nil {
		t.Fatal(err)
	}
	pastBody := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(pastBody, uint64(len(good)))
	badJSON := append([]byte(nil), good...)
	badJSON[8] = '['

	for name, body := range map[string][]byte{
		"short body":                  good[:5],
		"length prefix past the body": pastBody,
		"bad JSON":                    badJSON,
	} {
		if st := postFrame(t, ts.URL, body); st != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, st)
		}
		c.mu.Lock()
		state, epoch, pending := it.state, it.epoch, c.pending
		c.mu.Unlock()
		if state != stateLeased || epoch != lease.Epoch || pending != 1 {
			t.Fatalf("%s: ledger moved (state %d, epoch %d, pending %d)", name, state, epoch, pending)
		}
	}
	if bytes, blobs := c.store.stats(); bytes != 0 || blobs != 0 {
		t.Fatalf("malformed frames stored %d blobs (%d bytes)", blobs, bytes)
	}
	c.met.mu.Lock()
	dups, quarantined := c.met.duplicatesTotal, c.met.quarantinedUploads
	c.met.mu.Unlock()
	if dups != 0 || quarantined != 0 {
		t.Fatalf("malformed frames counted as %d duplicates, %d quarantines", dups, quarantined)
	}

	if st := postFrame(t, ts.URL, good); st != http.StatusOK {
		t.Fatalf("well-formed frame: HTTP %d", st)
	}
	<-it.done
	if c.store.latestAddr(fp) == "" {
		t.Fatal("well-formed frame's blob was not stored")
	}
}

// corruptingTransport flips one byte inside the blob of every completion
// frame that carries one, recording how many it damaged.
type corruptingTransport struct {
	corrupted atomic.Int64
}

func (ct *corruptingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/cluster/v1/complete" && r.Body != nil {
		body, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			return nil, err
		}
		if n := binary.LittleEndian.Uint64(body); 8+n < uint64(len(body)) {
			blob := body[8+n:]
			blob[len(blob)/2] ^= 0x40
			ct.corrupted.Add(1)
		}
		r = r.Clone(r.Context())
		r.Body = io.NopCloser(bytes.NewReader(body))
		r.ContentLength = int64(len(body))
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestClusterCorruptUploadThroughAgent damages a real agent's cache
// upload in flight: the coordinator quarantines the blob, stores
// nothing, and the job's result is still delivered.
func TestClusterCorruptUploadThroughAgent(t *testing.T) {
	c := NewCoordinator(Options{PollWait: 50 * time.Millisecond})
	t.Cleanup(c.Close)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	ct := &corruptingTransport{}
	a, err := NewAgent(newHost(t, 1), AgentOptions{
		Coordinator: ts.URL, Name: "host-a", Concurrency: 1,
		Client: &http.Client{Transport: ct},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(t.Context()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Stop)

	model := library(t, 1, 1, 12)[0]
	resp, status := postEnforce(t, ts.URL, modelJSON(t, model))
	if status != http.StatusOK || resp.Model == nil || resp.Report == nil || !resp.Report.Passive {
		t.Fatalf("job with a corrupted upload: HTTP %d, error %q", status, resp.Error)
	}
	if ct.corrupted.Load() != 1 {
		t.Fatalf("%d uploads corrupted in flight, want 1", ct.corrupted.Load())
	}
	if bytes, blobs := c.store.stats(); bytes != 0 || blobs != 0 {
		t.Fatalf("store holds %d blobs (%d bytes) after a corrupt upload", blobs, bytes)
	}
	c.met.mu.Lock()
	quarantined := c.met.quarantinedUploads
	c.met.mu.Unlock()
	if quarantined != 1 {
		t.Fatalf("quarantinedUploads = %d, want 1", quarantined)
	}
}

// TestClusterStaleCompletionStoresNothing presents valid blobs with
// completions the ledger discards: nothing may reach the store.
func TestClusterStaleCompletionStoresNothing(t *testing.T) {
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
	bytes0, blobs0 := c.store.stats()
	for _, req := range []*CompleteRequest{
		{Worker: "w1", Item: lease.Item, Epoch: lease.Epoch + 1, Status: http.StatusOK, Cache: blob},
		{Worker: "w2", Item: lease.Item, Epoch: lease.Epoch, Status: http.StatusOK, Cache: blob},
		{Worker: "w1", Item: lease.Item + 100, Epoch: lease.Epoch, Status: http.StatusOK, Cache: blob},
	} {
		if ack := c.Complete(req); ack.Accepted {
			t.Fatalf("completion %+v accepted", req)
		}
		if b, n := c.store.stats(); b != bytes0 || n != blobs0 {
			t.Fatalf("discarded completion changed the store: %d blobs (%d bytes), was %d (%d)", n, b, blobs0, bytes0)
		}
	}
	c.Complete(&CompleteRequest{Worker: "w1", Item: lease.Item, Epoch: lease.Epoch, Status: http.StatusOK})
	<-it.done
}

// TestClusterOneBlobPerFingerprint uploads two different blobs for one
// fingerprint: one stays resident, a cold member's lease ships the newer
// address, and the superseded address answers 404.
func TestClusterOneBlobPerFingerprint(t *testing.T) {
	c := NewCoordinator(Options{PollWait: 50 * time.Millisecond})
	t.Cleanup(c.Close)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	fakeJoin(t, c, "w1")

	model := library(t, 1, 1, 12)[0]
	fp, older := cacheBlobFor(t, model)
	fp2, newer := cacheBlobFor(t, variant(t, model, 1.1))
	if fp2 != fp || bytes.Equal(older, newer) {
		t.Fatal("test needs two different blobs of one fingerprint")
	}

	upload := func(blob []byte) string {
		t.Helper()
		it, err := c.Submit(serve.JobCheck, modelJSON(t, model), fastCheck, serve.EnforceSpec{}, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		lease := leaseOrFail(t, c, "w1")
		c.Complete(&CompleteRequest{Worker: "w1", Item: lease.Item, Epoch: lease.Epoch, Status: http.StatusOK, Cache: blob})
		<-it.done
		return c.store.latestAddr(fp)
	}
	oldAddr := upload(older)
	newAddr := upload(newer)
	if oldAddr == "" || newAddr == "" || oldAddr == newAddr {
		t.Fatalf("addresses %q then %q", oldAddr, newAddr)
	}
	if b, n := c.store.stats(); n != 1 || b != int64(len(newer)) {
		t.Fatalf("store holds %d blobs (%d bytes), want only the newer (%d bytes)", n, b, len(newer))
	}

	// A cold member steals from the fingerprint's backlog on w1: its
	// lease must ship the newer blob.
	fakeJoin(t, c, "w2")
	var sibs [2]*item
	for i := range sibs {
		it, err := c.Submit(serve.JobCheck, modelJSON(t, model), fastCheck, serve.EnforceSpec{}, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		sibs[i] = it
	}
	lease := leaseOrFail(t, c, "w2")
	if lease.CacheAddr != newAddr {
		t.Fatalf("cold lease ships %q, want the newer %q", lease.CacheAddr, newAddr)
	}

	get := func(addr string) (int, []byte) {
		t.Helper()
		hr, err := http.Get(ts.URL + "/cluster/v1/cache?addr=" + addr)
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		body, err := io.ReadAll(hr.Body)
		if err != nil {
			t.Fatal(err)
		}
		return hr.StatusCode, body
	}
	if st, _ := get(oldAddr); st != http.StatusNotFound {
		t.Fatalf("superseded address: HTTP %d, want 404", st)
	}
	if st, body := get(newAddr); st != http.StatusOK || !bytes.Equal(body, newer) {
		t.Fatalf("newer address: HTTP %d, %d bytes", st, len(body))
	}
	if _, err := repro.CacheBlobFingerprint(newer); err != nil {
		t.Fatal(err)
	}

	c.Complete(&CompleteRequest{Worker: "w2", Item: lease.Item, Epoch: lease.Epoch, Status: http.StatusOK})
	rest := leaseOrFail(t, c, "w1")
	c.Complete(&CompleteRequest{Worker: "w1", Item: rest.Item, Epoch: rest.Epoch, Status: http.StatusOK})
	for _, s := range sibs {
		<-s.done
	}
}

// TestClusterNoLostWakeup sends sequential enforce jobs through two
// one-worker hosts at the default PollWait. Every placement must wake the
// member it was placed on; a wake spent on the other, empty-handed member
// leaves the job queued until the long-poll times out.
func TestClusterNoLostWakeup(t *testing.T) {
	c := NewCoordinator(Options{})
	t.Cleanup(c.Close)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	startAgent(t, newHost(t, 1), ts.URL, "host-a", 1)
	startAgent(t, newHost(t, 1), ts.URL, "host-b", 1)

	limit := c.opts.PollWait / 2
	for i, m := range library(t, 8, 4, 10) {
		start := time.Now()
		resp, status := postEnforce(t, ts.URL, modelJSON(t, m))
		took := time.Since(start)
		if status != http.StatusOK {
			t.Fatalf("job %d: HTTP %d: %s", i, status, resp.Error)
		}
		if took >= limit {
			t.Errorf("job %d took %v, ≥ PollWait/2 = %v: its host slept through the wake", i, took.Round(time.Millisecond), limit)
		}
	}
}
