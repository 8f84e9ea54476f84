package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	repro "repro"
	"repro/internal/serve"
)

// AgentOptions configures NewAgent.
type AgentOptions struct {
	// Coordinator is the coordinator's base URL (e.g. http://host:9100).
	Coordinator string
	// Name identifies this host to the coordinator (stable across agent
	// restarts, so a recovered host re-claims its catalog by re-joining).
	Name string
	// Concurrency is how many lease loops pull work in parallel (default:
	// the embedded server's worker count — one in-flight item per worker
	// keeps the pool busy without hoarding leases a peer could serve).
	Concurrency int
	// Client overrides the HTTP client (default: no-timeout client; the
	// coordinator bounds the lease long-poll itself).
	Client *http.Client
}

// The agent's backoff after coordinator errors (serve.Backoff): the first
// step and the cap of the doubled steps.
const (
	retryBase = 100 * time.Millisecond
	retryMax  = 2 * time.Second
)

// Agent is one cluster worker host: an embedded serve.Server — worker
// pool, supervision, retry, cache persistence, everything the single-host
// daemon has — driven by lease loops pulling work from a coordinator.
// Build with NewAgent, start with Start, stop with Stop (the embedded
// server's Drain is the caller's job; the agent does not own it).
type Agent struct {
	opts AgentOptions
	srv  *serve.Server
	cli  *http.Client

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	gen      int          // join generation; a re-join bumps it
	timing   JoinResponse // coordinator's timing contract
	inflight map[int64]bool
}

// NewAgent wraps an existing server as a cluster worker host.
func NewAgent(srv *serve.Server, opts AgentOptions) (*Agent, error) {
	if opts.Coordinator == "" {
		return nil, errors.New("cluster: agent without a coordinator URL")
	}
	if opts.Name == "" {
		return nil, errors.New("cluster: agent without a name")
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = srv.Workers()
	}
	cli := opts.Client
	if cli == nil {
		cli = &http.Client{}
	}
	return &Agent{opts: opts, srv: srv, cli: cli, inflight: make(map[int64]bool)}, nil
}

// Start joins the coordinator (retrying until ctx expires) and launches
// the heartbeat and lease loops. The agent runs until Stop or ctx
// cancellation.
func (a *Agent) Start(ctx context.Context) error {
	a.ctx, a.cancel = context.WithCancel(ctx)
	if err := a.join(0); err != nil {
		a.cancel()
		return err
	}
	a.wg.Add(1)
	go a.heartbeatLoop()
	for i := 0; i < a.opts.Concurrency; i++ {
		a.wg.Add(1)
		go a.leaseLoop()
	}
	return nil
}

// Stop halts the loops. In-flight jobs keep running on the embedded
// server but their completions no longer reach the coordinator — it will
// requeue them at lease expiry, exactly as if the host died.
func (a *Agent) Stop() {
	if a.cancel != nil {
		a.cancel()
	}
	a.wg.Wait()
}

// join registers with the coordinator, advertising the server's warm
// cache catalog; it retries with backoff until it succeeds or the agent
// stops. gen guards re-joins: only the first loop to see a 410 re-joins;
// latecomers find the generation already advanced and return.
func (a *Agent) join(seenGen int) error {
	a.mu.Lock()
	if a.gen != seenGen {
		a.mu.Unlock()
		return nil
	}
	a.mu.Unlock()

	req := JoinRequest{Name: a.opts.Name, Fingerprints: a.catalog()}
	for attempt := 1; ; attempt++ {
		var resp JoinResponse
		status, err := a.post("/cluster/v1/join", &req, &resp)
		if err == nil && status == http.StatusOK {
			a.mu.Lock()
			if a.gen == seenGen { // lost a race with another re-joiner: theirs stands
				a.gen++
				a.timing = resp
			}
			a.mu.Unlock()
			return nil
		}
		if err == nil {
			err = fmt.Errorf("cluster: join: HTTP %d", status)
		}
		select {
		case <-time.After(serve.Backoff(attempt, retryBase, retryMax, 0)):
		case <-a.ctx.Done():
			return fmt.Errorf("cluster: joining %s: %w (last: %v)", a.opts.Coordinator, a.ctx.Err(), err)
		}
	}
}

// catalog formats the embedded server's resident cache fingerprints for
// the wire. Sent on join, every lease and every heartbeat: Sessions
// evict under their byte budgets, so only a freshly advertised catalog
// keeps the coordinator's placement and warm-shipping decisions honest.
func (a *Agent) catalog() []string {
	fps := a.srv.CacheFingerprints()
	out := make([]string, len(fps))
	for i, fp := range fps {
		out[i] = fmt.Sprintf("%016x", fp)
	}
	return out
}

// post sends one JSON request, decoding the body into out when non-nil
// and the status is 2xx.
func (a *Agent) post(path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	return a.send(path, "application/json", body, out)
}

// send POSTs one request body, decoding a 2xx JSON answer into out when
// non-nil.
func (a *Agent) send(path, contentType string, body []byte, out any) (int, error) {
	hreq, err := http.NewRequestWithContext(a.ctx, http.MethodPost, a.opts.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	hreq.Header.Set("Content-Type", contentType)
	hresp, err := a.cli.Do(hreq)
	if err != nil {
		return 0, err
	}
	defer hresp.Body.Close()
	if out != nil && hresp.StatusCode >= 200 && hresp.StatusCode <= 299 && hresp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(io.LimitReader(hresp.Body, maxBodyBytes)).Decode(out); err != nil {
			return hresp.StatusCode, fmt.Errorf("cluster: decoding %s response: %w", path, err)
		}
	} else {
		io.Copy(io.Discard, io.LimitReader(hresp.Body, 8<<10))
	}
	return hresp.StatusCode, nil
}

// heartbeatLoop renews the agent's liveness and in-flight leases at the
// coordinator's requested interval.
func (a *Agent) heartbeatLoop() {
	defer a.wg.Done()
	for {
		a.mu.Lock()
		interval := time.Duration(a.timing.HeartbeatMS) * time.Millisecond
		gen := a.gen
		items := make([]int64, 0, len(a.inflight))
		for id := range a.inflight {
			items = append(items, id)
		}
		a.mu.Unlock()
		if interval <= 0 {
			interval = 5 * time.Second
		}
		select {
		case <-a.ctx.Done():
			return
		case <-time.After(interval):
		}
		status, err := a.post("/cluster/v1/heartbeat", &HeartbeatRequest{Worker: a.opts.Name, Items: items, Fingerprints: a.catalog()}, nil)
		if err == nil && status == http.StatusGone {
			// The coordinator forgot us (restart, worker-TTL eviction):
			// re-register so the lease loops keep pulling.
			a.join(gen)
		}
	}
}

// leaseLoop pulls one item at a time: lease, execute on the embedded
// server, complete — forever, until the agent stops.
func (a *Agent) leaseLoop() {
	defer a.wg.Done()
	errs := 0
	for a.ctx.Err() == nil {
		a.mu.Lock()
		gen := a.gen
		a.mu.Unlock()
		var lease LeaseResponse
		status, err := a.post("/cluster/v1/lease", &LeaseRequest{Worker: a.opts.Name, Fingerprints: a.catalog()}, &lease)
		switch {
		case a.ctx.Err() != nil:
			return
		case err == nil && status == http.StatusOK:
			errs = 0
			a.execute(&lease)
			continue
		case err == nil && status == http.StatusNoContent:
			errs = 0 // the long-poll already waited server-side
			continue
		case err == nil && status == http.StatusGone:
			if a.join(gen) != nil {
				return
			}
			continue
		}
		// Connection trouble or an unexpected status: back off and retry.
		errs++
		select {
		case <-time.After(serve.Backoff(errs, retryBase, retryMax, 0)):
		case <-a.ctx.Done():
			return
		}
	}
}

// execute runs one leased item on the embedded server and reports the
// result. The shipped warm cache (if any) is imported first; a fetch or
// import failure only costs a cold start, never the job.
func (a *Agent) execute(lease *LeaseResponse) {
	a.mu.Lock()
	a.inflight[lease.Item] = true
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		delete(a.inflight, lease.Item)
		a.mu.Unlock()
	}()

	fp, _ := strconv.ParseUint(lease.Fingerprint, 16, 64)
	if lease.CacheAddr != "" {
		if blob := a.fetchCache(lease.CacheAddr); blob != nil {
			// The lease's fingerprint routes the blob; the import is its one
			// check (corrupt-in-flight = cold start).
			a.srv.ImportCache(fp, blob)
		}
	}

	comp := CompleteRequest{Worker: a.opts.Name, Item: lease.Item, Epoch: lease.Epoch}
	resp, status := a.runLeased(lease)
	comp.Response, comp.Status = resp, status

	if lease.WantCache {
		// The coordinator had no warm copy of this fingerprint from us:
		// upload the (now warm) cache so it can ship it to whichever host
		// the fingerprint lands on next. ErrNoCache and busy holders just
		// mean no upload this round.
		if blob, err := a.srv.ExportCache(fp); err == nil {
			comp.Cache = blob
		}
	}

	frame, err := encodeCompletion(&comp)
	if err != nil {
		// A result JSON cannot carry still completes the item, as an
		// error, instead of a completion retried until the agent stops.
		comp.Response = serve.Response{Error: "encoding result: " + err.Error()}
		comp.Status = http.StatusInternalServerError
		if frame, err = encodeCompletion(&comp); err != nil {
			return
		}
	}
	// The completion must land: the result exists only here, and losing it
	// costs the cluster a redundant re-run at lease expiry. Retry past
	// transient coordinator trouble; stop only when rejected (the lease
	// moved on — the authoritative result comes from elsewhere) or the
	// agent itself stops.
	for attempt := 1; a.ctx.Err() == nil; attempt++ {
		var ack CompleteResponse
		st, err := a.send("/cluster/v1/complete", "application/octet-stream", frame, &ack)
		if err == nil && st == http.StatusOK {
			return
		}
		select {
		case <-time.After(serve.Backoff(attempt, retryBase, retryMax, 0)):
		case <-a.ctx.Done():
			return
		}
	}
}

// runLeased executes the leased job on the embedded server, reusing the
// single-host wire mapping end to end.
func (a *Agent) runLeased(lease *LeaseResponse) (serve.Response, int) {
	var model repro.Macromodel
	if err := json.Unmarshal(lease.Model, &model); err != nil {
		return serve.Response{Error: "decoding leased model: " + err.Error()}, http.StatusBadRequest
	}
	chk, err := lease.Check.CheckOptions()
	if err != nil {
		return serve.Response{Error: err.Error()}, http.StatusBadRequest
	}
	kind, err := serve.ParseJobKind(lease.Kind)
	if err != nil {
		return serve.Response{Error: err.Error()}, http.StatusBadRequest
	}
	job := &serve.Job{
		Kind:     kind,
		Model:    &model,
		Check:    chk,
		Enforce:  lease.Enforce.EnforceOptions(),
		Deadline: time.Duration(lease.DeadlineMS) * time.Millisecond,
	}
	ch, err := a.srv.Submit(job)
	if err != nil {
		// Admission failure on a host that just leased the item — the
		// queue is briefly full or the host is draining. 503 marks it
		// worth another host's attempt.
		return serve.Response{Error: err.Error()}, http.StatusServiceUnavailable
	}
	return serve.ResponseStatus(<-ch)
}

// fetchCache downloads a content-addressed blob (nil on any failure —
// warm state is an optimization, never a dependency).
func (a *Agent) fetchCache(addr string) []byte {
	hreq, err := http.NewRequestWithContext(a.ctx, http.MethodGet,
		a.opts.Coordinator+"/cluster/v1/cache?addr="+addr, nil)
	if err != nil {
		return nil
	}
	hresp, err := a.cli.Do(hreq)
	if err != nil {
		return nil
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(hresp.Body, 8<<10))
		return nil
	}
	n := hresp.ContentLength
	if n < 0 || n > maxBodyBytes {
		// The coordinator always sends a length; anything else is not a
		// blob this agent will buffer.
		return nil
	}
	blob := make([]byte, n)
	if _, err := io.ReadFull(hresp.Body, blob); err != nil {
		return nil
	}
	return blob
}
