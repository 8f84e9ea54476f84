package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	repro "repro"
	"repro/internal/placement"
	"repro/internal/serve"
)

// Errors of the coordinator's admission and worker surfaces.
var (
	// ErrTooManyPending rejects a Submit because MaxPending items are
	// already admitted and unfinished (HTTP 429 with a Retry-After hint).
	ErrTooManyPending = errors.New("cluster: job ledger full")
	// ErrClosed rejects work on a coordinator that has been closed.
	ErrClosed = errors.New("cluster: coordinator closed")
	// ErrUnknownWorker answers lease/heartbeat calls from a member the
	// coordinator does not consider live (HTTP 410 — the agent re-joins).
	ErrUnknownWorker = errors.New("cluster: unknown or lost worker")
)

// PlacementPolicy selects how the coordinator places admitted items — the
// shared placement.Policy: PlaceAffinity (the default) follows the
// cluster-wide placement map and member catalogs; PlaceRandom, the control
// arm of BenchmarkClusterAffinityPlacement, draws a uniformly random live
// member.
type PlacementPolicy = placement.Policy

// Placement policies.
const (
	PlaceAffinity = placement.Affinity
	PlaceRandom   = placement.Random
)

// Options configures NewCoordinator.
type Options struct {
	// LeaseTTL is how long a lease survives without a heartbeat before
	// the item is requeued onto a different host (default 15s).
	LeaseTTL time.Duration
	// WorkerTTL is how long a member may stay silent — no lease, complete
	// or heartbeat call — before it is declared lost and everything it
	// holds is requeued (default 3×LeaseTTL).
	WorkerTTL time.Duration
	// PollWait bounds how long a lease long-poll is held open when no
	// work is available (default 2s).
	PollWait time.Duration
	// DefaultMaxAttempts is how many times an item may be leased before a
	// lease expiry becomes its terminal failure (default 3). Results
	// reported by a live worker — success or error — are always terminal:
	// the worker already ran the serve layer's own retry ladder.
	DefaultMaxAttempts int
	// MaxPending bounds admitted-but-unfinished items (default 4096).
	MaxPending int
	// CacheBudget bounds the content-addressed warm-state store's bytes
	// (default 256 MiB).
	CacheBudget int64
	// Placement selects the placement policy (default PlaceAffinity).
	Placement PlacementPolicy
	// Seed makes PlaceRandom deterministic for benchmarks (0 = fixed).
	Seed int64
}

// itemState is a ledger item's lifecycle position.
type itemState int

const (
	statePending itemState = iota // queued on exactly one member
	stateLeased                   // held by a member under a deadline
	stateDone                     // result recorded, waiter released
)

// item is one unit of work in the ledger: a single model's check or
// enforce job, its admitted (pristine) model bytes, lease bookkeeping and
// the result slot.
type item struct {
	id         int64
	kind       serve.JobKind
	model      json.RawMessage
	fp         uint64
	check      serve.CheckSpec
	enforce    serve.EnforceSpec
	deadlineMS int64

	state       itemState
	epoch       int // bumped on every lease; completions must match
	attempts    int // leases issued
	maxAttempts int
	holder      string
	leaseExpiry time.Time
	stolen      bool

	resp   serve.Response
	status int
	done   chan struct{} // closed exactly once, when the result lands
}

// member is one worker host the coordinator knows.
type member struct {
	name     string
	catalog  map[uint64]bool // fingerprints the host holds warm
	queue    []*item         // pending items placed here (FIFO; steals pop the tail)
	leased   map[int64]*item
	lastSeen time.Time
	lost     bool
}

// load is the placement pressure signal: queued plus running work.
func (m *member) load() int { return len(m.queue) + len(m.leased) }

// Coordinator owns the cluster job ledger: admission, affinity placement,
// lease lifecycle, work stealing, requeue on worker loss, result
// delivery, and the content-addressed warm-state store. Build with
// NewCoordinator, serve HTTP with Handler, stop with Close.
type Coordinator struct {
	opts  Options
	met   *clusterMetrics
	store *cacheStore

	mu        sync.Mutex
	members   map[string]*member
	items     map[int64]*item
	nextItem  int64
	placement *placement.Table[string] // fingerprint → member name
	pending   int                      // admitted, not yet done
	closed    bool

	// notify is closed, and replaced, whenever work arrives (wakeLocked):
	// every lease long-poll blocked on the channel it observed wakes and
	// looks again, so a wake cannot be spent on a member with nothing to
	// lease while the member the work was placed on sleeps.
	notify chan struct{}

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewCoordinator builds the coordinator and starts its lease-expiry
// sweeper.
func NewCoordinator(opts Options) *Coordinator {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 15 * time.Second
	}
	if opts.WorkerTTL <= 0 {
		opts.WorkerTTL = 3 * opts.LeaseTTL
	}
	if opts.PollWait <= 0 {
		opts.PollWait = 2 * time.Second
	}
	if opts.DefaultMaxAttempts <= 0 {
		opts.DefaultMaxAttempts = 3
	}
	if opts.MaxPending <= 0 {
		opts.MaxPending = 4096
	}
	if opts.CacheBudget <= 0 {
		opts.CacheBudget = 256 << 20
	}
	c := &Coordinator{
		opts:    opts,
		met:     newClusterMetrics(),
		store:   newCacheStore(opts.CacheBudget),
		members: make(map[string]*member),
		items:   make(map[int64]*item),
		notify:  make(chan struct{}),
		stop:    make(chan struct{}),
	}
	// A member's catalog is the warm placement tier and what a full
	// placement table keeps.
	c.placement = placement.New(opts.Placement, opts.Seed, func(name string, fp uint64) bool {
		m := c.members[name]
		return m != nil && !m.lost && m.catalog[fp]
	})
	c.wg.Add(1)
	go c.sweeper()
	return c
}

// sweeper expires leases and lost workers even when no protocol call
// arrives to trigger the scan — without it, a dead fleet would leave
// submitters waiting forever.
func (c *Coordinator) sweeper() {
	defer c.wg.Done()
	tick := time.NewTicker(c.opts.LeaseTTL / 4)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			c.mu.Lock()
			c.expireLocked(time.Now())
			c.mu.Unlock()
		}
	}
}

// Close stops the coordinator: the sweeper exits, every unfinished item
// fails with a 503 result, and subsequent submissions are rejected.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	for _, it := range c.items {
		if it.state != stateDone {
			c.failLocked(it, http.StatusServiceUnavailable, "coordinator shutting down")
		}
	}
	c.mu.Unlock()
	close(c.stop)
	c.wg.Wait()
}

// Submit admits one job to the ledger, places it, and returns the item
// whose done channel closes when the result lands. The model bytes are
// validated (and fingerprinted) here, so every later lease ships a model
// the coordinator knows decodes.
func (c *Coordinator) Submit(kind serve.JobKind, model json.RawMessage, check serve.CheckSpec, enforce serve.EnforceSpec, deadlineMS int64, maxAttempts int) (*item, error) {
	var m repro.Macromodel
	if err := json.Unmarshal(model, &m); err != nil {
		return nil, fmt.Errorf("cluster: decoding model: %w", err)
	}
	fp := repro.PoleFingerprint(&m)
	if maxAttempts <= 0 {
		maxAttempts = c.opts.DefaultMaxAttempts
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if c.pending >= c.opts.MaxPending {
		c.met.add(&c.met.rejectedTotal, 1)
		return nil, ErrTooManyPending
	}
	c.nextItem++
	it := &item{
		id:          c.nextItem,
		kind:        kind,
		model:       model,
		fp:          fp,
		check:       check,
		enforce:     enforce,
		deadlineMS:  deadlineMS,
		maxAttempts: maxAttempts,
		done:        make(chan struct{}),
	}
	c.items[it.id] = it
	c.pending++
	c.met.add(&c.met.submittedTotal, 1)
	c.enqueueLocked(it, "", false)
	return it, nil
}

// enqueueLocked places a pending item on a member queue by the shared
// placement policy — never the excluded member, the host a requeued item
// just died on — and wakes a poller. With no live member the item simply
// stays unplaced in the ledger; the next join re-places it.
func (c *Coordinator) enqueueLocked(it *item, exclude string, front bool) {
	it.state = statePending
	it.holder = ""
	name, _, ok := c.placement.Place(it.fp, c.candidatesLocked(exclude))
	if !ok {
		// No live member can take it: park it; joinLocked re-places
		// parked items when a host arrives.
		return
	}
	m := c.members[name]
	if front {
		m.queue = append([]*item{it}, m.queue...)
	} else {
		m.queue = append(m.queue, it)
	}
	it.holder = m.name
	c.wakeLocked()
}

// wakeLocked wakes every blocked lease long-poll.
func (c *Coordinator) wakeLocked() {
	close(c.notify)
	c.notify = make(chan struct{})
}

// candidatesLocked lists the live members except the excluded one, with
// their loads, in name order: map iteration order is random, and the name
// order makes ties (and the seeded random draw) reproducible.
func (c *Coordinator) candidatesLocked(exclude string) []placement.Candidate[string] {
	var cands []placement.Candidate[string]
	for name, m := range c.members {
		if !m.lost && name != exclude {
			cands = append(cands, placement.Candidate[string]{Owner: name, Load: int64(m.load())})
		}
	}
	slices.SortFunc(cands, func(a, b placement.Candidate[string]) int { return strings.Compare(a.Owner, b.Owner) })
	return cands
}

// Join registers (or re-registers) a worker host. A re-join with a live
// name requeues everything the previous incarnation held — the old agent
// is gone; its leases would only expire later anyway.
func (c *Coordinator) Join(req *JoinRequest) (*JoinResponse, error) {
	if req.Name == "" {
		return nil, errors.New("cluster: join without a name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if old := c.members[req.Name]; old != nil {
		c.evictMemberLocked(old)
	}
	m := &member{
		name:     req.Name,
		catalog:  parseCatalog(req.Fingerprints),
		leased:   make(map[int64]*item),
		lastSeen: time.Now(),
	}
	c.members[req.Name] = m
	c.met.add(&c.met.joinsTotal, 1)
	// Re-place items parked while no member was live (or queued on hosts
	// that have since vanished).
	for _, it := range c.items {
		if it.state == statePending && it.holder == "" {
			c.enqueueLocked(it, "", false)
		}
	}
	c.wakeLocked()
	return &JoinResponse{
		LeaseTTLMS:  c.opts.LeaseTTL.Milliseconds(),
		PollWaitMS:  c.opts.PollWait.Milliseconds(),
		HeartbeatMS: (c.opts.LeaseTTL / 3).Milliseconds(),
	}, nil
}

// evictMemberLocked removes a member from service: its queue and leases
// requeue elsewhere, its catalog and placements are scrubbed.
func (c *Coordinator) evictMemberLocked(m *member) {
	m.lost = true
	c.placement.Forget(m.name)
	queue := m.queue
	m.queue = nil
	for _, it := range queue {
		c.requeueLocked(it, m.name)
	}
	leased := m.leased
	m.leased = make(map[int64]*item)
	for _, it := range leased {
		c.requeueLocked(it, m.name)
	}
	delete(c.members, m.name)
	c.met.add(&c.met.leavesTotal, 1)
}

// requeueLocked moves an item that died with its host back to pending on
// a different member — or fails it when its lease attempts are spent.
func (c *Coordinator) requeueLocked(it *item, exclude string) {
	if it.state == stateDone {
		return
	}
	if it.state == stateLeased && it.attempts >= it.maxAttempts {
		c.failLocked(it, http.StatusInternalServerError,
			fmt.Sprintf("lease expired on %q after %d attempt(s); worker lost", it.holder, it.attempts))
		return
	}
	if it.state == stateLeased {
		c.met.add(&c.met.requeuesTotal, 1)
	}
	// Requeued items go to the front: they have been waiting longest and
	// their submitter is closest to a timeout.
	c.enqueueLocked(it, exclude, true)
}

// failLocked records a terminal failure result.
func (c *Coordinator) failLocked(it *item, status int, msg string) {
	it.resp = serve.Response{Error: msg, Attempts: it.attempts, Fingerprint: fmt.Sprintf("%016x", it.fp)}
	c.finishLocked(it, status)
	c.met.add(&c.met.failedTotal, 1)
}

// finishLocked transitions an item to done and releases its waiter.
func (c *Coordinator) finishLocked(it *item, status int) {
	if it.state == stateDone {
		return
	}
	if it.state == stateLeased {
		if m := c.members[it.holder]; m != nil {
			delete(m.leased, it.id)
		}
	}
	it.state = stateDone
	it.status = status
	c.pending--
	close(it.done)
	// Done items stay in the ledger map so late duplicate completions
	// are recognized (and discarded) rather than mistaken for unknown
	// items; drop the heavy payload, keep the bookkeeping.
	it.model = nil
}

// expireLocked requeues expired leases and evicts silent members.
func (c *Coordinator) expireLocked(now time.Time) {
	for _, m := range c.members {
		if now.Sub(m.lastSeen) > c.opts.WorkerTTL {
			c.evictMemberLocked(m)
		}
	}
	for _, m := range c.members {
		for _, it := range m.leased {
			if now.After(it.leaseExpiry) {
				delete(m.leased, it.id)
				c.requeueLocked(it, m.name)
			}
		}
	}
}

// parseCatalog decodes a worker-advertised %016x fingerprint list
// (unparseable entries are dropped — an agent bug must not poison the
// whole catalog).
func parseCatalog(ss []string) map[uint64]bool {
	cat := make(map[uint64]bool, len(ss))
	for _, s := range ss {
		if fp, err := strconv.ParseUint(s, 16, 64); err == nil {
			cat[fp] = true
		}
	}
	return cat
}

// Lease hands the next work item to a member, long-polling up to
// PollWait. A nil response with nil error means "no work right now"
// (HTTP 204). An idle member whose own queue is empty steals from the
// tail of the most-loaded peer's queue.
func (c *Coordinator) Lease(ctx context.Context, req *LeaseRequest) (*LeaseResponse, error) {
	deadline := time.NewTimer(c.opts.PollWait)
	defer deadline.Stop()
	for {
		resp, wait, err := c.tryLease(req)
		if resp != nil || err != nil {
			return resp, err
		}
		select {
		case <-wait:
		case <-deadline.C:
			return nil, nil
		case <-ctx.Done():
			return nil, nil
		case <-c.stop:
			return nil, ErrClosed
		}
	}
}

// tryLease attempts one lease without blocking. With no work it returns
// the wake channel current in the same critical section, so work that
// arrives after this look closes the channel the caller waits on.
func (c *Coordinator) tryLease(req *LeaseRequest) (*LeaseResponse, <-chan struct{}, error) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, nil, ErrClosed
	}
	m := c.members[req.Worker]
	if m == nil || m.lost {
		return nil, nil, ErrUnknownWorker
	}
	m.lastSeen = now
	if req.Fingerprints != nil {
		m.catalog = parseCatalog(req.Fingerprints)
	}
	c.expireLocked(now)

	var it *item
	stolen := false
	if len(m.queue) > 0 {
		it, m.queue = m.queue[0], m.queue[1:]
	} else {
		// Steal from the tail of the most-loaded peer's queue: the tail
		// is the work the victim will reach last, so moving it disturbs
		// affinity the least while keeping this host busy. Only genuinely
		// backlogged victims qualify — running something with more queued,
		// or a queue of two-plus; snatching the single queued item of an
		// otherwise idle peer is pure placement churn, not throughput.
		var victim *member
		for _, v := range c.members {
			if v == m || v.lost || len(v.queue) == 0 {
				continue
			}
			if len(v.queue) < 2 && len(v.leased) == 0 {
				continue
			}
			if victim == nil || len(v.queue) > len(victim.queue) || (len(v.queue) == len(victim.queue) && v.name < victim.name) {
				victim = v
			}
		}
		if victim != nil {
			it = victim.queue[len(victim.queue)-1]
			victim.queue = victim.queue[:len(victim.queue)-1]
			stolen = true
			c.met.add(&c.met.stealsTotal, 1)
			// The placement follows the thief so queued siblings of the
			// fingerprint migrate with the cache.
			c.placement.Record(it.fp, m.name)
		}
	}
	if it == nil {
		return nil, c.notify, nil
	}
	it.state = stateLeased
	it.epoch++
	it.attempts++
	it.holder = m.name
	it.leaseExpiry = now.Add(c.opts.LeaseTTL)
	it.stolen = stolen
	m.leased[it.id] = it
	c.met.add(&c.met.leasesTotal, 1)
	if m.catalog[it.fp] {
		c.met.add(&c.met.warmLeasesTotal, 1)
	}

	resp := &LeaseResponse{
		Item:        it.id,
		Epoch:       it.epoch,
		Kind:        it.kind.String(),
		Model:       it.model,
		Check:       it.check,
		Enforce:     it.enforce,
		DeadlineMS:  it.deadlineMS,
		Fingerprint: fmt.Sprintf("%016x", it.fp),
		Stolen:      stolen,
		WantCache:   !m.catalog[it.fp],
	}
	if !m.catalog[it.fp] {
		// Ship the warm cache ahead of the model when the store holds one
		// this host lacks.
		if addr := c.store.latestAddr(it.fp); addr != "" {
			resp.CacheAddr = addr
			c.met.add(&c.met.cacheShipsTotal, 1)
		}
	}
	return resp, nil, nil
}

// Heartbeat renews a member's liveness and the leases of the items it
// reports in flight.
func (c *Coordinator) Heartbeat(req *HeartbeatRequest) error {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.members[req.Worker]
	if m == nil || m.lost {
		return ErrUnknownWorker
	}
	m.lastSeen = now
	if req.Fingerprints != nil {
		m.catalog = parseCatalog(req.Fingerprints)
	}
	for _, id := range req.Items {
		if it := m.leased[id]; it != nil {
			it.leaseExpiry = now.Add(c.opts.LeaseTTL)
		}
	}
	return nil
}

// Complete records one item's result. Only a completion presenting the
// item's current epoch from its current holder is accepted; anything
// else — a duplicate from a host whose lease expired and whose item
// already ran elsewhere, an unknown item id — is discarded, so every
// item's result is delivered exactly once. An accepted completion also
// ingests the optional cache upload — validated, content-addressed,
// catalogued; a corrupt blob is quarantined without touching the result
// — before the item's waiter is released, so the next job of the
// fingerprint finds the blob. The order is: epoch and holder check under
// the lock (a stale completion never stores a blob), the store outside
// it, then under the lock again a re-check of the epoch, the catalog
// update and the finish.
func (c *Coordinator) Complete(req *CompleteRequest) *CompleteResponse {
	c.mu.Lock()
	if m := c.members[req.Worker]; m != nil && !m.lost {
		m.lastSeen = time.Now()
	}
	reject := c.checkCompletionLocked(req)
	c.mu.Unlock()
	if reject != nil {
		return reject
	}

	stored, upFP := false, uint64(0)
	if len(req.Cache) > 0 {
		if _, fp, err := c.store.put(req.Cache); err != nil {
			c.met.add(&c.met.quarantinedUploads, 1)
		} else {
			c.met.add(&c.met.cacheBytesTotal, int64(len(req.Cache)))
			stored, upFP = true, fp
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	// The lease may have expired, or a twin completion landed, while the
	// blob was being stored.
	if reject := c.checkCompletionLocked(req); reject != nil {
		return reject
	}
	it := c.items[req.Item]
	it.resp = req.Response
	it.resp.Attempts = it.attempts // cluster-level attempts supersede host-local counts
	status := req.Status
	if status == 0 {
		status = http.StatusOK
	}
	if m := c.members[req.Worker]; m != nil {
		// The host just ran the model; its serve layer holds the cache.
		m.catalog[it.fp] = true
		if stored {
			m.catalog[upFP] = true
		}
	}
	c.finishLocked(it, status)
	c.met.completed(it.kind.String(), status)
	return &CompleteResponse{Accepted: true}
}

// checkCompletionLocked returns the discard answer for a completion that
// does not present its item's current epoch from its current holder, or
// nil when the completion may be recorded.
func (c *Coordinator) checkCompletionLocked(req *CompleteRequest) *CompleteResponse {
	it := c.items[req.Item]
	switch {
	case it == nil:
		c.met.add(&c.met.duplicatesTotal, 1)
		return &CompleteResponse{Accepted: false, Reason: "unknown item"}
	case it.state != stateLeased || it.epoch != req.Epoch || it.holder != req.Worker:
		c.met.add(&c.met.duplicatesTotal, 1)
		return &CompleteResponse{Accepted: false, Reason: "stale epoch"}
	}
	return nil
}

// CacheBlob serves a stored warm-state blob by content address (nil when
// evicted or superseded), counting the downstream transfer.
func (c *Coordinator) CacheBlob(addr string) []byte {
	blob := c.store.get(addr)
	if blob != nil {
		c.met.add(&c.met.cacheBytesTotal, int64(len(blob)))
	}
	return blob
}
