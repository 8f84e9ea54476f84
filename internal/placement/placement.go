// Package placement is the one job-placement policy of the passivity
// service, shared by the single-host dispatcher (internal/serve, owners
// are worker indices) and the cluster coordinator (internal/cluster,
// owners are member names).
//
// Both levels place a job by the pole-set fingerprint of its model, so
// jobs sharing a pole set land where that pole set's evaluation cache is
// warm. Table keeps a bounded fingerprint→owner map and places by:
//
//  1. the recorded owner, if it is still a candidate;
//  2. the least-loaded candidate that holds the fingerprint warm;
//  3. the least-loaded candidate;
//
// recording the choice. Ties go to the first candidate in the caller's
// order. The Random policy is the control arm of the affinity benchmarks:
// a seeded uniform draw that records nothing.
package placement

import "math/rand"

// Policy selects how a Table places jobs.
type Policy int

const (
	// Affinity (the default) follows the recorded owner and cache
	// residency, falling back to the least-loaded candidate.
	Affinity Policy = iota
	// Random draws a uniformly random candidate from a seeded source and
	// ignores cache residency — the control arm of the affinity
	// benchmarks; production services want Affinity.
	Random
)

// MaxEntries bounds a table's fingerprint→owner map.
const MaxEntries = 1 << 16

// Candidate is one owner a job may be placed on. Callers offer only
// eligible owners: live ones, minus any excluded owner (a requeue leaves
// out the owner the job just failed on).
type Candidate[O comparable] struct {
	// Owner identifies the worker or member.
	Owner O
	// Load is its queued plus running work.
	Load int64
}

// Table is a bounded fingerprint→owner placement map plus the policy that
// fills it. It is not safe for concurrent use; callers hold their own
// lock.
type Table[O comparable] struct {
	policy Policy
	rng    *rand.Rand
	max    int
	owners map[uint64]O
	// warm reports whether owner holds fp's cache: the second placement
	// tier, and what a full table keeps when it sheds entries.
	warm func(owner O, fp uint64) bool
}

// New builds an empty table. seed makes the Random policy reproducible
// (0 = a fixed default); warm is the caller's cache-residency probe.
func New[O comparable](policy Policy, seed int64, warm func(owner O, fp uint64) bool) *Table[O] {
	if seed == 0 {
		seed = 1
	}
	return &Table[O]{
		policy: policy,
		rng:    rand.New(rand.NewSource(seed)),
		max:    MaxEntries,
		owners: make(map[uint64]O),
		warm:   warm,
	}
}

// Place picks the owner for fingerprint fp among cands (Pick) and
// records the choice.
func (t *Table[O]) Place(fp uint64, cands []Candidate[O]) (owner O, hit, ok bool) {
	if owner, hit, ok = t.Pick(fp, cands); ok {
		t.Record(fp, owner)
	}
	return owner, hit, ok
}

// Pick chooses the owner for fingerprint fp among cands without
// recording it. hit reports that the owner was already associated with
// fp (recorded or warm); ok is false when cands is empty.
func (t *Table[O]) Pick(fp uint64, cands []Candidate[O]) (owner O, hit, ok bool) {
	if len(cands) == 0 {
		return owner, false, false
	}
	if t.policy == Random {
		return cands[t.rng.Intn(len(cands))].Owner, false, true
	}
	if rec, recorded := t.owners[fp]; recorded {
		for _, c := range cands {
			if c.Owner == rec {
				return rec, true, true
			}
		}
	}
	warm, cold := -1, 0
	for i, c := range cands {
		if (warm < 0 || c.Load < cands[warm].Load) && t.warm(c.Owner, fp) {
			warm = i
		}
		if c.Load < cands[cold].Load {
			cold = i
		}
	}
	if warm >= 0 {
		return cands[warm].Owner, true, true
	}
	return cands[cold].Owner, false, true
}

// Record associates fp with owner — an imported cache, or a stolen job
// whose placement follows the thief. It is a no-op under Random. A full
// table first sheds its cold entries (owners no longer holding the
// fingerprint warm), then arbitrary ones if the warm set alone fills it.
func (t *Table[O]) Record(fp uint64, owner O) {
	if t.policy == Random {
		return
	}
	if _, exists := t.owners[fp]; !exists && len(t.owners) >= t.max {
		for f, o := range t.owners {
			if !t.warm(o, f) {
				delete(t.owners, f)
			}
		}
		for f := range t.owners {
			if len(t.owners) < t.max {
				break
			}
			delete(t.owners, f)
		}
	}
	t.owners[fp] = owner
}

// Forget drops every placement pointing at owner (a retired worker, an
// evicted member): the caches they pointed at are gone.
func (t *Table[O]) Forget(owner O) {
	for fp, o := range t.owners {
		if o == owner {
			delete(t.owners, fp)
		}
	}
}

// Owner returns the recorded owner of fp.
func (t *Table[O]) Owner(fp uint64) (O, bool) {
	o, ok := t.owners[fp]
	return o, ok
}

// Len returns the number of recorded placements.
func (t *Table[O]) Len() int { return len(t.owners) }
