package serve

import (
	"context"
	"os"
	"sync"
	"time"
)

// FaultPlan is a deterministic fault-injection schedule for tests. It
// extends the runHook seam: installed with Server.InjectFaults, its hook
// runs at the start of every job attempt, numbers the attempt — globally
// and per worker, each counter 1-based in execution order — and fires
// whatever fault is registered for that number: a panic (exercising
// worker supervision), a transient or permanent error (exercising
// retry), or added latency (exercising deadlines and drain windows).
// Because faults key on attempt numbers rather than wall clock, a chaos
// test decides exactly which attempt dies regardless of scheduling, and
// the same plan replays identically under -race.
//
// The zero value is an empty plan; chain the registration methods:
//
//	s.InjectFaults(new(FaultPlan).
//		PanicOnWorker(0, 1, "boom").   // worker 0's first attempt panics
//		FailOn(5, Transient(errFlaky)). // 5th attempt overall fails retryably
//		DelayOn(7, 50*time.Millisecond))
type FaultPlan struct {
	mu        sync.Mutex
	specs     map[faultKey]faultSpec
	globalSeq int64
	workerSeq map[int]int64
}

// faultKey names an attempt: the nth overall (worker −1) or the nth run
// by one worker.
type faultKey struct {
	worker int
	n      int64
}

// faultSpec is one registered fault. Latency applies first, then panic,
// then error — a single spec can combine them.
type faultSpec struct {
	latency    time.Duration
	panicValue any
	doPanic    bool
	err        error
}

// set amends the spec of attempt n — overall for worker −1, else of that
// worker's attempts.
func (p *FaultPlan) set(worker int, n int64, f func(*faultSpec)) *FaultPlan {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.specs == nil {
		p.specs = make(map[faultKey]faultSpec)
	}
	k := faultKey{worker, n}
	s := p.specs[k]
	f(&s)
	p.specs[k] = s
	return p
}

// PanicOn makes the nth attempt overall (1-based) panic with value.
func (p *FaultPlan) PanicOn(n int64, value any) *FaultPlan {
	return p.set(-1, n, func(s *faultSpec) { s.doPanic, s.panicValue = true, value })
}

// PanicOnWorker makes the nth attempt run by the given worker panic.
func (p *FaultPlan) PanicOnWorker(worker int, n int64, value any) *FaultPlan {
	return p.set(worker, n, func(s *faultSpec) { s.doPanic, s.panicValue = true, value })
}

// FailOn makes the nth attempt overall fail with err (wrap with
// Transient to make it retryable).
func (p *FaultPlan) FailOn(n int64, err error) *FaultPlan {
	return p.set(-1, n, func(s *faultSpec) { s.err = err })
}

// FailOnWorker makes the nth attempt run by the given worker fail.
func (p *FaultPlan) FailOnWorker(worker int, n int64, err error) *FaultPlan {
	return p.set(worker, n, func(s *faultSpec) { s.err = err })
}

// DelayOn stalls the nth attempt overall by d (cut short by the job's
// deadline context, which then fails the attempt with the ctx error).
func (p *FaultPlan) DelayOn(n int64, d time.Duration) *FaultPlan {
	return p.set(-1, n, func(s *faultSpec) { s.latency = d })
}

// DelayOnWorker stalls the nth attempt run by the given worker.
func (p *FaultPlan) DelayOnWorker(worker int, n int64, d time.Duration) *FaultPlan {
	return p.set(worker, n, func(s *faultSpec) { s.latency = d })
}

// Attempts reports how many attempts the plan has numbered so far.
func (p *FaultPlan) Attempts() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.globalSeq
}

// hook is installed as the server's runHook. A worker-specific fault
// wins over a global one for the same attempt; the shadowed global fault
// moves to the next attempt number without one, so it is not lost to a
// scheduling coincidence.
func (p *FaultPlan) hook(ctx context.Context, j *Job) error {
	p.mu.Lock()
	p.globalSeq++
	if p.workerSeq == nil {
		p.workerSeq = make(map[int]int64)
	}
	p.workerSeq[j.worker]++
	global := faultKey{-1, p.globalSeq}
	spec, ok := p.specs[faultKey{j.worker, p.workerSeq[j.worker]}]
	if shadowed, both := p.specs[global]; !ok {
		spec, ok = shadowed, both
	} else if both {
		next := global
		for taken := true; taken; _, taken = p.specs[next] {
			next.n++
		}
		p.specs[next] = shadowed
	}
	p.mu.Unlock()
	if !ok {
		return nil
	}
	if spec.latency > 0 {
		select {
		case <-time.After(spec.latency):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if spec.doPanic {
		panic(spec.panicValue)
	}
	return spec.err
}

// InjectFaults installs the plan on the server's runHook seam. Call
// before submitting jobs; passing nil clears injection. Test-only — the
// production daemon never installs a plan.
func (s *Server) InjectFaults(p *FaultPlan) {
	if p == nil {
		s.runHook = nil
		return
	}
	s.runHook = p.hook
}

// CorruptCacheFile flips one byte in the middle of a saved cache file so
// its checksum footer no longer matches — the deterministic stand-in for
// a torn write or disk corruption between save and load. The load path
// must quarantine the file rather than fail.
func CorruptCacheFile(path string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	blob[len(blob)/2] ^= 0xff
	return os.WriteFile(path, blob, 0o644)
}
