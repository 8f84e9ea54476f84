package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
)

// Worker supervision and job retry.
//
// The failure model: anything under a worker's job — the Session call,
// a progress sink, a fault hook — may panic, and the service must keep
// its contract anyway (every accepted job receives exactly one Result,
// Drain completes, the admission counter never leaks). Each attempt
// therefore runs behind a recover that converts the panic into a typed
// *PanicError; the panicking worker's Session is retired on the spot —
// a panic mid-check can leave a checked-out cache half-mutated, so the
// old Session is never trusted again — and rebuilt fresh, up to
// Options.MaxWorkerRestarts times. Beyond the bound the worker itself is
// retired: the dispatcher stops routing to it and its goroutine turns
// into a forwarder that hands anything still queued on its channel to
// the surviving workers.
//
// Jobs that die with a worker, or fail with an error marked Transient,
// are requeued onto a different live worker (the same one only when no
// other exists) until Job.MaxAttempts runs out. Enforce retries restart
// from a pristine copy of the model, never from the half-perturbed one
// the failed attempt left behind.

// ErrWorkerPanic marks a job attempt that died with a panicking worker.
// Match with errors.Is; the concrete error is a *PanicError carrying the
// recovered value and stack.
var ErrWorkerPanic = errors.New("serve: worker panicked")

// ErrNoWorkers rejects a Submit because every worker exhausted its
// restart budget and was retired (HTTP 503).
var ErrNoWorkers = errors.New("serve: every worker retired")

// PanicError is the typed error a job fails with when the worker running
// it panics. It matches ErrWorkerPanic under errors.Is.
type PanicError struct {
	// Worker is the index of the worker that panicked.
	Worker int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error formats the panic without the stack (the stack rides along for
// logs and tests that want it).
func (e *PanicError) Error() string {
	return fmt.Sprintf("serve: worker %d panicked: %v", e.Worker, e.Value)
}

// Is matches ErrWorkerPanic so callers can classify without the type.
func (e *PanicError) Is(target error) bool { return target == ErrWorkerPanic }

// Transient wraps err so the retry machinery treats a failed attempt as
// retryable. Fault hooks and future transport layers mark recoverable
// failures this way; ordinary job errors (a model the solver rejects, a
// deadline expiry) are not retried.
func Transient(err error) error { return &transientError{err} }

type transientError struct{ err error }

func (e *transientError) Error() string { return "transient: " + e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// IsTransient reports whether err (or anything it wraps) was marked by
// Transient.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// retryable reports whether a failed attempt may run again: worker
// panics and explicitly transient errors, nothing else. Deadline expiry
// and cancellation are deliberate outcomes, not faults.
func retryable(err error) bool {
	return errors.Is(err, ErrWorkerPanic) || IsTransient(err)
}

// process owns one accepted job from pickup to its single Result
// delivery, looping over attempts that stay on this worker and handing
// off the ones that requeue elsewhere.
func (w *worker) process(j *Job) {
	for {
		if w.dead.Load() {
			// A retired worker no longer runs jobs: forward to a live
			// peer, or fail the job if nobody can take it (all workers
			// dead, or the drain already closed the queues).
			if w.srv.requeue(j, w) {
				return
			}
			w.deliver(j, &Result{
				Worker:      w.id,
				AffinityHit: j.affinityHit,
				Fingerprint: j.fp,
				LastErr:     j.lastErr,
				Err:         fmt.Errorf("serve: worker %d retired after repeated panics: %w", w.id, ErrWorkerPanic),
			})
			return
		}
		res := w.run(j)
		if pe := (*PanicError)(nil); errors.As(res.Err, &pe) {
			w.srv.met.add(&w.srv.met.panicsTotal, 1)
			w.retire()
		}
		if res.Err == nil || !retryable(res.Err) || j.attempts >= j.maxAttempts {
			w.deliver(j, res)
			return
		}
		j.lastErr = res.Err
		if w.srv.requeue(j, w) {
			return // another worker owns the next attempt
		}
		// No other live worker can take it: retry here. If this worker
		// just retired, the next loop iteration fails the job instead.
	}
}

// deliver settles the admission accounting and hands the job its Result.
// It runs exactly once per accepted job, so the queued counter and the
// per-worker pending load can never leak — not even when every attempt
// panicked. The Result goes last, so a caller holding it already sees
// the queue slot freed and the job counted in the metrics.
func (w *worker) deliver(j *Job, res *Result) {
	res.Attempts = j.attempts
	w.pending.Add(-1)
	s := w.srv
	s.mu.Lock()
	s.queued--
	s.mu.Unlock()
	s.met.finished(j.Kind, res)
	j.result <- res // buffered: never blocks on a departed caller
}

// retire replaces the worker's Session after a panic — the old one may
// hold a cache in an inconsistent state and is never reused — and, once
// the restart budget is spent, retires the worker itself. Either way the
// dispatcher's placements onto this worker are scrubbed: the caches they
// pointed at are gone.
func (w *worker) retire() {
	s := w.srv
	s.mu.Lock()
	s.affinity.Forget(w.id)
	w.restarts++
	died := w.restarts > s.opts.MaxWorkerRestarts
	if died && !w.dead.Load() {
		w.dead.Store(true)
		s.deadWorkers++
	}
	// The fresh Session keeps even a retired worker safe to probe
	// (HasCache, cache stats) and costs nothing until used.
	w.sess = s.newWorkerSession(w)
	s.mu.Unlock()
	if died {
		s.met.add(&s.met.retiredTotal, 1)
	} else {
		s.met.add(&s.met.restartsTotal, 1)
	}
}

// requeue moves an accepted job onto a different live worker's queue —
// placed by the shared policy with the failing worker excluded — and
// re-records the job's placement so queued siblings follow it. It
// returns false when no other live worker exists or the server is
// draining (the queues are closed); the caller then retries in place or
// fails the job. The job stays
// accepted throughout: the admission counter is untouched and the
// channel send cannot block (each accepted job occupies at most one
// queue slot, and admission bounds accepted jobs by QueueDepth — every
// worker's buffer size).
func (s *Server) requeue(j *Job, from *worker) bool {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return false
	}
	id, _, ok := s.affinity.Place(j.fp, s.candidatesLocked(from))
	if !ok {
		s.mu.Unlock()
		return false
	}
	best := s.workers[id]
	j.worker = best.id
	from.pending.Add(-1)
	best.pending.Add(1)
	best.jobs <- j
	s.mu.Unlock()
	s.met.add(&s.met.requeuedTotal, 1)
	return true
}

// runAttempt executes one attempt behind panic isolation: a panic
// anywhere under the job — fault hook or Session call — becomes a typed
// *PanicError on the Result instead of killing the worker goroutine.
func (w *worker) runAttempt(ctx0 context.Context, j *Job, res *Result) {
	defer func() {
		if v := recover(); v != nil {
			res.Err = &PanicError{Worker: w.id, Value: v, Stack: debug.Stack()}
		}
	}()
	if hook := w.srv.runHook; hook != nil {
		res.Err = hook(ctx0, j)
	}
	if res.Err != nil {
		return
	}
	switch j.Kind {
	case JobCheck:
		res.Report, res.Err = w.sess.Check(ctx0, j.Model, j.Check)
	case JobEnforce:
		eopts := j.Enforce
		eopts.Check = j.Check
		res.Enforce, res.Err = w.sess.Enforce(ctx0, j.Model, eopts)
		if res.Enforce != nil {
			res.Report = res.Enforce.Final
			res.Model = j.Model
		}
	default:
		res.Err = fmt.Errorf("serve: unknown job kind %d", j.Kind)
	}
}
