package serve

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	repro "repro"
)

// settleGoroutines waits for the goroutine count to come back to (near)
// base — the leak check after a drain.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines did not settle: %d now vs %d at start", runtime.NumGoroutine(), base)
}

// TestFaultPanicRetriesOnAnotherWorker: a worker panic mid-job becomes a
// typed *PanicError, the worker's Session is retired and rebuilt, and
// the job is requeued onto a different worker where it succeeds — with
// attempt count and the panic surfaced in the Result.
func TestFaultPanicRetriesOnAnotherWorker(t *testing.T) {
	s, err := New(Options{Workers: 2, QueueDepth: 16, DefaultDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	s.InjectFaults(new(FaultPlan).PanicOnWorker(0, 1, "injected fault"))

	models := library(t, 2, 1, 12)
	// A fresh fingerprint routes least-loaded, i.e. to worker 0 — whose
	// first attempt is scheduled to panic.
	ch, err := s.Submit(&Job{Kind: JobCheck, Model: models[0], Check: fastCheck})
	if err != nil {
		t.Fatal(err)
	}
	res := <-ch
	if res.Err != nil {
		t.Fatalf("retried job failed: %v", res.Err)
	}
	if res.Attempts != 2 || res.Worker != 1 {
		t.Fatalf("attempts=%d worker=%d, want 2 on worker 1", res.Attempts, res.Worker)
	}
	if !errors.Is(res.LastErr, ErrWorkerPanic) {
		t.Fatalf("LastErr = %v, want ErrWorkerPanic", res.LastErr)
	}
	var pe *PanicError
	if !errors.As(res.LastErr, &pe) || pe.Worker != 0 || len(pe.Stack) == 0 ||
		!strings.Contains(pe.Error(), "injected fault") {
		t.Fatalf("panic detail: %+v", pe)
	}

	// The requeue re-recorded the fingerprint's placement: a variant of
	// the same pole set follows the job to worker 1 as an affinity hit.
	ch, err = s.Submit(&Job{Kind: JobCheck, Model: variant(t, models[0], 1.002), Check: fastCheck})
	if err != nil {
		t.Fatal(err)
	}
	if res := <-ch; res.Err != nil || res.Worker != 1 || !res.AffinityHit {
		t.Fatalf("follow-up placement: err=%v worker=%d hit=%v, want worker 1 hit", res.Err, res.Worker, res.AffinityHit)
	}

	// Worker 0 survived (one restart is within budget) and still serves.
	ch, err = s.Submit(&Job{Kind: JobCheck, Model: models[1], Check: fastCheck})
	if err != nil {
		t.Fatal(err)
	}
	if res := <-ch; res.Err != nil || res.Worker != 0 || res.Attempts != 1 {
		t.Fatalf("worker 0 after restart: err=%v worker=%d attempts=%d", res.Err, res.Worker, res.Attempts)
	}

	// Accounting is exact: nothing leaked toward a spurious 429.
	if d := s.QueueDepth(); d != 0 {
		t.Fatalf("queue depth %d after all results, want 0", d)
	}
	s.met.mu.Lock()
	panics, restarts, retries, requeued := s.met.panicsTotal, s.met.restartsTotal, s.met.retriesTotal, s.met.requeuedTotal
	s.met.mu.Unlock()
	if panics != 1 || restarts != 1 || retries != 1 || requeued != 1 {
		t.Fatalf("metrics panics=%d restarts=%d retries=%d requeued=%d, want 1/1/1/1", panics, restarts, retries, requeued)
	}
	drainOrFail(t, s)
}

// TestFaultPanicExhaustsAttempts: with a single worker every retry runs
// in place, and a job whose every attempt panics is delivered with
// ErrWorkerPanic and the full attempt count — then the freshly rebuilt
// Session keeps serving.
func TestFaultPanicExhaustsAttempts(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueDepth: 8, DefaultDeadline: time.Minute, MaxWorkerRestarts: 8})
	if err != nil {
		t.Fatal(err)
	}
	s.InjectFaults(new(FaultPlan).PanicOnWorker(0, 1, "first").PanicOnWorker(0, 2, "second"))

	models := library(t, 2, 1, 12)
	ch, err := s.Submit(&Job{Kind: JobCheck, Model: models[0], Check: fastCheck, MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	res := <-ch
	if !errors.Is(res.Err, ErrWorkerPanic) || res.Attempts != 2 {
		t.Fatalf("exhausted job: err=%v attempts=%d, want ErrWorkerPanic after 2", res.Err, res.Attempts)
	}
	if !errors.Is(res.LastErr, ErrWorkerPanic) {
		t.Fatalf("LastErr = %v, want the first attempt's panic", res.LastErr)
	}

	// The worker is still alive on a fresh Session; the queue is clean.
	ch, err = s.Submit(&Job{Kind: JobCheck, Model: models[1], Check: fastCheck})
	if err != nil {
		t.Fatal(err)
	}
	if res := <-ch; res.Err != nil || res.Attempts != 1 {
		t.Fatalf("post-panic job: err=%v attempts=%d", res.Err, res.Attempts)
	}
	if d := s.QueueDepth(); d != 0 {
		t.Fatalf("queue depth %d, want 0", d)
	}
	drainOrFail(t, s)
}

// TestFaultTransientAndPermanentErrors: a Transient-marked failure is
// retried to success; an unmarked failure is final on the first attempt.
func TestFaultTransientAndPermanentErrors(t *testing.T) {
	s, err := New(Options{Workers: 2, QueueDepth: 16, DefaultDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	permanent := errors.New("solver rejected the model")
	s.InjectFaults(new(FaultPlan).
		FailOn(1, Transient(errors.New("flaky transport"))).
		FailOn(3, permanent))

	models := library(t, 2, 1, 12)
	ch, err := s.Submit(&Job{Kind: JobCheck, Model: models[0], Check: fastCheck})
	if err != nil {
		t.Fatal(err)
	}
	res := <-ch
	if res.Err != nil || res.Attempts != 2 || !IsTransient(res.LastErr) {
		t.Fatalf("transient retry: err=%v attempts=%d lastErr=%v", res.Err, res.Attempts, res.LastErr)
	}

	ch, err = s.Submit(&Job{Kind: JobCheck, Model: models[1], Check: fastCheck})
	if err != nil {
		t.Fatal(err)
	}
	res = <-ch
	if !errors.Is(res.Err, permanent) || res.Attempts != 1 {
		t.Fatalf("permanent error: err=%v attempts=%d, want no retry", res.Err, res.Attempts)
	}
	drainOrFail(t, s)
}

// TestFaultWorkerRetiredAfterRestartBudget: a worker that keeps
// panicking is retired once its Session-restart budget is spent; the
// dispatcher stops routing to it, its placements are scrubbed, and the
// surviving pool absorbs the load.
func TestFaultWorkerRetiredAfterRestartBudget(t *testing.T) {
	s, err := New(Options{Workers: 2, QueueDepth: 16, DefaultDeadline: time.Minute, MaxWorkerRestarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.InjectFaults(new(FaultPlan).
		PanicOnWorker(0, 1, "panic one").
		PanicOnWorker(0, 2, "panic two"))

	models := library(t, 3, 1, 12)
	for i := 0; i < 2; i++ {
		ch, err := s.Submit(&Job{Kind: JobCheck, Model: models[i], Check: fastCheck})
		if err != nil {
			t.Fatal(err)
		}
		if res := <-ch; res.Err != nil || res.Worker != 1 || res.Attempts != 2 {
			t.Fatalf("job %d: err=%v worker=%d attempts=%d, want rescue on worker 1", i, res.Err, res.Worker, res.Attempts)
		}
	}
	// Worker 0 is retired now: fresh fingerprints route straight to 1.
	ch, err := s.Submit(&Job{Kind: JobCheck, Model: models[2], Check: fastCheck})
	if err != nil {
		t.Fatal(err)
	}
	if res := <-ch; res.Err != nil || res.Worker != 1 || res.Attempts != 1 {
		t.Fatalf("post-retirement job: err=%v worker=%d attempts=%d", res.Err, res.Worker, res.Attempts)
	}
	s.mu.Lock()
	for _, m := range models {
		fp := repro.PoleFingerprint(m)
		if wi, ok := s.affinity.Owner(fp); ok && wi == 0 {
			t.Errorf("affinity %016x still points at retired worker 0", fp)
		}
	}
	dead := s.deadWorkers
	s.mu.Unlock()
	if dead != 1 || !s.workers[0].dead.Load() {
		t.Fatalf("deadWorkers=%d dead[0]=%v, want worker 0 retired", dead, s.workers[0].dead.Load())
	}
	s.met.mu.Lock()
	retired, restarts := s.met.retiredTotal, s.met.restartsTotal
	s.met.mu.Unlock()
	if retired != 1 || restarts != 1 {
		t.Fatalf("metrics retired=%d restarts=%d, want 1/1", retired, restarts)
	}
	drainOrFail(t, s)
}

// TestFaultAllWorkersRetired: when the whole pool is gone, Submit fails
// fast with ErrNoWorkers (503 on the wire) instead of queueing work
// nobody will run — and Drain still completes.
func TestFaultAllWorkersRetired(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueDepth: 8, DefaultDeadline: time.Minute, MaxWorkerRestarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.InjectFaults(new(FaultPlan).
		PanicOnWorker(0, 1, "one").PanicOnWorker(0, 2, "two"))

	models := library(t, 2, 1, 12)
	for i := 0; i < 2; i++ {
		ch, err := s.Submit(&Job{Kind: JobCheck, Model: models[0], Check: fastCheck, MaxAttempts: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res := <-ch; !errors.Is(res.Err, ErrWorkerPanic) {
			t.Fatalf("job %d: err=%v, want ErrWorkerPanic", i, res.Err)
		}
	}
	if _, err := s.Submit(&Job{Kind: JobCheck, Model: models[1], Check: fastCheck}); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("submit to dead pool: %v, want ErrNoWorkers", err)
	}
	drainOrFail(t, s)
}

// TestFaultEnforceRetryFromPristine: an enforce attempt that fails after
// perturbing the model in place is retried from a pristine copy — the
// retry sees byte-identical input, not the half-perturbed survivor.
func TestFaultEnforceRetryFromPristine(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueDepth: 8, DefaultDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	var snapshots [][]byte
	s.runHook = func(ctx context.Context, j *Job) error {
		blob, err := json.Marshal(j.Model)
		if err != nil {
			t.Error(err)
		}
		snapshots = append(snapshots, blob)
		if len(snapshots) == 1 {
			// Simulate a fault mid-enforcement: the model has already
			// been perturbed when the attempt dies.
			*j.Model = *variant(t, j.Model, 1000)
			return Transient(errors.New("died mid-perturbation"))
		}
		return nil
	}

	bad, err := repro.SyntheticMacromodel(repro.SyntheticModelOptions{
		Ports: 2, Poles: 16, Seed: 42, PeakGain: 1.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(bad)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := s.Submit(&Job{
		Kind: JobEnforce, Model: bad,
		Check:   repro.CheckOptions{Method: repro.CheckSweep, SweepPoints: 400},
		Enforce: repro.EnforceOptions{ClampD: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := <-ch
	if res.Err != nil || res.Attempts != 2 {
		t.Fatalf("enforce retry: err=%v attempts=%d", res.Err, res.Attempts)
	}
	if len(snapshots) != 2 {
		t.Fatalf("hook saw %d attempts, want 2", len(snapshots))
	}
	if string(snapshots[0]) != string(want) {
		t.Fatal("first attempt did not start from the submitted model")
	}
	if string(snapshots[1]) != string(want) {
		t.Fatal("retry did not restart from the pristine model copy")
	}
	if res.Report == nil || !res.Report.Passive {
		t.Fatalf("retried enforcement did not converge: %+v", res.Report)
	}
	drainOrFail(t, s)
}

// TestFaultCacheQuarantine: a cache file corrupted between save and load
// (torn write, bit rot) is quarantined by LoadCaches — renamed aside,
// counted in the metric, pole set starts cold — and the daemon serves on.
func TestFaultCacheQuarantine(t *testing.T) {
	dir := t.TempDir()
	models := library(t, 2, 1, 12)
	s, err := New(Options{Workers: 1, QueueDepth: 8, DefaultDeadline: time.Minute, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range models {
		ch, err := s.Submit(&Job{Kind: JobCheck, Model: m, Check: fastCheck})
		if err != nil {
			t.Fatal(err)
		}
		if res := <-ch; res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	drainOrFail(t, s)

	saved, err := filepath.Glob(filepath.Join(dir, "worker-*", "cache-*"+repro.SessionCacheExt))
	if err != nil || len(saved) != 2 {
		t.Fatalf("saved caches %v (%v), want 2", saved, err)
	}
	if err := CorruptCacheFile(saved[0]); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Options{Workers: 1, QueueDepth: 8, DefaultDeadline: time.Minute, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	quarantined, err := s2.LoadCaches()
	if err != nil {
		t.Fatalf("LoadCaches must not fail on corruption: %v", err)
	}
	if quarantined != 1 {
		t.Fatalf("quarantined %d, want 1", quarantined)
	}
	if _, err := os.Stat(saved[0] + repro.SessionCacheCorruptExt); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if _, err := os.Stat(saved[0]); !os.IsNotExist(err) {
		t.Fatalf("corrupt file still in place: %v", err)
	}
	s2.met.mu.Lock()
	qm := s2.met.quarantinedTotal
	s2.met.mu.Unlock()
	if qm != 1 {
		t.Fatalf("quarantined_caches_total %d, want 1", qm)
	}
	// Both models still serve: one warm, one cold.
	for i, m := range models {
		ch, err := s2.Submit(&Job{Kind: JobCheck, Model: m, Check: fastCheck})
		if err != nil {
			t.Fatal(err)
		}
		if res := <-ch; res.Err != nil {
			t.Fatalf("post-quarantine job %d: %v", i, res.Err)
		}
	}
	drainOrFail(t, s2)
}

// TestFaultChaosSweep is the acceptance chaos run: a 64-model sweep with
// panics injected on two workers mid-sweep plus transient failures and
// latency. Every accepted job still receives a Result (retried jobs
// succeed on another worker), Drain returns, goroutines settle, and a
// subsequent Submit is not spuriously rejected.
func TestFaultChaosSweep(t *testing.T) {
	base := runtime.NumGoroutine()
	s, err := New(Options{Workers: 4, QueueDepth: 128, DefaultDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	s.InjectFaults(new(FaultPlan).
		PanicOnWorker(1, 2, "chaos: worker 1 dies").
		PanicOnWorker(2, 3, "chaos: worker 2 dies").
		FailOn(5, Transient(errors.New("chaos: transient blip"))).
		FailOn(23, Transient(errors.New("chaos: another blip"))).
		DelayOn(11, 5*time.Millisecond).
		DelayOn(37, 5*time.Millisecond))

	models := library(t, 8, 8, 12)
	chans := make([]<-chan *Result, len(models))
	for i, m := range models {
		ch, err := s.Submit(&Job{Kind: JobCheck, Model: m, Check: fastCheck})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans[i] = ch
	}
	retried := 0
	for i, ch := range chans {
		select {
		case res := <-ch:
			if res.Err != nil {
				t.Fatalf("job %d lost to chaos: %v (attempts %d)", i, res.Err, res.Attempts)
			}
			if res.Attempts > 1 {
				retried++
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("job %d never delivered a result", i)
		}
	}
	if retried < 4 {
		t.Fatalf("only %d jobs retried; the plan injected 4 retryable faults", retried)
	}
	s.met.mu.Lock()
	panics, requeued := s.met.panicsTotal, s.met.requeuedTotal
	s.met.mu.Unlock()
	if panics != 2 {
		t.Fatalf("panics_total %d, want 2", panics)
	}
	if requeued < 2 {
		t.Fatalf("requeued_total %d, want >= 2", requeued)
	}

	// The admission counter is exact: a fresh submit sails through.
	if d := s.QueueDepth(); d != 0 {
		t.Fatalf("queue depth %d after full sweep, want 0", d)
	}
	ch, err := s.Submit(&Job{Kind: JobCheck, Model: models[0], Check: fastCheck})
	if err != nil {
		t.Fatalf("post-chaos submit rejected: %v", err)
	}
	if res := <-ch; res.Err != nil {
		t.Fatal(res.Err)
	}
	drainOrFail(t, s)
	settleGoroutines(t, base)
}
