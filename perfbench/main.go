// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the library or a coordinator with two agent hosts —
// all in this process, the servers behind loopback HTTP — and prints one
// JSON result line:
//
//	perfbench --workload paper45-flow --seed 1 --seconds 15 --trace 0
//
// Workloads (closed loops; see NOTES.md for why each was chosen):
//
//	paper45-flow         Touchstone → weighted fit → certified weighted
//	                     enforcement → JSON, 2 callers, 45-port structures
//	cluster-check-churn  adaptive /v1/check through a coordinator with two
//	                     cache-starved agent hosts, 2 callers
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, each measured by timing the
// calls this program makes into the library's public API (nothing inside
// the library is instrumented). Progress and diagnostics go to stderr; the
// last line of stdout is the result.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// setupRounds is how many times a run builds its system from scratch;
// setup_s is the median, and the last build serves the timed phase.
const setupRounds = 3

type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a workload's figures. End-to-end metrics go into e2e,
// per-layer ones into layer; main prints the set --trace selects.
type report struct {
	attempted, failed int
	// checked is set once every output check of the run has executed.
	checked bool
	e2e     map[string]metric
	layer   map[string]metric
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}}
}

func (r *report) setE2E(name, unit string, v float64)   { r.e2e[name] = metric{v, unit} }
func (r *report) setLayer(name, unit string, v float64) { r.layer[name] = metric{v, unit} }

// fail records one failed job with its reason on stderr.
func (r *report) fail(format string, args ...any) {
	r.failed++
	logf("FAILED: "+format, args...)
}

// perLayer lists every per-layer metric (BENCHMARK.json's per_layer).
var perLayer = []struct{ name, unit string }{
	{"touchstone.parse_ms", "ms"},
	{"weight.build_ms", "ms"},
	{"vecfit.fit_ms", "ms"},
	{"vecfit.iterations", "count"},
	{"check.ms", "ms"},
	{"check.samples", "count"},
	{"enforce.ms", "ms"},
	{"enforce.iterations", "count"},
	{"enforce.sigma_samples", "count"},
	{"certify.ms", "ms"},
	{"certify.eigen_dim", "count"},
	{"certify.samples", "count"},
	{"certify.nodes", "count"},
	{"certify.declined", "count"},
	{"encode.ms", "ms"},
	{"encode.bytes", "bytes"},
	{"zpdn_rel_err_max", "ratio"},
	{"wire.req_bytes", "bytes"},
	{"wire.resp_bytes", "bytes"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.service_ms", "ms"},
	{"cluster.overhead_ms", "ms"},
	{"cluster.warm_lease_ratio", "ratio"},
	{"cluster.steals_per_job", "1/job"},
	{"cluster.ship_bytes_per_job", "bytes/job"},
	{"cluster.requeues", "count"},
	{"cluster.stalled_jobs", "count"},
	{"session.blob_bytes", "bytes"},
	{"session.export_ms", "ms"},
	{"session.blob_fingerprint_ms", "ms"},
	{"session.import_ms", "ms"},
	{"check.cold_ms", "ms"},
	{"check.warm_ms", "ms"},
	{"host.mem_probe_ms", "ms"},
	{"host.cpu_probe_ms", "ms"},
	{"trace.latency_p50_ms", "ms"},
	{"trace.jobs_per_s", "1/s"},
}

type workloadFunc func(cfg config, rep *report) error

var workloads = map[string]workloadFunc{
	"paper45-flow":        runPaper45,
	"cluster-check-churn": runClusterChurn,
}

func main() {
	name := flag.String("workload", "", "workload name: paper45-flow or cluster-check-churn")
	seed := flag.Int64("seed", 1, "workload seed (inputs are a pure function of it)")
	seconds := flag.Int("seconds", 15, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <paper45-flow|cluster-check-churn> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}

	// Host reference probes bracket the run: they execute no repository
	// code, so a shift in them is the host, not the program.
	mem0, cpu0 := hostProbes()
	rep := newReport()
	if err := run(cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	rep.setE2E("max_rss_mb", "MiB", maxRSSMiB())
	mem1, cpu1 := hostProbes()
	logf("host probes: mem %.1f → %.1f ms, cpu %.1f → %.1f ms", mem0, mem1, cpu0, cpu1)
	rep.setLayer("host.mem_probe_ms", "ms", (mem0+mem1)/2)
	rep.setLayer("host.cpu_probe_ms", "ms", (cpu0+cpu1)/2)

	out := result{
		Correct:   rep.checked && rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.e2e,
	}
	if cfg.trace {
		// Every traced run reports the whole per-layer set; a layer the
		// workload never calls did no work in it and reads 0.
		for _, m := range perLayer {
			if _, ok := rep.layer[m.name]; !ok {
				rep.setLayer(m.name, m.unit, 0)
			}
		}
		out.Metrics = rep.layer
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// phases describes one workload's system to measure. build starts it;
// warm(sys, i) runs warm-up job i of nWarm; job(sys, seq) runs timed job
// seq; onStart, when set, runs once as the timed phase begins.
type phases[T any] struct {
	callers  int
	build    func() (T, error)
	teardown func(T)
	nWarm    int
	warm     func(sys T, i int) error
	job      func(sys T, seq int)
	onStart  func(sys T)
}

// measure builds the system setupRounds times. Each round is timed from
// the start of build until the first caller has run out of warm-up jobs
// — the moment the first timed job goes out — and setup_s is the median.
// Earlier rounds are torn down once their warm-up drains; in the last
// round the callers go straight on into the timed phase, which lasts d.
// The caller tears down the returned system.
func measure[T any](p phases[T], d time.Duration) (sys T, st loopStats, setupS float64, err error) {
	// Hand the garbage of input and reference building back first, so
	// the system under test starts from a clean heap.
	debug.FreeOSMemory()
	times := make([]float64, 0, setupRounds)
	for round := 1; round <= setupRounds; round++ {
		t0 := time.Now()
		sys, err = p.build()
		if err != nil {
			return sys, st, 0, fmt.Errorf("setup round %d: %w", round, err)
		}
		timed := d
		if round < setupRounds {
			timed = 0
		}
		var warmEnd time.Time
		st, warmEnd, err = closedLoop(p.callers, p.nWarm, func(i int) error { return p.warm(sys, i) },
			timed, func(seq int) { p.job(sys, seq) }, func() {
				if p.onStart != nil && timed > 0 {
					p.onStart(sys)
				}
			})
		if err != nil {
			p.teardown(sys)
			return sys, st, 0, fmt.Errorf("setup round %d warm-up: %w", round, err)
		}
		times = append(times, warmEnd.Sub(t0).Seconds())
		if round < setupRounds {
			p.teardown(sys)
			debug.FreeOSMemory()
		}
	}
	logf("setup rounds (s): %.3f", times)
	return sys, st, median(times), nil
}

// loopStats is what a closed-loop timed phase measured.
type loopStats struct {
	latMS   []float64     // per completed job, in completion order per caller
	elapsed time.Duration // timed-phase start to the last job's completion
	cpu     time.Duration // process user+sys CPU over the timed phase
	jobs    int           // completed jobs (failed ones included)
}

// closedLoop runs callers goroutines. Together they first run warm-up
// jobs 0..nWarm-1, handed out in order; the first caller to find none
// left starts the timed phase (calling onStart), and every caller then
// issues job(seq) back to back until d has passed since that start, seq
// numbers handed out in order across callers. A caller still finishing
// its last warm-up job joins late, so the stream never pauses. Every
// issued timed job counts, failed or not. It returns once every caller
// is done, with the timed phase's start.
func closedLoop(callers, nWarm int, warm func(i int) error, d time.Duration, job func(seq int), onStart func()) (loopStats, time.Time, error) {
	var nextWarm, next atomic.Int64
	var (
		once  sync.Once
		start time.Time
		cpu0  time.Duration
	)
	lats := make([][]float64, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(nextWarm.Add(1) - 1)
				if i >= nWarm {
					break
				}
				if errs[c] = warm(i); errs[c] != nil {
					return
				}
			}
			once.Do(func() {
				onStart()
				start, cpu0 = time.Now(), cpuTime()
			})
			for time.Since(start) < d {
				seq := int(next.Add(1) - 1)
				t := time.Now()
				job(seq)
				lats[c] = append(lats[c], float64(time.Since(t))/float64(time.Millisecond))
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return loopStats{}, start, err
	}
	st := loopStats{elapsed: time.Since(start), cpu: cpuTime() - cpu0}
	for _, l := range lats {
		st.latMS = append(st.latMS, l...)
	}
	st.jobs = len(st.latMS)
	return st, start, nil
}

// setLoopMetrics records the end-to-end metrics a timed phase yields.
func (r *report) setLoopMetrics(st loopStats) {
	r.setE2E("jobs_per_s", "1/s", float64(st.jobs)/st.elapsed.Seconds())
	r.setE2E("latency_p50_ms", "ms", median(st.latMS))
	r.setE2E("latency_p90_ms", "ms", tailLatency(st.latMS))
	r.setE2E("cpu_ms_per_job", "ms", float64(st.cpu)/float64(time.Millisecond)/float64(st.jobs))
	// The traced run's own end-to-end view; set against the untraced
	// run's figures it gives the tracing overhead.
	r.setLayer("trace.latency_p50_ms", "ms", median(st.latMS))
	r.setLayer("trace.jobs_per_s", "1/s", float64(st.jobs)/st.elapsed.Seconds())
	logf("latency deciles (ms): %.1f", []float64{percentile(st.latMS, 0.1), percentile(st.latMS, 0.2), percentile(st.latMS, 0.3),
		percentile(st.latMS, 0.4), percentile(st.latMS, 0.5), percentile(st.latMS, 0.6), percentile(st.latMS, 0.7), percentile(st.latMS, 0.8), percentile(st.latMS, 0.9)})
	logf("timed phase: %d jobs in %.2fs, p50 %.2f ms, p90 %.2f ms, cpu/job %.2f ms",
		st.jobs, st.elapsed.Seconds(), median(st.latMS), percentile(st.latMS, 0.9),
		float64(st.cpu)/float64(time.Millisecond)/float64(st.jobs))
}

// tailLatency is the nearest-rank 90th percentile when at least ten
// samples lie beyond it (100 jobs or more). A run with fewer jobs has no
// measurable p90 and reports its median instead.
func tailLatency(latMS []float64) float64 {
	if len(latMS) < 100 {
		return median(latMS)
	}
	return percentile(latMS, 0.9)
}

// percentile returns the nearest-rank q-quantile of xs (0 when empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the midpoint median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the process's peak resident set size (ru_maxrss is KiB on
// Linux).
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hostProbes times a memory-streaming pass and a cache-resident compute
// pass built from the standard library alone.
func hostProbes() (memMS, cpuMS float64) {
	memMS = memProbe()
	cpuMS = cpuProbe()
	debug.FreeOSMemory()
	return memMS, cpuMS
}

// memProbe copies a 16 MiB buffer (well beyond any last-level cache) into
// another 16 times, so its time tracks the memory bandwidth the host
// leaves this process.
func memProbe() float64 {
	const words = 2 << 20 // 16 MiB of uint64
	src := make([]uint64, words)
	dst := make([]uint64, words)
	for i := range src {
		src[i] = uint64(i)
	}
	start := time.Now()
	for pass := 0; pass < 16; pass++ {
		copy(dst, src)
		src, dst = dst, src
	}
	ms := msSince(start)
	if src[words-1] != words-1 {
		panic("perfbench: memory probe corrupted its buffer")
	}
	return ms
}

// cpuProbe chains SHA-256 over a 256 KiB buffer 256 times — 64 MiB of
// hashing that stays in cache, so its time tracks the CPU the host gives.
func cpuProbe() float64 {
	buf := make([]byte, 256<<10)
	for i := range buf {
		buf[i] = byte(i)
	}
	start := time.Now()
	var sum [sha256.Size]byte
	for i := 0; i < 256; i++ {
		h := sha256.New()
		h.Write(sum[:])
		h.Write(buf)
		h.Sum(sum[:0])
	}
	ms := msSince(start)
	if sum == ([sha256.Size]byte{}) {
		panic("perfbench: compute probe produced a zero digest")
	}
	return ms
}
