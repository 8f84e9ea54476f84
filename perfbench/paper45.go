package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/cmplx"
	"sync"
	"time"

	repro "repro"
	"repro/internal/synthpdn"
)

// paper45Structures is how many seeded 45-port structures a run cycles
// through (Config.Seed = seed+i).
const paper45Structures = 4

// paper45Input is one generated structure: its Touchstone bytes (all the
// flow ever reads of the data) and its nominal termination network.
type paper45Input struct {
	touchstone []byte
	ports      int
	load       *repro.Load
}

// flowOutput is the JSON a flow job emits: the final model plus the
// reports of every stage.
type flowOutput struct {
	Model       *repro.Macromodel      `json:"model"`
	Fit         *repro.FitReport       `json:"fit"`
	Before      *repro.PassivityReport `json:"before"`
	Enforcement *repro.EnforceReport   `json:"enforcement,omitempty"`
}

// flowJob is one completed flow job, kept for the output checks.
type flowJob struct {
	structure int
	traced    bool // run through runFlowTraced
	data      *repro.SData
	out       flowOutput
	encoded   []byte
	err       error
}

// genStructure synthesizes the seeded 45-port structure's scattering
// data over the paper's sweep (101 log points from 1 kHz to 2 GHz plus
// DC) and renders it as Touchstone text.
func genStructure(cfg synthpdn.Config) (paper45Input, error) {
	p, err := synthpdn.Build(cfg)
	if err != nil {
		return paper45Input{}, err
	}
	freqs := repro.LogFreqGrid(1e3, 2e9, 101, true)
	s, err := p.Circuit.SweepS(freqs, 50)
	if err != nil {
		return paper45Input{}, err
	}
	var buf bytes.Buffer
	if err := repro.WriteTouchstoneTo(&buf, &repro.SData{Freq: freqs, S: s, R0: 50}); err != nil {
		return paper45Input{}, err
	}
	return paper45Input{touchstone: buf.Bytes(), ports: p.Ports(), load: p.NominalLoad()}, nil
}

// runFlow is one paper45-flow job as the pdnflow command runs it: parse
// the Touchstone bytes, run Session.Extract with library defaults in a
// fresh certifying Session, and encode the result.
func runFlow(in paper45Input) flowJob {
	data, err := repro.ReadTouchstoneFrom(bytes.NewReader(in.touchstone), in.ports)
	if err != nil {
		return flowJob{err: fmt.Errorf("parse: %w", err)}
	}
	res, err := repro.NewSession(repro.WithCertify(true)).Extract(context.Background(), data, in.load, repro.ExtractOptions{})
	if err != nil {
		return flowJob{err: fmt.Errorf("extract: %w", err)}
	}
	j := flowJob{data: data, out: flowOutput{Model: res.Model, Fit: res.Fit, Before: res.Before, Enforcement: res.Enforcement}}
	j.encoded, j.err = json.Marshal(j.out)
	return j
}

// runFlowTraced is runFlow broken into the public steps Session.Extract
// takes — ReadTouchstoneFrom, BuildWeight, Session.Fit, Session.Check,
// Session.Enforce — with the options Extract uses, each step timed from
// here. A progress sink charges the gaps closed by certificate-stage
// events to the certifier and counts the σ evaluations of enforcement.
// The step figures land in steps, keyed by per-layer metric name.
func runFlowTraced(in paper45Input, steps map[string]float64) flowJob {
	ctx := context.Background()
	t := time.Now()
	data, err := repro.ReadTouchstoneFrom(bytes.NewReader(in.touchstone), in.ports)
	if err != nil {
		return flowJob{err: fmt.Errorf("parse: %w", err)}
	}
	steps["touchstone.parse_ms"] = msSince(t)

	const weightOrder, numPoles = 8, 12 // ExtractOptions defaults
	t = time.Now()
	w, xi, err := repro.BuildWeight(data, in.load, weightOrder)
	if err != nil {
		return flowJob{err: fmt.Errorf("weight: %w", err)}
	}
	steps["weight.build_ms"] = msSince(t)

	var (
		mark      time.Time
		certMS    float64
		enforcing bool
		samples   int
	)
	sess := repro.NewSession(repro.WithCertify(true), repro.WithProgress(func(ev repro.ProgressEvent) {
		now := time.Now()
		if ev.Kind == repro.ProgressCertificateStage {
			certMS += float64(now.Sub(mark)) / float64(time.Millisecond)
		} else if enforcing {
			samples += ev.Samples
		}
		mark = now
	}))

	t = time.Now()
	model, fitRep, err := sess.Fit(ctx, data, repro.FitOptions{NumPoles: numPoles, Weights: xi, ConstrainD: 0.999})
	if err != nil {
		return flowJob{err: fmt.Errorf("fit: %w", err)}
	}
	steps["vecfit.fit_ms"] = msSince(t)
	steps["vecfit.iterations"] = float64(fitRep.Iterations)
	out := flowOutput{Model: model, Fit: fitRep}

	t = time.Now()
	mark = t
	before, err := sess.Check(ctx, model, repro.CheckOptions{})
	if err != nil {
		return flowJob{err: fmt.Errorf("check: %w", err)}
	}
	steps["check.ms"] = msSince(t)
	steps["check.samples"] = float64(before.Samples)
	out.Before = before
	cert := before.Certificate

	enforceMS, iters := 0.0, 0
	if !before.Passive {
		t = time.Now()
		mark = t
		enforcing = true
		enf, err := sess.Enforce(ctx, model, repro.EnforceOptions{ClampD: true, Weight: w})
		enforcing = false
		if err != nil {
			return flowJob{err: fmt.Errorf("enforce: %w", err)}
		}
		enforceMS, iters = msSince(t), enf.Iterations
		out.Enforcement = enf
		cert = enf.Certificate
	}
	steps["enforce.ms"] = enforceMS
	steps["enforce.iterations"] = float64(iters)
	steps["enforce.sigma_samples"] = float64(samples)
	steps["certify.ms"] = certMS
	dim, cs, nodes, declined := 0, 0, 0, 0
	if cert != nil {
		for _, st := range cert.Stages {
			dim = max(dim, st.EigenDim)
			cs += st.Samples
			nodes += st.Nodes
			declined += st.Declined
		}
	}
	steps["certify.eigen_dim"] = float64(dim)
	steps["certify.samples"] = float64(cs)
	steps["certify.nodes"] = float64(nodes)
	steps["certify.declined"] = float64(declined)

	t = time.Now()
	j := flowJob{data: data, out: out}
	j.encoded, j.err = json.Marshal(out)
	steps["encode.ms"] = msSince(t)
	steps["encode.bytes"] = float64(len(j.encoded))
	return j
}

func runPaper45(cfg config, rep *report) error {
	var err error
	inputs := make([]paper45Input, paper45Structures)
	for i := range inputs {
		c := synthpdn.Paper45()
		c.Seed = cfg.seed + int64(i)
		if inputs[i], err = genStructure(c); err != nil {
			return fmt.Errorf("generating structure %d: %w", c.Seed, err)
		}
	}

	// The flow has no server to start; its set-up is a warm-up sweep of
	// the same flow over four 8-port small-preset structures, so lazy
	// runtime and allocator growth are paid before the first timed job.
	// The warm-up structures are fixed (preset seed onwards), so set-up
	// does the same work whatever the workload seed.
	warm := make([]paper45Input, 4)
	for i := range warm {
		c := synthpdn.Small()
		c.Seed += int64(i)
		if warm[i], err = genStructure(c); err != nil {
			return fmt.Errorf("generating warm-up structure %d: %w", c.Seed, err)
		}
	}
	var (
		mu    sync.Mutex
		jobs  []flowJob
		steps []map[string]float64
	)
	_, st, setupS, err := measure(phases[struct{}]{
		callers:  2,
		build:    func() (struct{}, error) { return struct{}{}, nil },
		teardown: func(struct{}) {},
		nWarm:    len(warm),
		warm:     func(_ struct{}, i int) error { return runFlow(warm[i]).err },
		job: func(_ struct{}, seq int) {
			// Traced runs pair every decomposed job with a Session.Extract
			// job on the same structure, run alongside it, so the
			// decomposition is checked against Extract byte for byte.
			i, traced := seq%len(inputs), false
			if cfg.trace {
				i, traced = (seq/2)%len(inputs), seq%2 == 0
			}
			var j flowJob
			js := map[string]float64{}
			if traced {
				j = runFlowTraced(inputs[i], js)
			} else {
				j = runFlow(inputs[i])
			}
			j.structure, j.traced = i, traced
			mu.Lock()
			jobs = append(jobs, j)
			if traced {
				steps = append(steps, js)
			}
			mu.Unlock()
		},
	}, cfg.seconds)
	if err != nil {
		return err
	}
	rep.setE2E("setup_s", "s", setupS)
	rep.setLoopMetrics(st)
	rep.attempted = len(jobs)

	// Output checks, outside the timed phase. Every job of a structure
	// must produce the same output JSON as its first job.
	first := map[int]flowJob{}
	compared := false
	worst := 0.0
	for n, j := range jobs {
		if j.err != nil {
			rep.fail("job %d (structure %d): %v", n, j.structure, j.err)
			continue
		}
		if err := certifiedPassive(j.out); err != nil {
			rep.fail("job %d (structure %d): %v", n, j.structure, err)
			continue
		}
		if ref, ok := first[j.structure]; !ok {
			first[j.structure] = j
		} else if !bytes.Equal(ref.encoded, j.encoded) {
			rep.fail("job %d: structure %d output JSON differs from its first job's", n, j.structure)
			continue
		} else if ref.traced != j.traced {
			compared = true
		}
		e, err := zpdnRelErr(j.out.Model, j.data, inputs[j.structure].load)
		if err != nil {
			rep.fail("job %d: Z_PDN: %v", n, err)
			continue
		}
		worst = max(worst, e)
	}
	logf("zpdn_rel_err_max %.4g over %d jobs", worst, len(jobs))
	rep.setLayer("zpdn_rel_err_max", "ratio", worst)

	if cfg.trace {
		if !compared {
			rep.fail("no traced job was compared with a Session.Extract job")
		}
		for _, m := range perLayer {
			var xs []float64
			for _, js := range steps {
				if v, ok := js[m.name]; ok {
					xs = append(xs, v)
				}
			}
			if len(xs) > 0 {
				rep.setLayer(m.name, m.unit, median(xs))
			}
		}
	}
	rep.checked = true
	return nil
}

// certifiedPassive accepts a flow result whose final model carries a
// passing certificate, or whose fitted model was already passive.
func certifiedPassive(out flowOutput) error {
	if out.Enforcement == nil {
		if !out.Before.Passive {
			return fmt.Errorf("fitted model non-passive and not enforced")
		}
		return nil
	}
	e := out.Enforcement
	if !e.Passive {
		return fmt.Errorf("enforcement did not reach passivity (σmax %.6g)", e.Final.MaxSigma)
	}
	if e.Certificate == nil || !e.Certificate.Certified {
		return fmt.Errorf("enforced model is not certified passive")
	}
	return nil
}

// zpdnRelErr is the worst relative error of the model's loaded PDN
// impedance against the data's over the data's frequency grid.
func zpdnRelErr(m *repro.Macromodel, data *repro.SData, load *repro.Load) (float64, error) {
	zd, err := repro.TargetImpedance(data, load)
	if err != nil {
		return 0, err
	}
	zm, err := repro.TargetImpedanceModel(m, data.Freq, load)
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for k := range zd {
		worst = max(worst, cmplx.Abs(zm[k]-zd[k])/cmplx.Abs(zd[k]))
	}
	return worst, nil
}
