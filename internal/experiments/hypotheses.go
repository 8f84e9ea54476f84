package experiments

// The engine claims of the extension experiments Ext-E..Ext-H, stated
// falsifiably and run under the classification rigor of
// internal/experiments/hypothesis — deterministic invariants on a single
// seed (failure = bug), statistical claims on ≥3 seeds with directional
// consistency and a >20% (or bounded) effect threshold on every seed. They
// are the judged, reproducible FINDINGS; Ext-E is the adaptive
// characterization claim of arXiv:2011.02789.

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"time"

	repro "repro"
	"repro/internal/core"
	"repro/internal/experiments/hypothesis"
	"repro/internal/passivity"
	"repro/internal/rational"
)

// Hypotheses returns the registry of promoted extension experiments.
func Hypotheses() (*hypothesis.Registry, error) {
	r := hypothesis.NewRegistry()
	for _, s := range []hypothesis.Spec{
		extEAdaptiveEconomy(),
		extEPaper45Agreement(),
		extFBatchBitwise(),
		extGGramianOracle(),
		extHCertifiedClosure(),
		extHCertifiedOverhead(),
	} {
		if err := r.Register(s); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// extEAdaptiveEconomy — Ext-E promoted: the adaptive characterizer reaches
// the fixed sweep's verdict on >20% fewer σ evaluations, on every seed.
func extEAdaptiveEconomy() hypothesis.Spec {
	return hypothesis.Spec{
		ID:      "ext-e-adaptive-economy",
		Title:   "Adaptive characterization beats the fixed sweep on sample economy",
		Claim:   "On violating synthetic models the multi-stage adaptive characterizer reaches the same passivity verdict as the 1200-point fixed sweep while spending >20% fewer σ(ω) evaluations, consistently across seeds.",
		Class:   hypothesis.Statistical,
		Subtype: hypothesis.Dominance,
		Primary: "sweep_samples/adaptive_samples",
		Run: func(seed int64) (hypothesis.Trial, error) {
			m, err := passivity.SyntheticModel(passivity.SyntheticOptions{
				Ports: 2, Poles: 40, Seed: seed, PeakGain: 1.1,
			})
			if err != nil {
				return hypothesis.Trial{}, err
			}
			sweep, err := passivity.Check(m, passivity.CheckOptions{Method: passivity.MethodSweep, SweepPoints: 1200})
			if err != nil {
				return hypothesis.Trial{}, err
			}
			adaptive, err := passivity.Check(m, passivity.CheckOptions{Method: passivity.MethodAdaptive})
			if err != nil {
				return hypothesis.Trial{}, err
			}
			if adaptive.Samples == 0 {
				return hypothesis.Trial{}, fmt.Errorf("adaptive characterizer reported zero samples")
			}
			return hypothesis.Trial{
				Primary: float64(sweep.Samples) / float64(adaptive.Samples),
				Pass:    sweep.Passive == adaptive.Passive,
				Metrics: map[string]float64{
					"sweep_samples":      float64(sweep.Samples),
					"adaptive_samples":   float64(adaptive.Samples),
					"sweep_max_sigma":    sweep.MaxSigma,
					"adaptive_max_sigma": adaptive.MaxSigma,
					"verdict_agreement":  b2f(sweep.Passive == adaptive.Passive),
				},
			}, nil
		},
	}
}

// extEPaper45Agreement — the Ext-E agreement claim (extEAgreement) on the
// paper's testcase: the sensitivity-weighted fit of the 45-port PDN
// (Quick profile).
func extEPaper45Agreement() hypothesis.Spec {
	return hypothesis.Spec{
		ID:      "ext-e-paper45-agreement",
		Title:   "Adaptive characterization agrees with the sweep on the paper's 45-port fit",
		Class:   hypothesis.Deterministic,
		Subtype: hypothesis.Invariant,
		Claim:   "On the sensitivity-weighted fit of the paper's 45-port PDN testcase, the adaptive characterizer reaches the 1200-point sweep's passivity verdict, and enforcement driven by the adaptive check ends passive under an independent sweep re-check.",
		Primary: "verdict_agreement",
		Run: func(int64) (hypothesis.Trial, error) {
			return extEAgreement(NewContext(Quick()))
		},
	}
}

// extEAgreement characterizes c's non-passive weighted fit by the
// 1200-point sweep and by the adaptive scheme, then enforces it with the
// adaptive characterizer driving the loop and re-checks the result with
// the independent sweep. It passes when the two verdicts agree and the
// enforced model is passive.
func extEAgreement(c *Context) (hypothesis.Trial, error) {
	m0, _, err := c.WeightedFit()
	if err != nil {
		return hypothesis.Trial{}, err
	}
	sweepOpts := repro.CheckOptions{Method: repro.CheckSweep, FreqMin: 500, FreqMax: 4e9, SweepPoints: 1200}
	adOpts := sweepOpts
	adOpts.Method = repro.CheckAdaptive
	sweep, err := repro.CheckPassivity(m0, sweepOpts)
	if err != nil {
		return hypothesis.Trial{}, fmt.Errorf("sweep characterization: %w", err)
	}
	adaptive, err := repro.CheckPassivity(m0, adOpts)
	if err != nil {
		return hypothesis.Trial{}, fmt.Errorf("adaptive characterization: %w", err)
	}
	enfOpts := c.enforceOptions(nil)
	enfOpts.Check = adOpts
	enforced := m0.Clone()
	enf, err := repro.EnforcePassivity(enforced, enfOpts)
	if err != nil {
		return hypothesis.Trial{}, fmt.Errorf("adaptive-driven enforcement: %w", err)
	}
	recheck, err := repro.CheckPassivity(enforced, sweepOpts)
	if err != nil {
		return hypothesis.Trial{}, err
	}
	agree := sweep.Passive == adaptive.Passive
	passive := enf.Passive && recheck.Passive
	return hypothesis.Trial{
		Primary: b2f(agree),
		Pass:    agree && passive && sweep.Samples > 0 && adaptive.Samples > 0,
		Metrics: map[string]float64{
			"sweep_samples":            float64(sweep.Samples),
			"adaptive_samples":         float64(adaptive.Samples),
			"sweep_max_sigma":          sweep.MaxSigma,
			"adaptive_max_sigma":       adaptive.MaxSigma,
			"verdict_agreement":        b2f(agree),
			"sweep_violation_bands":    float64(len(sweep.Violations)),
			"adaptive_violation_bands": float64(len(adaptive.Violations)),
			"enforce_iterations":       float64(enf.Iterations),
			"enforced_passive":         b2f(passive),
		},
	}, nil
}

// b2f encodes a boolean metric as 0/1.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// extFBatchBitwise — Ext-F promoted: sharded batch enforcement is bitwise
// identical to sequential per-model enforcement.
func extFBatchBitwise() hypothesis.Spec {
	return hypothesis.Spec{
		ID:      "ext-f-batch-bitwise",
		Title:   "Batch enforcement is bitwise identical to sequential",
		Class:   hypothesis.Deterministic,
		Subtype: hypothesis.Invariant,
		Claim:   "EnforcePassivityBatch produces residue matrices bitwise identical to sequential EnforcePassivity on the same library, for every model, in the same iteration count, with the whole library enforced passive.",
		Primary: "bitwise_mismatches",
		Run: func(seed int64) (hypothesis.Trial, error) {
			const libSize = 4
			models := func(i int) passivity.SyntheticOptions {
				return passivity.SyntheticOptions{Ports: 2, Poles: 24, Seed: seed*1000 + int64(i), PeakGain: 1.1}
			}
			opts := passivity.EnforceOptions{Check: passivity.CheckOptions{Method: passivity.MethodAdaptive}, ClampD: true}
			seq, err := library(libSize, models)
			if err != nil {
				return hypothesis.Trial{}, err
			}
			passive, seqIters := libSize, 0
			for i, m := range seq {
				rep, err := passivity.Enforce(m, opts)
				if err != nil {
					return hypothesis.Trial{}, fmt.Errorf("sequential model %d: %w", i, err)
				}
				if !rep.Passive {
					passive--
				}
				seqIters += rep.Iterations
			}
			bat, err := library(libSize, models)
			if err != nil {
				return hypothesis.Trial{}, err
			}
			brep := passivity.EnforceBatch(bat, passivity.BatchOptions{Enforce: opts, Workers: 4})
			batIters := 0
			for i, res := range brep.Results {
				if res.Err != nil {
					return hypothesis.Trial{}, fmt.Errorf("batch model %d: %w", i, res.Err)
				}
				batIters += res.Report.Iterations
			}
			mismatches := residueMismatches(bat, seq)
			return hypothesis.Trial{
				Primary: float64(mismatches),
				Pass:    mismatches == 0 && passive == libSize && brep.Stats.Passive == libSize && batIters == seqIters,
				Metrics: map[string]float64{
					"library_size":          libSize,
					"bitwise_mismatches":    float64(mismatches),
					"sequential_passive":    float64(passive),
					"batch_passive":         float64(brep.Stats.Passive),
					"sequential_iterations": float64(seqIters),
					"batch_iterations":      float64(batIters),
				},
			}, nil
		},
	}
}

// extGGramianOracle — Ext-G promoted: the closed-form cascade Gramian
// matches the dense Lyapunov oracle to near machine precision, enforcement
// with either cost lands on the same models, and weighted batch
// enforcement is bitwise identical to sequential.
func extGGramianOracle() hypothesis.Spec {
	return hypothesis.Spec{
		ID:      "ext-g-gramian-oracle",
		Title:   "Closed-form cascade Gramian matches the dense Lyapunov oracle",
		Class:   hypothesis.Deterministic,
		Subtype: hypothesis.Invariant,
		Claim:   "rational-model weighted Gramians from the closed-form cascade construction agree with the dense statespace Lyapunov oracle within 1e-10 relative Frobenius error across model orders; a violating library enforced with the closed-form cost and with the dense-oracle cost lands on models within 1e-6 of each other; and weighted batch enforcement is bitwise identical to sequential weighted enforcement.",
		Primary: "worst_rel_frobenius_err",
		Run: func(seed int64) (hypothesis.Trial, error) {
			rng := rand.New(rand.NewSource(seed))
			weight, err := rational.RandomScalarWeight(rng, 8)
			if err != nil {
				return hypothesis.Trial{}, err
			}
			worst := 0.0
			for _, np := range []int{100, 250} {
				poles := rational.RandomStablePoles(rng, np)
				model, err := rational.NewScalar(poles, make([]complex128, len(poles)), 0)
				if err != nil {
					return hypothesis.Trial{}, err
				}
				fast, err := core.WeightedGramian(model, weight)
				if err != nil {
					return hypothesis.Trial{}, err
				}
				dense, err := core.WeightedGramianDense(model, weight)
				if err != nil {
					return hypothesis.Trial{}, err
				}
				var num, den float64
				for i := 0; i < dense.Rows; i++ {
					for j := 0; j < dense.Cols; j++ {
						d := fast.At(i, j) - dense.At(i, j)
						num += d * d
						den += dense.At(i, j) * dense.At(i, j)
					}
				}
				worst = math.Max(worst, math.Sqrt(num/den))
			}
			dev, bitwise, err := gramianCostEquivalence()
			if err != nil {
				return hypothesis.Trial{}, err
			}
			return hypothesis.Trial{
				Primary: worst,
				Pass:    worst <= 1e-10 && dev <= 1e-6 && bitwise,
				Metrics: map[string]float64{
					"worst_rel_frobenius_err": worst,
					"enforce_max_abs_s_dev":   dev,
					"batch_bitwise_vs_closed": b2f(bitwise),
				},
			}, nil
		},
	}
}

// gramianCostEquivalence enforces one violating library three ways — with
// the closed-form weighted cost, with the dense-oracle cost, and through
// the weighted batch path — and returns the largest |ΔS| between the first
// two at probe frequencies and whether the batch residues equal the
// closed-cost ones bitwise.
func gramianCostEquivalence() (maxDev float64, bitwise bool, err error) {
	var libs [3][]*rational.Model // closed-cost, dense-cost, batch copies
	for k := range libs {
		if libs[k], err = library(4, func(i int) passivity.SyntheticOptions {
			return passivity.SyntheticOptions{Ports: 2, Poles: 24, Seed: int64(500 + i), PeakGain: 1.1}
		}); err != nil {
			return 0, false, err
		}
	}
	closedLib, denseLib, batchLib := libs[0], libs[1], libs[2]
	weight, err := rational.RandomScalarWeight(rand.New(rand.NewSource(78)), 8)
	if err != nil {
		return 0, false, err
	}
	base := passivity.EnforceOptions{Check: passivity.CheckOptions{Method: passivity.MethodAdaptive}}

	for i, m := range closedLib {
		if _, err := core.EnforceWeighted(m, weight, base); err != nil {
			return 0, false, fmt.Errorf("closed-cost enforcement of model %d: %w", i, err)
		}
	}
	for i, m := range denseLib {
		gram, err := core.WeightedGramianDense(m, weight)
		if err != nil {
			return 0, false, err
		}
		opts := base
		opts.CostGramian = gram
		if _, err := passivity.Enforce(m, opts); err != nil {
			return 0, false, fmt.Errorf("dense-cost enforcement of model %d: %w", i, err)
		}
	}
	for i := range closedLib {
		for _, w := range []float64{0.3, 2.1, 17, 140, 2500} {
			a, b := closedLib[i].Eval(w), denseLib[i].Eval(w)
			for e := range a.Data {
				maxDev = math.Max(maxDev, cmplx.Abs(a.Data[e]-b.Data[e]))
			}
		}
	}

	brep := passivity.EnforceBatch(batchLib, passivity.BatchOptions{Enforce: base, Weight: weight, Workers: 4})
	for i, res := range brep.Results {
		if res.Err != nil {
			return 0, false, fmt.Errorf("weighted batch model %d: %w", i, res.Err)
		}
	}
	return maxDev, residueMismatches(batchLib, closedLib) == 0, nil
}

// library builds n synthetic models, the ith from opts(i).
func library(n int, opts func(i int) passivity.SyntheticOptions) ([]*rational.Model, error) {
	lib := make([]*rational.Model, n)
	for i := range lib {
		m, err := passivity.SyntheticModel(opts(i))
		if err != nil {
			return nil, err
		}
		lib[i] = m
	}
	return lib, nil
}

// residueMismatches counts the residue matrices of got that are not
// bitwise equal to want's.
func residueMismatches(got, want []*rational.Model) int {
	n := 0
	for i := range got {
		for k := range got[i].Residues {
			if !got[i].Residues[k].Equalish(want[i].Residues[k], 0) {
				n++
			}
		}
	}
	return n
}

// extHRun enforces the Ext-H certification corpus — 100 random 10-pole
// violating models, every fourth carrying the narrow off-resonance
// "shoulder" band the stage-capped adaptive sampling steps over — with a
// weight, at the stage-capped adaptive operating point (the documented
// false-pass configuration), and counts the enforced models the dense
// Hamiltonian oracle still rejects.
func extHRun(certify bool) (rep *passivity.BatchReport, elapsed time.Duration, escapes int, err error) {
	models, err := library(100, func(i int) passivity.SyntheticOptions {
		if i%4 == 0 {
			return passivity.SyntheticOptions{Ports: 2, Poles: 10, Seed: int64(9000 + i), PeakGain: 0.4, NarrowBand: true}
		}
		return passivity.SyntheticOptions{Ports: 2, Poles: 10, Seed: int64(9000 + i), PeakGain: 0.45}
	})
	if err != nil {
		return nil, 0, 0, err
	}
	weight, err := rational.RandomScalarWeight(rand.New(rand.NewSource(1404)), 4)
	if err != nil {
		return nil, 0, 0, err
	}
	t0 := time.Now()
	rep = passivity.EnforceBatch(models, passivity.BatchOptions{
		Enforce: passivity.EnforceOptions{
			Check:   passivity.CheckOptions{Method: passivity.MethodAdaptive, AdaptiveMaxStages: 6},
			Certify: certify,
		},
		Weight:  weight,
		Workers: 1,
	})
	elapsed = time.Since(t0)
	for i, res := range rep.Results {
		if res.Err != nil {
			return nil, 0, 0, fmt.Errorf("model %d (certify=%v): %w", i, certify, res.Err)
		}
		oracle, err := passivity.Check(models[i], passivity.CheckOptions{Method: passivity.MethodHamiltonian})
		if err != nil {
			return nil, 0, 0, err
		}
		if !oracle.Passive {
			escapes++
		}
	}
	return rep, elapsed, escapes, nil
}

// extHCertifiedClosure — the terminal contour-counter claim on the Ext-H
// corpus: certified enforcement leaves zero unsettled intervals and zero
// oracle escapes. Before the counter stage the probe pipeline could leave
// Open intervals behind (best-effort verdicts); with it every certificate
// must finish the whole axis. An uncertified arm on the same corpus keeps
// the claim meaningful: the capped sampling check must let escapes
// through, and the certified arm must rescue at least as many
// convergences as escaped.
func extHCertifiedClosure() hypothesis.Spec {
	return hypothesis.Spec{
		ID:      "ext-h-certified-closure",
		Title:   "Certified enforcement settles every interval (Open == nil) with zero escapes",
		Class:   hypothesis.Deterministic,
		Subtype: hypothesis.Invariant,
		Claim:   "On the Ext-H 100-model weighted-enforcement corpus, every certificate returned by the counter-terminated pipeline is Certified with zero Open intervals, and the dense Hamiltonian oracle rejects none of the enforced models; without certification the oracle rejects some, and the certified run rescues at least as many convergences as escaped.",
		Primary: "open_intervals_plus_escapes",
		Run: func(int64) (hypothesis.Trial, error) {
			rep, elapsed, escapes, err := extHRun(true)
			if err != nil {
				return hypothesis.Trial{}, err
			}
			_, _, plainEscapes, err := extHRun(false)
			if err != nil {
				return hypothesis.Trial{}, err
			}
			openIntervals, uncertified, nodes := 0, 0, 0
			for _, res := range rep.Results {
				cert := res.Report.Certificate
				if cert == nil || !cert.Certified {
					uncertified++
				}
				if cert != nil {
					openIntervals += len(cert.Open)
					for _, st := range cert.Stages {
						nodes += st.Nodes
					}
				}
			}
			return hypothesis.Trial{
				Primary: float64(openIntervals + escapes),
				Pass: openIntervals == 0 && escapes == 0 && uncertified == 0 &&
					plainEscapes > 0 && rep.Stats.CertifiedRescues >= plainEscapes,
				Metrics: map[string]float64{
					"library_size":               float64(len(rep.Results)),
					"open_intervals":             float64(openIntervals),
					"uncertified":                float64(uncertified),
					"oracle_escapes":             float64(escapes),
					"uncertified_oracle_escapes": float64(plainEscapes),
					"counter_nodes":              float64(nodes),
					"certified_rescues":          float64(rep.Stats.CertifiedRescues),
					"elapsed_ms":                 float64(elapsed.Milliseconds()),
				},
			}, nil
		},
	}
}

// extHCertifiedOverhead — the certification-cost claim on the BENCH_4
// steady-state workload: enforcement of already-passive models (the
// library-service steady state) with the counter-terminated full-axis
// certificate costs at most 25% more wall-clock than without it. On the
// violating corpus certify=true also re-enforces rescued bands — extra
// enforcement work, not certificate cost — so the bound is measured where
// BENCH_4.json measured it: models whose enforcement converges immediately
// and whose entire added cost is the certificate.
func extHCertifiedOverhead() hypothesis.Spec {
	return hypothesis.Spec{
		ID:        "ext-h-certified-overhead",
		Title:     "Certification overhead stays within 25% on the steady-state path",
		Class:     hypothesis.Statistical,
		Subtype:   hypothesis.Bounded,
		Claim:     "Enforcing a library of truly passive models with full-axis certification (counter-terminated pipeline) costs at most 25% more wall-clock than the same run without certification, on every seed.",
		Primary:   "certification_overhead",
		Threshold: 0.25,
		Run: func(seed int64) (hypothesis.Trial, error) {
			// BENCH_4 sizing: nP ≥ 500 keeps the pipeline on the large-model
			// branch, and the generous passivity headroom (low peak gain)
			// keeps every seed on the eigensolve-free tail-bound + Lipschitz
			// path — the steady state the ≤25% bound is about.
			const libSize = 8
			run := func(certify bool) (time.Duration, int, error) {
				lib, err := library(libSize, func(i int) passivity.SyntheticOptions {
					return passivity.SyntheticOptions{
						Ports: 2, Poles: 250 + 125*(i%3), Seed: seed*100 + int64(i),
						PeakGain: 0.04, DSigma: 0.6,
					}
				})
				if err != nil {
					return 0, 0, err
				}
				opts := passivity.EnforceOptions{
					Check:   passivity.CheckOptions{Method: passivity.MethodAdaptive},
					Certify: certify,
				}
				t0 := time.Now()
				certified := 0
				for i, m := range lib {
					rep, err := passivity.Enforce(m, opts)
					if err != nil {
						return 0, 0, fmt.Errorf("model %d: %w", i, err)
					}
					if !rep.Passive {
						return 0, 0, fmt.Errorf("model %d unexpectedly non-passive", i)
					}
					if rep.Certificate != nil && rep.Certificate.Certified {
						certified++
					}
				}
				return time.Since(t0), certified, nil
			}
			plainElapsed, _, err := run(false)
			if err != nil {
				return hypothesis.Trial{}, err
			}
			certElapsed, certified, err := run(true)
			if err != nil {
				return hypothesis.Trial{}, err
			}
			overhead := certElapsed.Seconds()/math.Max(plainElapsed.Seconds(), 1e-9) - 1
			return hypothesis.Trial{
				Primary: overhead,
				Pass:    overhead <= 0.25,
				Metrics: map[string]float64{
					"library_size":     libSize,
					"certified_models": float64(certified),
					"uncertified_ms":   float64(plainElapsed.Milliseconds()),
					"certified_ms":     float64(certElapsed.Milliseconds()),
				},
			}, nil
		},
	}
}
