package repro_test

// Benchmark harness: one benchmark per figure of the paper's evaluation
// (Figs. 1–6 — the paper has no tables), plus ablation benches for the
// design choices called out in DESIGN.md. Each figure bench regenerates the
// corresponding result on the 45-port synthetic testcase with the Quick
// profile (coarser frequency grid, same structure) so a full -bench=. run
// stays in the minutes range; cmd/experiments reproduces the figures at
// full resolution.

import (
	"fmt"
	"testing"

	repro "repro"
	"repro/internal/experiments"
)

// benchCtx shares the expensive artifacts across benchmark iterations, as
// the figures share them in the flow.
var benchCtx = experiments.NewContext(experiments.Quick())

func BenchmarkFig1StandardFit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchCtx.Fig1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2TargetImpedance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchCtx.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		std := res.Metrics["standard_worst_rel_err_below_10MHz"]
		w := res.Metrics["weighted_worst_rel_err_below_10MHz"]
		if w > std {
			b.Fatalf("weighted fit should beat standard at LF: %v vs %v", w, std)
		}
	}
}

func BenchmarkFig3SensitivityFit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchCtx.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		if res.Metrics["xi_dynamic_range_db"] < 20 {
			b.Fatalf("sensitivity should span decades, got %.1f dB", res.Metrics["xi_dynamic_range_db"])
		}
	}
}

func BenchmarkFig4PassivityCheck(b *testing.B) {
	m, _, err := benchCtx.WeightedFit()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.CheckPassivity(m, repro.CheckOptions{
			ForceSweep: true, FreqMin: 500, FreqMax: 4e9, SweepPoints: 1200,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4WeightedEnforcement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchCtx.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		if res.Metrics["max_sigma_after"] > 1+1e-6 {
			b.Fatalf("enforcement left σmax=%v", res.Metrics["max_sigma_after"])
		}
	}
}

func BenchmarkFig5StandardVsWeighted(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchCtx.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		ratio := res.Metrics["standard_over_weighted_error_ratio"]
		if ratio < 2 {
			b.Fatalf("weighted enforcement should clearly beat standard; ratio %.2f", ratio)
		}
	}
}

func BenchmarkFig6FinalModelEval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchCtx.Fig6(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablations -----------------------------------------------------------

// BenchmarkAblationWeightOrder compares weight model orders: the cost of
// building the weighted Gramian and running one weighted enforcement with
// n_w ∈ {2, 8}. Low-order weights are cheaper but resolve the sensitivity
// shape worse (Fig. 3 of cmd/experiments plots the sensitivity shape).
func BenchmarkAblationWeightOrder2(b *testing.B) { ablationWeightOrder(b, 2) }

// BenchmarkAblationWeightOrder8 is the paper's n_w = 8 configuration.
func BenchmarkAblationWeightOrder8(b *testing.B) { ablationWeightOrder(b, 8) }

func ablationWeightOrder(b *testing.B, order int) {
	syn, err := benchCtx.Dataset()
	if err != nil {
		b.Fatal(err)
	}
	m0, _, err := benchCtx.WeightedFit()
	if err != nil {
		b.Fatal(err)
	}
	w, _, err := repro.BuildWeight(syn.Data, syn.Load, order)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := m0.Clone()
		rep, err := repro.EnforcePassivity(m, repro.EnforceOptions{
			Check:  repro.CheckOptions{ForceSweep: true, FreqMin: 500, FreqMax: 4e9, SweepPoints: 1200},
			Weight: w,
			ClampD: true,
			Margin: 2e-5,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Passive {
			b.Fatalf("n_w=%d enforcement failed", order)
		}
	}
}

// BenchmarkAblationHamiltonianVsSweep compares the two passivity checks on
// a model small enough for both (8-port synthetic PDN).
func BenchmarkAblationHamiltonianVsSweep(b *testing.B) {
	freqs := repro.LogFreqGrid(1e3, 2e9, 80, true)
	syn, err := repro.GeneratePDN(repro.PDNSmall, freqs, 50)
	if err != nil {
		b.Fatal(err)
	}
	m, _, err := repro.Fit(syn.Data, repro.FitOptions{NumPoles: 8, Iterations: 5, ConstrainD: 0.999})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("hamiltonian", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := repro.CheckPassivity(m, repro.CheckOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := repro.CheckPassivity(m, repro.CheckOptions{
				ForceSweep: true, FreqMin: 500, FreqMax: 4e9, SweepPoints: 1200,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSensitivityClosedForm measures the per-sweep cost of the
// analytic Ξ computation on the 45-port data (the paper's "negligible
// overhead" claim).
func BenchmarkSensitivityClosedForm(b *testing.B) {
	syn, err := benchCtx.Dataset()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.Sensitivity(syn.Data, syn.Load); err != nil {
			b.Fatal(err)
		}
	}
}

// --- extension experiments ------------------------------------------------

// BenchmarkExtARepresentationIndependence reruns the full weighted flow
// from renormalized (5 Ω) and admittance-derived (20 Ω) data and checks all
// paths agree with the native one (paper §V).
func BenchmarkExtARepresentationIndependence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchCtx.ExtA()
		if err != nil {
			b.Fatal(err)
		}
		if res.Metrics["worst_path_over_best"] > 50 {
			b.Fatalf("representation paths diverge: ×%v", res.Metrics["worst_path_over_best"])
		}
	}
}

// BenchmarkExtBTransientVerification co-simulates both enforced models with
// their termination network at the worst low-frequency tone: the transient
// must reproduce each model's frequency response, stay passive in energy,
// and the weighted model must be the more accurate one against nominal.
func BenchmarkExtBTransientVerification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchCtx.ExtB()
		if err != nil {
			b.Fatal(err)
		}
		if res.Metrics["td_fd_consistency_weighted"] > 0.05 {
			b.Fatalf("transient disagrees with frequency domain: %v", res.Metrics["td_fd_consistency_weighted"])
		}
		if res.Metrics["min_energy_weighted_joule"] < -1e-9 {
			b.Fatalf("passive model generated energy: %v", res.Metrics["min_energy_weighted_joule"])
		}
		if res.Metrics["standard_over_weighted"] < 1 {
			b.Fatalf("weighted model should beat standard in transient droop, ratio %v", res.Metrics["standard_over_weighted"])
		}
	}
}

// BenchmarkExtCMORBaseline runs the classical balanced-truncation baseline
// (overfit → reduce → enforce) against direct VF at equal realization size.
func BenchmarkExtCMORBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchCtx.ExtC()
		if err != nil {
			b.Fatal(err)
		}
		if res.Metrics["bt_retained_order"] <= 0 {
			b.Fatal("reduction retained nothing")
		}
	}
}

// BenchmarkExtDEnforcementAblation compares weighted QP, standard QP and
// global residue scaling on the same non-passive fit.
func BenchmarkExtDEnforcementAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchCtx.ExtD()
		if err != nil {
			b.Fatal(err)
		}
		if res.Metrics["z_err_lf_residue_scaling"] < res.Metrics["z_err_lf_weighted_qp"] {
			b.Fatalf("residue scaling (%v) should not beat the weighted QP (%v)",
				res.Metrics["z_err_lf_residue_scaling"], res.Metrics["z_err_lf_weighted_qp"])
		}
	}
}

// --- more ablations --------------------------------------------------------

// BenchmarkAblationSweepWorkers measures the parallel speedup of the
// singular-value sweep on the 45-port model (results are identical by
// construction; see internal/parallel).
func BenchmarkAblationSweepWorkers(b *testing.B) {
	m, _, err := benchCtx.WeightedFit()
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 0} {
		name := "serial"
		if workers == 0 {
			name = "gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := repro.CheckPassivity(m, repro.CheckOptions{
					ForceSweep: true, FreqMin: 500, FreqMax: 4e9, SweepPoints: 1200, Workers: workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTransientDroop45 measures the switching-step co-simulation of
// the final 45-port weighted-passive model with its nominal terminations
// (540 macromodel states + 45 termination companions).
func BenchmarkTransientDroop45(b *testing.B) {
	syn, err := benchCtx.Dataset()
	if err != nil {
		b.Fatal(err)
	}
	m, _, err := benchCtx.WeightedEnforced()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, _, err := repro.Droop(m, syn.Load, 1e-9, repro.TransientOptions{
			Dt: 1e-9, Steps: 2000, RecordEvery: 10,
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.MinEnergy < -1e-9 {
			b.Fatalf("passive model generated energy: %v", rep.MinEnergy)
		}
	}
}

// BenchmarkReduceModel measures balanced truncation + pole-residue
// recovery of an overfitted 8-port model (160 → 96 states).
func BenchmarkReduceModel(b *testing.B) {
	freqs := repro.LogFreqGrid(1e3, 2e9, 80, true)
	syn, err := repro.GeneratePDN(repro.PDNSmall, freqs, 50)
	if err != nil {
		b.Fatal(err)
	}
	big, _, err := repro.Fit(syn.Data, repro.FitOptions{NumPoles: 20, Iterations: 5, ConstrainD: 0.999})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := repro.ReduceModel(big, 96); err != nil {
			b.Fatal(err)
		}
	}
}

// --- passivity check scaling ----------------------------------------------

// BenchmarkPassivityCheck charts the check hot path across model sizes
// (nP = poles × ports, the half Hamiltonian dimension) and methods. The
// synthetic models carry the narrow off-resonance violation band that the
// fixed sweep cannot see, so the benchmark doubles as the method-selection
// evidence: the exact Hamiltonian test explodes as O((2nP)³) while the
// adaptive characterizer stays in the milliseconds at nP = 2000, finding
// the band the 1000-point sweep misses. Hamiltonian runs are capped at
// nP ≤ 1000; note the nP = 1000 eigensolve takes tens of seconds per
// iteration, so a full -bench run of this function is slow by design —
// narrow with -bench 'BenchmarkPassivityCheck/nP=1000' when regenerating
// the speedup numbers.
func BenchmarkPassivityCheck(b *testing.B) {
	for _, size := range []struct{ ports, poles int }{
		{2, 24},  // nP = 48
		{2, 100}, // nP = 200
		{4, 125}, // nP = 500
		{4, 250}, // nP = 1000
		{8, 250}, // nP = 2000
	} {
		nP := size.ports * size.poles
		m, err := repro.SyntheticMacromodel(repro.SyntheticModelOptions{
			Ports: size.ports, Poles: size.poles, Seed: 3, PeakGain: 0.1, NarrowBand: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		run := func(name string, method repro.CheckMethod, wantPassive bool) {
			b.Run(fmt.Sprintf("nP=%d/%s", nP, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rep, err := repro.CheckPassivity(m, repro.CheckOptions{Method: method, SweepPoints: 1000})
					if err != nil {
						b.Fatal(err)
					}
					if rep.Passive != wantPassive {
						b.Fatalf("%s at nP=%d: passive=%v, want %v (σmax=%v)",
							name, nP, rep.Passive, wantPassive, rep.MaxSigma)
					}
				}
			})
		}
		// The narrow band is invisible to the fixed grid (passive verdict)
		// and found by the adaptive characterizer and the exact test.
		run("adaptive", repro.CheckAdaptive, false)
		run("sweep1000", repro.CheckSweep, true)
		if nP <= 1000 {
			run("hamiltonian", repro.CheckHamiltonian, false)
		}
	}
}

// BenchmarkPassivityCheckEnforceCached measures a full adaptive-driven
// enforcement on a violating synthetic model — the loop shares one
// evaluation cache across its sweeps, which is where the adaptive method
// earns its keep inside Enforce.
func BenchmarkPassivityCheckEnforceCached(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := repro.SyntheticMacromodel(repro.SyntheticModelOptions{
			Ports: 2, Poles: 40, Seed: 9, PeakGain: 1.1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		rep, err := repro.EnforcePassivity(m, repro.EnforceOptions{
			Check:  repro.CheckOptions{Method: repro.CheckAdaptive},
			ClampD: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Passive {
			b.Fatal("enforcement failed")
		}
	}
}
