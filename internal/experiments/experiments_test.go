package experiments

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	repro "repro"
)

// quickCtx shares one reduced-cost context across the tests in this
// package; building it exercises the whole flow once.
var quickCtx = NewContext(Config{
	Points:        60,
	Poles:         10,
	WeightOrder:   8,
	VFIterations:  5,
	EnforceMargin: 2e-5,
	Preset:        repro.PDNSmall,
})

func TestAllFiguresRun(t *testing.T) {
	results, err := quickCtx.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("expected 6 figures, got %d", len(results))
	}
	for i, r := range results {
		if len(r.Series) == 0 {
			t.Fatalf("figure %d has no series", i+1)
		}
		if len(r.Metrics) == 0 {
			t.Fatalf("figure %d has no metrics", i+1)
		}
		if !strings.Contains(r.Summary(), "==") {
			t.Fatalf("summary formatting broken")
		}
	}
}

func TestShapeCriteria(t *testing.T) {
	// The qualitative claims of the paper, asserted on the reduced run.
	fig2, err := quickCtx.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if fig2.Metrics["weighted_worst_rel_err_below_10MHz"] > fig2.Metrics["standard_worst_rel_err_below_10MHz"] {
		t.Fatalf("Fig2 shape violated: weighted fit should beat standard at LF (%v vs %v)",
			fig2.Metrics["weighted_worst_rel_err_below_10MHz"],
			fig2.Metrics["standard_worst_rel_err_below_10MHz"])
	}
	fig3, err := quickCtx.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if fig3.Metrics["xi_dynamic_range_db"] < 20 {
		t.Fatalf("Fig3 shape violated: sensitivity should span decades (%v dB)",
			fig3.Metrics["xi_dynamic_range_db"])
	}
	fig4, err := quickCtx.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if fig4.Metrics["max_sigma_before"] <= 1 {
		t.Fatalf("Fig4: the fitted model should violate passivity")
	}
	if fig4.Metrics["max_sigma_after"] > 1+1e-6 {
		t.Fatalf("Fig4: enforcement left σmax = %v", fig4.Metrics["max_sigma_after"])
	}
	fig5, err := quickCtx.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if fig5.Metrics["standard_over_weighted_error_ratio"] < 1.5 {
		t.Fatalf("Fig5 headline violated: weighted enforcement should preserve Z better (ratio %v)",
			fig5.Metrics["standard_over_weighted_error_ratio"])
	}
	fig6, err := quickCtx.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if fig6.Metrics["final_rms_error"] > 0.05 {
		t.Fatalf("Fig6: final scattering accuracy lost (%v)", fig6.Metrics["final_rms_error"])
	}
}

func TestCSVOutput(t *testing.T) {
	res, err := quickCtx.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := res.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, "fig2_target_impedance_after_fitting.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
	if !strings.HasPrefix(lines[0], "freq_hz,z_nominal_ohm") {
		t.Fatalf("CSV header wrong: %q", lines[0])
	}
	if len(lines) != quickCtx.Cfg.Points+2 { // header + DC + points
		t.Fatalf("CSV rows %d want %d", len(lines), quickCtx.Cfg.Points+2)
	}
}

func TestExtensionsRunAndHoldShape(t *testing.T) {
	results, err := quickCtx.Extensions()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("expected 4 extension experiments, got %d", len(results))
	}
	for _, r := range results {
		if len(r.Series) == 0 || len(r.Metrics) == 0 {
			t.Fatalf("%s: empty result", r.Figure)
		}
	}

	extA := results[0]
	// Representation independence is a consistency claim: every path must
	// complete (produce a passive model; Extract fails otherwise) and no
	// path may be catastrophically worse than another. Absolute accuracy
	// on this deliberately down-scaled config is checked by Fig5's ratio.
	for _, k := range []string{"z_err_lf_native_50ohm", "z_err_lf_renormalized_5", "z_err_lf_via_admittance"} {
		v := extA.Metrics[k]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("Ext-A: %s = %v", k, v)
		}
	}
	if extA.Metrics["worst_path_over_best"] > 50 {
		t.Fatalf("Ext-A: representation paths diverge by ×%v", extA.Metrics["worst_path_over_best"])
	}

	extB := results[1]
	if extB.Metrics["min_energy_weighted_joule"] < -1e-9 || extB.Metrics["min_energy_standard_joule"] < -1e-9 {
		t.Fatalf("Ext-B: passive models generated energy: %v / %v",
			extB.Metrics["min_energy_weighted_joule"], extB.Metrics["min_energy_standard_joule"])
	}
	// Transient must reproduce each model's own frequency response.
	if extB.Metrics["td_fd_consistency_weighted"] > 0.05 || extB.Metrics["td_fd_consistency_standard"] > 0.05 {
		t.Fatalf("Ext-B: co-simulation inconsistent with frequency domain: %v / %v",
			extB.Metrics["td_fd_consistency_weighted"], extB.Metrics["td_fd_consistency_standard"])
	}

	extC := results[2]
	if extC.Metrics["rms_s_reduced"] > 50*extC.Metrics["rms_s_overfit"]+extC.Metrics["bt_bound"] {
		t.Fatalf("Ext-C: reduced model error %v implausibly large", extC.Metrics["rms_s_reduced"])
	}

	extD := results[3]
	if extD.Metrics["scaling_gamma"] <= 0 || extD.Metrics["scaling_gamma"] > 1 {
		t.Fatalf("Ext-D: bad scaling γ %v", extD.Metrics["scaling_gamma"])
	}
	if extD.Metrics["z_err_lf_residue_scaling"] < extD.Metrics["z_err_lf_weighted_qp"] {
		t.Fatalf("Ext-D shape violated: scaling (%v) should be worse than weighted QP (%v)",
			extD.Metrics["z_err_lf_residue_scaling"], extD.Metrics["z_err_lf_weighted_qp"])
	}
	// The Ext-E..Ext-H checks run as hypothesis specs (hypotheses.go):
	// TestHypothesesDeterministicConfirm evaluates them.
}

func TestExtensionCSVEmission(t *testing.T) {
	res, err := quickCtx.ExtD()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := res.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "extD_enforcement_ablation.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "freq_hz,") {
		t.Fatalf("unexpected CSV header: %.60s", data)
	}
}

func TestTransientSeriesUsesTimeAxis(t *testing.T) {
	res, err := quickCtx.ExtB()
	if err != nil {
		t.Fatal(err)
	}
	if res.Series[0].XLabel != "time_s" {
		t.Fatalf("Ext-B series should be a time series, got %q", res.Series[0].XLabel)
	}
	dir := t.TempDir()
	if err := res.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "extB_transient_tone_waveforms.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "time_s,") {
		t.Fatalf("unexpected CSV header: %.60s", data)
	}
}
