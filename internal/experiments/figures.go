package experiments

import (
	"fmt"
	"maps"
	"math"
	"math/cmplx"
	"os"
	"path/filepath"
	"slices"
	"strings"

	repro "repro"
)

// Series is one plottable column set: an x axis (frequency unless XLabel
// says otherwise) plus named columns.
type Series struct {
	Name    string
	FreqHz  []float64 // the x axis; time for transient series (see XLabel)
	Columns map[string][]float64
	Order   []string // column order for CSV output
	XLabel  string   // CSV header of the x column; "" means "freq_hz"
}

// WriteCSV writes the series to dir/<name>.csv.
func (s *Series) WriteCSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var b strings.Builder
	x := s.XLabel
	if x == "" {
		x = "freq_hz"
	}
	b.WriteString(x)
	for _, c := range s.Order {
		b.WriteString(",")
		b.WriteString(c)
	}
	b.WriteString("\n")
	for i := range s.FreqHz {
		fmt.Fprintf(&b, "%.10e", s.FreqHz[i])
		for _, c := range s.Order {
			fmt.Fprintf(&b, ",%.10e", s.Columns[c][i])
		}
		b.WriteString("\n")
	}
	return os.WriteFile(filepath.Join(dir, s.Name+".csv"), []byte(b.String()), 0o644)
}

// FigResult bundles the series and headline metrics of one figure.
type FigResult struct {
	Figure  string
	Series  []*Series
	Metrics map[string]float64
	Notes   []string
}

// WriteCSV emits all series of the figure.
func (r *FigResult) WriteCSV(dir string) error {
	for _, s := range r.Series {
		if err := s.WriteCSV(dir); err != nil {
			return err
		}
	}
	return nil
}

// Summary renders the metrics for terminal output.
func (r *FigResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", r.Figure)
	for _, k := range slices.Sorted(maps.Keys(r.Metrics)) {
		fmt.Fprintf(&b, "  %-42s %.6g\n", k, r.Metrics[k])
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Fig1 — scattering responses of the STANDARD model vs raw data (paper
// Fig. 1): S(1,1) and S(1,2) magnitude and phase, plus fit-quality metrics.
func (c *Context) Fig1() (*FigResult, error) {
	syn, err := c.Dataset()
	if err != nil {
		return nil, err
	}
	model, rep, err := c.StandardFit()
	if err != nil {
		return nil, err
	}
	s := &Series{
		Name:    "fig1_scattering_standard",
		Columns: map[string][]float64{},
		Order: []string{
			"s11_data_db", "s11_model_db", "s12_data_db", "s12_model_db",
			"s11_data_deg", "s11_model_deg", "s12_data_deg", "s12_model_deg",
		},
	}
	for _, col := range s.Order {
		s.Columns[col] = nil
	}
	for k, f := range syn.Data.Freq {
		s.FreqHz = append(s.FreqHz, f)
		d11 := syn.Data.At(k, 0, 0)
		d12 := syn.Data.At(k, 0, 1)
		m11 := model.EvalEntry(0, 0, f)
		m12 := model.EvalEntry(0, 1, f)
		s.Columns["s11_data_db"] = append(s.Columns["s11_data_db"], db(cmplx.Abs(d11)))
		s.Columns["s11_model_db"] = append(s.Columns["s11_model_db"], db(cmplx.Abs(m11)))
		s.Columns["s12_data_db"] = append(s.Columns["s12_data_db"], db(cmplx.Abs(d12)))
		s.Columns["s12_model_db"] = append(s.Columns["s12_model_db"], db(cmplx.Abs(m12)))
		s.Columns["s11_data_deg"] = append(s.Columns["s11_data_deg"], cmplx.Phase(d11)*180/math.Pi)
		s.Columns["s11_model_deg"] = append(s.Columns["s11_model_deg"], cmplx.Phase(m11)*180/math.Pi)
		s.Columns["s12_data_deg"] = append(s.Columns["s12_data_deg"], cmplx.Phase(d12)*180/math.Pi)
		s.Columns["s12_model_deg"] = append(s.Columns["s12_model_deg"], cmplx.Phase(m12)*180/math.Pi)
	}
	return &FigResult{
		Figure: "Fig1: scattering fit, standard model",
		Series: []*Series{s},
		Metrics: map[string]float64{
			"fit_rms_error":      rep.RMSErr,
			"fit_max_abs_error":  rep.MaxAbsErr,
			"model_order":        float64(model.NumPoles()),
			"vf_iterations_used": float64(rep.Iterations),
		},
		Notes: []string{"model matches raw scattering data closely (paper: 'match very closely the raw data')"},
	}, nil
}

// Fig2 — target impedance after fitting (paper Fig. 2): nominal vs standard
// model vs sensitivity-weighted model, before any passivity enforcement.
func (c *Context) Fig2() (*FigResult, error) {
	syn, err := c.Dataset()
	if err != nil {
		return nil, err
	}
	zref, err := c.ReferenceZ()
	if err != nil {
		return nil, err
	}
	std, _, err := c.StandardFit()
	if err != nil {
		return nil, err
	}
	wgt, _, err := c.WeightedFit()
	if err != nil {
		return nil, err
	}
	freqs := syn.Data.Freq
	zStd, err := repro.TargetImpedanceModel(std, freqs, syn.Load)
	if err != nil {
		return nil, err
	}
	zW, err := repro.TargetImpedanceModel(wgt, freqs, syn.Load)
	if err != nil {
		return nil, err
	}
	s := &Series{
		Name:    "fig2_target_impedance_after_fitting",
		Columns: map[string][]float64{},
		Order:   []string{"z_nominal_ohm", "z_standard_ohm", "z_weighted_ohm"},
	}
	for i, f := range freqs {
		s.FreqHz = append(s.FreqHz, f)
		s.Columns["z_nominal_ohm"] = append(s.Columns["z_nominal_ohm"], cmplx.Abs(zref[i]))
		s.Columns["z_standard_ohm"] = append(s.Columns["z_standard_ohm"], cmplx.Abs(zStd[i]))
		s.Columns["z_weighted_ohm"] = append(s.Columns["z_weighted_ohm"], cmplx.Abs(zW[i]))
	}
	return &FigResult{
		Figure: "Fig2: target impedance after fitting",
		Series: []*Series{s},
		Metrics: map[string]float64{
			"standard_worst_rel_err_below_10MHz": worstRel(zStd, zref, freqs, lfBand),
			"weighted_worst_rel_err_below_10MHz": worstRel(zW, zref, freqs, lfBand),
			"standard_worst_rel_err_full_band":   worstRel(zStd, zref, freqs, allBand),
			"weighted_worst_rel_err_full_band":   worstRel(zW, zref, freqs, allBand),
		},
		Notes: []string{"paper: standard model 'severely deteriorated under nominal loading'; weighted model follows the nominal curve"},
	}, nil
}

// Fig3 — the sensitivity Ξ(ω) samples vs the Magnitude-VF weight model
// |Ξ̃(jω)| (paper Fig. 3).
func (c *Context) Fig3() (*FigResult, error) {
	syn, err := c.Dataset()
	if err != nil {
		return nil, err
	}
	xi, err := c.Sensitivity()
	if err != nil {
		return nil, err
	}
	w, err := c.WeightModel()
	if err != nil {
		return nil, err
	}
	s := &Series{
		Name:    "fig3_sensitivity_weight",
		Columns: map[string][]float64{},
		Order:   []string{"xi_data_db", "xi_model_db"},
	}
	var rmsNum, rmsDen float64
	maxXi := 0.0
	for _, v := range xi {
		if v > maxXi {
			maxXi = v
		}
	}
	for i, f := range syn.Data.Freq {
		if f == 0 {
			continue // log axis
		}
		s.FreqHz = append(s.FreqHz, f)
		m := w.Eval(f)
		s.Columns["xi_data_db"] = append(s.Columns["xi_data_db"], db(xi[i]))
		s.Columns["xi_model_db"] = append(s.Columns["xi_model_db"], db(m))
		// Relative accuracy where the sensitivity is significant (the
		// paper likewise ignores the deep notches / GHz spike).
		if xi[i] > 1e-3*maxXi {
			r := (m - xi[i]) / xi[i]
			rmsNum += r * r
			rmsDen++
		}
	}
	rms := math.Sqrt(rmsNum / math.Max(rmsDen, 1))
	return &FigResult{
		Figure: "Fig3: first-order sensitivity and its rational weight model",
		Series: []*Series{s},
		Metrics: map[string]float64{
			"weight_order":                   float64(w.Order()),
			"weight_rms_rel_err_significant": rms,
			"xi_low_freq":                    xi[1],
			"xi_high_freq":                   xi[len(xi)-1],
			"xi_dynamic_range_db":            db(xi[1]) - db(xi[len(xi)-1]),
		},
	}, nil
}

// Fig4 — singular values of the weighted-fit model before and after
// (weighted) passivity enforcement (paper Fig. 4).
func (c *Context) Fig4() (*FigResult, error) {
	before, _, err := c.WeightedFit()
	if err != nil {
		return nil, err
	}
	after, rep, err := c.WeightedEnforced()
	if err != nil {
		return nil, err
	}
	grid := repro.LogFreqGrid(1e3, 4e9, 400, false)
	s := &Series{
		Name:    "fig4_singular_values",
		Columns: map[string][]float64{},
		Order:   []string{"sigma_max_before", "sigma_max_after"},
	}
	worstBefore, worstAfter := 0.0, 0.0
	for _, f := range grid {
		s.FreqHz = append(s.FreqHz, f)
		sb := before.MaxSingularValue(f)
		sa := after.MaxSingularValue(f)
		s.Columns["sigma_max_before"] = append(s.Columns["sigma_max_before"], sb)
		s.Columns["sigma_max_after"] = append(s.Columns["sigma_max_after"], sa)
		if sb > worstBefore {
			worstBefore = sb
		}
		if sa > worstAfter {
			worstAfter = sa
		}
	}
	return &FigResult{
		Figure: "Fig4: singular values before/after passivity enforcement",
		Series: []*Series{s},
		Metrics: map[string]float64{
			"max_sigma_before":       worstBefore,
			"max_sigma_after":        worstAfter,
			"enforcement_iterations": float64(rep.Iterations),
		},
		Notes: []string{"paper: all singular values ≤ 1 after enforcement; passive in 9 iterations on their testcase"},
	}, nil
}

// Fig5 — the headline result (paper Fig. 5): target impedance after
// passivity enforcement with and without sensitivity weighting.
func (c *Context) Fig5() (*FigResult, error) {
	syn, err := c.Dataset()
	if err != nil {
		return nil, err
	}
	zref, err := c.ReferenceZ()
	if err != nil {
		return nil, err
	}
	nonPassive, _, err := c.WeightedFit()
	if err != nil {
		return nil, err
	}
	stdEnf, _, err := c.StandardEnforced()
	if err != nil {
		return nil, err
	}
	wEnf, _, err := c.WeightedEnforced()
	if err != nil {
		return nil, err
	}
	freqs := syn.Data.Freq
	zNP, err := repro.TargetImpedanceModel(nonPassive, freqs, syn.Load)
	if err != nil {
		return nil, err
	}
	zStd, err := repro.TargetImpedanceModel(stdEnf, freqs, syn.Load)
	if err != nil {
		return nil, err
	}
	zW, err := repro.TargetImpedanceModel(wEnf, freqs, syn.Load)
	if err != nil {
		return nil, err
	}
	s := &Series{
		Name:    "fig5_target_impedance_after_enforcement",
		Columns: map[string][]float64{},
		Order:   []string{"z_nominal_ohm", "z_nonpassive_ohm", "z_standard_enf_ohm", "z_weighted_enf_ohm"},
	}
	for i, f := range freqs {
		s.FreqHz = append(s.FreqHz, f)
		s.Columns["z_nominal_ohm"] = append(s.Columns["z_nominal_ohm"], cmplx.Abs(zref[i]))
		s.Columns["z_nonpassive_ohm"] = append(s.Columns["z_nonpassive_ohm"], cmplx.Abs(zNP[i]))
		s.Columns["z_standard_enf_ohm"] = append(s.Columns["z_standard_enf_ohm"], cmplx.Abs(zStd[i]))
		s.Columns["z_weighted_enf_ohm"] = append(s.Columns["z_weighted_enf_ohm"], cmplx.Abs(zW[i]))
	}
	stdLF := worstRel(zStd, zref, freqs, lfBand)
	wLF := worstRel(zW, zref, freqs, lfBand)
	return &FigResult{
		Figure: "Fig5: target impedance after passivity enforcement (headline)",
		Series: []*Series{s},
		Metrics: map[string]float64{
			"nonpassive_worst_rel_err_below_10MHz":   worstRel(zNP, zref, freqs, lfBand),
			"standard_enf_worst_rel_err_below_10MHz": stdLF,
			"weighted_enf_worst_rel_err_below_10MHz": wLF,
			"standard_over_weighted_error_ratio":     stdLF / math.Max(wLF, 1e-12),
		},
		Notes: []string{"paper: standard enforcement 'deviates significantly at low frequencies... useless for practical design'; weighted stays accurate"},
	}, nil
}

// Fig6 — scattering responses of the final weighted-passive model vs data
// (paper Fig. 6): enforcement must not degrade the scattering fit.
func (c *Context) Fig6() (*FigResult, error) {
	syn, err := c.Dataset()
	if err != nil {
		return nil, err
	}
	model, _, err := c.WeightedEnforced()
	if err != nil {
		return nil, err
	}
	s := &Series{
		Name:    "fig6_scattering_weighted_passive",
		Columns: map[string][]float64{},
		Order: []string{
			"s11_data_db", "s11_model_db", "s12_data_db", "s12_model_db",
		},
	}
	for k, f := range syn.Data.Freq {
		s.FreqHz = append(s.FreqHz, f)
		s.Columns["s11_data_db"] = append(s.Columns["s11_data_db"], db(cmplx.Abs(syn.Data.At(k, 0, 0))))
		s.Columns["s11_model_db"] = append(s.Columns["s11_model_db"], db(cmplx.Abs(model.EvalEntry(0, 0, f))))
		s.Columns["s12_data_db"] = append(s.Columns["s12_data_db"], db(cmplx.Abs(syn.Data.At(k, 0, 1))))
		s.Columns["s12_model_db"] = append(s.Columns["s12_model_db"], db(cmplx.Abs(model.EvalEntry(0, 1, f))))
	}
	return &FigResult{
		Figure: "Fig6: scattering of the final weighted-passive model",
		Series: []*Series{s},
		Metrics: map[string]float64{
			"final_rms_error": model.RMSError(syn.Data),
		},
		Notes: []string{"paper: 'no difference ... can be noted in the scattering representation' vs Fig 1"},
	}, nil
}

// All runs every figure in order, returning results keyed 1..6.
func (c *Context) All() ([]*FigResult, error) {
	var out []*FigResult
	for i, fn := range []func() (*FigResult, error){
		c.Fig1, c.Fig2, c.Fig3, c.Fig4, c.Fig5, c.Fig6,
	} {
		r, err := fn()
		if err != nil {
			return out, fmt.Errorf("experiments: figure %d: %w", i+1, err)
		}
		out = append(out, r)
	}
	return out, nil
}
