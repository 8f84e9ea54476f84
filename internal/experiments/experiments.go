// Package experiments regenerates every figure of the paper's evaluation
// (§IV) on the synthetic 45-port PDN testcase. Each FigN method returns the
// plotted series plus its quantitative shape metrics, and can emit CSV
// files for external plotting. Extensions adds Ext-A..Ext-D; the engine
// claims Ext-E..Ext-H are the hypothesis specs of Hypotheses.
//
// The artifacts (dataset, fits, weights, enforced models) are built lazily
// and shared across figures, mirroring the single flow of the paper:
//
//	data → standard fit (Fig 1) → target impedances (Fig 2)
//	     → sensitivity + weight model (Fig 3)
//	     → weighted fit → singular values (Fig 4)
//	     → standard vs weighted enforcement (Fig 5) → final scattering (Fig 6)
package experiments

import (
	"math"
	"math/cmplx"
	"sync"

	repro "repro"
)

// Config sizes an experiment run.
type Config struct {
	// Points is the number of log-spaced frequency samples, 1 kHz–2 GHz
	// (the DC point is always added), paper: ~300.
	Points int
	// Poles is the macromodel order n (paper: 12).
	Poles int
	// WeightOrder is the sensitivity weight order n_w (paper: 8).
	WeightOrder int
	// VFIterations bounds the Vector Fitting sweeps.
	VFIterations int
	// EnforceMargin is the singular-value margin of the enforcement loop.
	EnforceMargin float64
	// Preset selects the synthetic structure.
	Preset repro.PDNPreset
}

// Default mirrors the paper's settings on the full 45-port structure.
func Default() Config {
	return Config{
		Points:        301,
		Poles:         12,
		WeightOrder:   8,
		VFIterations:  8,
		EnforceMargin: 2e-5,
		Preset:        repro.PDNPaper45,
	}
}

// Quick is a reduced-cost variant for benchmarks and CI: same structure,
// coarser frequency grid and fewer fit sweeps.
func Quick() Config {
	c := Default()
	c.Points = 100
	c.VFIterations = 5
	return c
}

// Context lazily builds and caches the shared artifacts.
type Context struct {
	Cfg Config

	once struct {
		data, zref, xi, weight, stdFit, wFit, enfStd, enfW sync.Once
	}
	err struct {
		data, zref, xi, weight, stdFit, wFit, enfStd, enfW error
	}

	syn    *repro.SyntheticPDN
	zref   []complex128
	xi     []float64
	weight *repro.Weight

	stdModel  *repro.Macromodel // plain (unweighted) fit
	stdFitRep *repro.FitReport

	wModel  *repro.Macromodel // sensitivity-weighted fit (non-passive)
	wFitRep *repro.FitReport

	enfStdModel *repro.Macromodel // weighted fit + standard enforcement
	enfStdRep   *repro.EnforceReport
	enfWModel   *repro.Macromodel // weighted fit + weighted enforcement
	enfWRep     *repro.EnforceReport
}

// NewContext prepares a lazy experiment context.
func NewContext(cfg Config) *Context {
	if cfg.Points <= 0 {
		cfg = Default()
	}
	return &Context{Cfg: cfg}
}

// Freqs returns the frequency grid (Hz) including DC.
func (c *Context) Freqs() []float64 {
	return repro.LogFreqGrid(1e3, 2e9, c.Cfg.Points, true)
}

// Dataset returns the synthetic PDN scattering data and nominal load.
func (c *Context) Dataset() (*repro.SyntheticPDN, error) {
	c.once.data.Do(func() {
		c.syn, c.err.data = repro.GeneratePDN(c.Cfg.Preset, c.Freqs(), 50)
	})
	return c.syn, c.err.data
}

// ReferenceZ returns the nominal target impedance computed from the data.
func (c *Context) ReferenceZ() ([]complex128, error) {
	c.once.zref.Do(func() {
		syn, err := c.Dataset()
		if err != nil {
			c.err.zref = err
			return
		}
		c.zref, c.err.zref = repro.TargetImpedance(syn.Data, syn.Load)
	})
	return c.zref, c.err.zref
}

// Sensitivity returns the Ξ_k samples.
func (c *Context) Sensitivity() ([]float64, error) {
	c.once.xi.Do(func() {
		syn, err := c.Dataset()
		if err != nil {
			c.err.xi = err
			return
		}
		c.xi, c.err.xi = repro.Sensitivity(syn.Data, syn.Load)
	})
	return c.xi, c.err.xi
}

// WeightModel returns the fitted minimum-phase weight Ξ̃(s).
func (c *Context) WeightModel() (*repro.Weight, error) {
	c.once.weight.Do(func() {
		syn, err := c.Dataset()
		if err != nil {
			c.err.weight = err
			return
		}
		c.weight, _, c.err.weight = repro.BuildWeight(syn.Data, syn.Load, c.Cfg.WeightOrder)
	})
	return c.weight, c.err.weight
}

// StandardFit returns the plain (unweighted) macromodel — the paper's
// baseline whose loaded accuracy collapses.
func (c *Context) StandardFit() (*repro.Macromodel, *repro.FitReport, error) {
	c.once.stdFit.Do(func() {
		syn, err := c.Dataset()
		if err != nil {
			c.err.stdFit = err
			return
		}
		c.stdModel, c.stdFitRep, c.err.stdFit = repro.Fit(syn.Data, repro.FitOptions{
			NumPoles:   c.Cfg.Poles,
			Iterations: c.Cfg.VFIterations,
			ConstrainD: 0.999,
		})
	})
	return c.stdModel, c.stdFitRep, c.err.stdFit
}

// WeightedFit returns the sensitivity-weighted macromodel before passivity
// enforcement.
func (c *Context) WeightedFit() (*repro.Macromodel, *repro.FitReport, error) {
	c.once.wFit.Do(func() {
		syn, err := c.Dataset()
		if err != nil {
			c.err.wFit = err
			return
		}
		xi, err := c.Sensitivity()
		if err != nil {
			c.err.wFit = err
			return
		}
		c.wModel, c.wFitRep, c.err.wFit = repro.Fit(syn.Data, repro.FitOptions{
			NumPoles:   c.Cfg.Poles,
			Iterations: c.Cfg.VFIterations,
			Weights:    xi,
			ConstrainD: 0.999,
		})
	})
	return c.wModel, c.wFitRep, c.err.wFit
}

func (c *Context) enforceOptions(weight *repro.Weight) repro.EnforceOptions {
	return repro.EnforceOptions{
		Check: repro.CheckOptions{
			ForceSweep:  true,
			FreqMin:     500,
			FreqMax:     4e9,
			SweepPoints: 1200,
		},
		Margin: c.Cfg.EnforceMargin,
		ClampD: true,
		Weight: weight,
	}
}

// StandardEnforced returns the weighted-fit model made passive with the
// STANDARD (unweighted) cost — the paper's Fig. 5 "standard SOCP" curve.
func (c *Context) StandardEnforced() (*repro.Macromodel, *repro.EnforceReport, error) {
	c.once.enfStd.Do(func() {
		m, _, err := c.WeightedFit()
		if err != nil {
			c.err.enfStd = err
			return
		}
		clone := m.Clone()
		c.enfStdRep, c.err.enfStd = repro.EnforcePassivity(clone, c.enforceOptions(nil))
		c.enfStdModel = clone
	})
	return c.enfStdModel, c.enfStdRep, c.err.enfStd
}

// WeightedEnforced returns the weighted-fit model made passive with the
// paper's sensitivity-weighted cost — the Fig. 5 "weighted SOCP" curve.
func (c *Context) WeightedEnforced() (*repro.Macromodel, *repro.EnforceReport, error) {
	c.once.enfW.Do(func() {
		m, _, err := c.WeightedFit()
		if err != nil {
			c.err.enfW = err
			return
		}
		w, err := c.WeightModel()
		if err != nil {
			c.err.enfW = err
			return
		}
		clone := m.Clone()
		c.enfWRep, c.err.enfW = repro.EnforcePassivity(clone, c.enforceOptions(w))
		c.enfWModel = clone
	})
	return c.enfWModel, c.enfWRep, c.err.enfW
}

// --- shared helpers ------------------------------------------------------

func db(x float64) float64 {
	if x <= 0 {
		return -400
	}
	return 20 * math.Log10(x)
}

// worstRel returns the worst relative deviation |a−b|/|b| over the indices
// where sel returns true.
func worstRel(a, b []complex128, freqs []float64, sel func(f float64) bool) float64 {
	mx := 0.0
	for i := range a {
		if !sel(freqs[i]) {
			continue
		}
		r := cmplx.Abs(a[i]-b[i]) / (1e-15 + cmplx.Abs(b[i]))
		if r > mx {
			mx = r
		}
	}
	return mx
}

func lfBand(f float64) bool  { return f > 0 && f < 1e7 }
func allBand(f float64) bool { return f > 0 }
