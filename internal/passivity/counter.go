package passivity

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/rational"
)

// This file implements the terminal rigor stage of the certification
// pipeline: an argument-principle eigenvalue counter over jω-axis segments
// of the level-γ Hamiltonian pencil. Where the Arnoldi probe can only
// *find* imaginary eigenvalues (best effort — absence of evidence), the
// counter *counts* them inside a thin rectangle around each unsettled
// segment by contour quadrature of the logarithmic-derivative trace
// (mat.ContourEvaluator). A provably-zero count means σ(S(jω)) − γ cannot
// change sign on the segment, so a single spot sample settles it
// rigorously; nonzero counts are bisected down to candidate crossing
// clusters that the σ machinery then judges directly. Either way the stage
// retires every interval it is handed — Certificate.Open == nil — or
// records an honest Note about the rectangle it could not stabilize.

// StageCounter names the contour-integral counter stage in certificates.
const StageCounter = "contour-counter"

// Kernel backend names recorded in StageCost.Backend and progress events.
const (
	// BackendStructured is the diagonal-plus-low-rank determinant/solve
	// kernel (mat.StructuredShifted): O(N·p²) per contour node.
	BackendStructured = "structured"
	// BackendDense is the dense kernel (complex LU / Francis QR): O(N³).
	BackendDense = "dense"
)

// counterCluster is one floor-width segment of the jω axis that still
// holds a nonzero eigenvalue count after bisection — a candidate crossing
// (or tight cluster of crossings) of σ(S(jω)) through the level γ.
type counterCluster struct {
	Lo, Hi float64
	Count  int
}

// IntervalCounter counts the eigenvalues of a model's level-γ Hamiltonian
// on segments of the positive imaginary axis — equivalently the crossings
// of σ(S(jω)) through the level γ with ω in the segment. The Hamiltonian
// is built once; each count walks a thin rectangular contour around the
// segment. Not safe for concurrent use.
type IntervalCounter struct {
	ev        *mat.ContourEvaluator
	backend   string
	gamma     float64
	bound     float64
	lastDelta float64
	// RectNodes caps the determinant evaluations of one rectangle count
	// (default max(4096, 2·N) — the quadrature's aliasing guard tightens
	// chords proportionally to N, so large-N contours legitimately spend
	// more nodes); Budget caps them over the counter's lifetime
	// (0 = unlimited). Exceeding either returns mat.ErrContourStall.
	RectNodes int
	Budget    int
}

// rectNodesFor is the default per-rectangle node cap for dimension N.
func rectNodesFor(dim int) int {
	if n := 2 * dim; n > 4096 {
		return n
	}
	return 4096
}

// NewIntervalCounter builds the level-γ Hamiltonian of the model in
// factored diagonal-plus-low-rank form (HamiltonianFactorsLevel) and
// prepares the contour evaluator over the structured O(N·p²) determinant
// kernel. It fails when γ is a singular value of D (the pencil is
// undefined there — nudge γ).
func NewIntervalCounter(model *rational.Model, gamma float64) (*IntervalCounter, error) {
	s, err := HamiltonianFactorsLevel(model, gamma)
	if err != nil {
		return nil, err
	}
	ev := mat.NewContourEvaluatorBackend(s)
	return &IntervalCounter{ev: ev, backend: BackendStructured, gamma: gamma, bound: ev.EigenBound(), RectNodes: rectNodesFor(ev.Dim())}, nil
}

// NewIntervalCounterDense builds the counter over the materialized
// Hamiltonian and the dense complex-LU determinant kernel — O(N³) per
// contour node. It is the oracle the structured kernel is cross-validated
// against (and a debugging escape hatch via
// CertifyOptions.ForceDenseKernels); NewIntervalCounter is the production
// path.
func NewIntervalCounterDense(model *rational.Model, gamma float64) (*IntervalCounter, error) {
	sys := model.Realization()
	h, err := HamiltonianMatrixLevel(sys.A, sys.B, sys.C, sys.D, gamma)
	if err != nil {
		return nil, err
	}
	ev := mat.NewContourEvaluator(h)
	return &IntervalCounter{ev: ev, backend: BackendDense, gamma: gamma, bound: ev.EigenBound(), RectNodes: rectNodesFor(ev.Dim())}, nil
}

// Dim returns the Hamiltonian dimension 2·n·P.
func (ic *IntervalCounter) Dim() int { return ic.ev.Dim() }

// Backend reports which determinant kernel the counter walks contours
// with: BackendStructured or BackendDense.
func (ic *IntervalCounter) Backend() string { return ic.backend }

// Nodes returns the determinant evaluations spent so far.
func (ic *IntervalCounter) Nodes() int { return ic.ev.Nodes }

// OmegaBound returns a rigorous upper bound on every crossing frequency:
// the induced-norm bound on the Hamiltonian's eigenvalue moduli. Segments
// entirely beyond it are crossing-free without any quadrature.
func (ic *IntervalCounter) OmegaBound() float64 { return ic.bound }

// LastDelta returns the real-direction half-width of the rectangle the
// most recent successful Count walked (the stall-retry ladder may shrink
// it below the initial width/4). Oracle tests use it to reproduce the
// exact region counted.
func (ic *IntervalCounter) LastDelta() float64 { return ic.lastDelta }

// contourOpts builds the per-rectangle quadrature options under the
// remaining budget.
func (ic *IntervalCounter) contourOpts() (mat.ContourOptions, error) {
	limit := ic.RectNodes
	if ic.Budget > 0 {
		rem := ic.Budget - ic.ev.Nodes
		if rem <= 0 {
			return mat.ContourOptions{}, fmt.Errorf("counter budget exhausted after %d nodes: %w", ic.ev.Nodes, mat.ErrContourStall)
		}
		limit = min(limit, rem)
	}
	return mat.ContourOptions{MaxNodes: limit}, nil
}

// Count counts the Hamiltonian eigenvalues inside a thin rectangle
// enclosing the open segment (lo, hi) of the positive imaginary axis. A
// zero count proves the segment holds no crossing of σ through γ. A
// nonzero count flags candidates: the rectangle has half-width δ in the
// real direction, so eigenvalues within δ of the axis are counted even if
// slightly off it (sound for certification — zero is still zero — and the
// candidates are vetted by direct σ evaluation afterwards). Stalls retry
// with a shrunken δ; a persistent mat.ErrContourStall means an eigenvalue
// hugs the segment endpoints and the caller should split elsewhere.
func (ic *IntervalCounter) Count(lo, hi float64) (int, error) {
	if !(lo >= 0) || !(hi > lo) || math.IsInf(hi, 1) {
		return 0, fmt.Errorf("passivity: IntervalCounter.Count on invalid segment [%g, %g]", lo, hi)
	}
	delta := 0.25 * (hi - lo)
	var lastErr error
	for try := 0; try < 5; try++ {
		opts, err := ic.contourOpts()
		if err != nil {
			return 0, err
		}
		rect := mat.RectContour{ReLo: -delta, ReHi: delta, ImLo: lo, ImHi: hi}
		if lo == 0 {
			// DC segment: drop the bottom edge below the axis so an ω = 0
			// eigenvalue sits inside the contour, not on it. The spectrum
			// is symmetric in jω, so the dip only adds mirror images of
			// eigenvalues already counted — harmless for a candidate count
			// and irrelevant for a zero count.
			rect.ImLo = -delta
		}
		n, err := ic.ev.CountRect(rect, opts)
		if err == nil {
			ic.lastDelta = delta
			return n, nil
		}
		lastErr = err
		// An eigenvalue near a vertical edge stalls the quadrature; thinner
		// rectangles move the edge off it. (Horizontal-edge stalls are the
		// caller's to fix by splitting elsewhere.)
		delta *= 0.35
	}
	return 0, lastErr
}

// Crossings bisects (lo, hi) into crossing-free gaps and floor-width
// clusters holding the nonzero counts. floor is the smallest cluster width
// (a relative width is applied against hi by the caller). When a midpoint
// stalls the quadrature — an eigenvalue sitting on it — nearby split
// points are tried before giving up on the segment.
func (ic *IntervalCounter) Crossings(lo, hi, floor float64) ([]counterCluster, error) {
	n, err := ic.Count(lo, hi)
	switch {
	case err == nil && n == 0:
		return nil, nil
	case err == nil && hi-lo <= floor:
		return []counterCluster{{Lo: lo, Hi: hi, Count: n}}, nil
	case err != nil && !errors.Is(err, mat.ErrContourStall):
		return nil, err
	case err != nil && hi-lo <= floor:
		return nil, err
	}
	// Nonzero count, or a stall on a rectangle too crowded for its node
	// budget: either way the halves are strictly easier, so split.
	width := hi - lo
	var clusters []counterCluster
	// Nudge ladder for the split point: the exact midpoint first, then
	// asymmetric offsets in case an eigenvalue sits on it.
	for _, f := range []float64{0.5, 0.53, 0.46, 0.59, 0.41} {
		mid := lo + f*width
		left, err := ic.Crossings(lo, mid, floor)
		if err != nil {
			if errors.Is(err, mat.ErrContourStall) {
				continue
			}
			return nil, err
		}
		right, err := ic.Crossings(mid, hi, floor)
		if err != nil {
			if errors.Is(err, mat.ErrContourStall) {
				continue
			}
			return nil, err
		}
		return append(append(clusters, left...), right...), nil
	}
	return nil, mat.ErrContourStall
}

// CounterCertifier returns the terminal contour-integral counter stage: it
// retires every interval the earlier stages left open (or proves the
// violations living inside them), so certificates finish with Open == nil.
func CounterCertifier() Certifier { return counterStage{} }

// counterStage adapts IntervalCounter to the Certifier interface.
type counterStage struct{}

// Name implements Certifier.
func (counterStage) Name() string { return StageCounter }

func (counterStage) certify(cc *certContext, open []CertInterval) ([]CertInterval, []Violation, StageCost, error) {
	cost := StageCost{Stage: StageCounter, DimGate: cc.copts.CounterMaxDim}
	if len(open) == 0 {
		// Nothing left to settle: skip building the Hamiltonian entirely —
		// the terminal stage must be free on the steady-state path where the
		// earlier certificates already covered the axis.
		return nil, nil, cost, nil
	}
	backend := BackendStructured
	if cc.copts.ForceDenseKernels {
		backend = BackendDense
	}
	cost.Backend = backend
	if dim := 2 * len(cc.model.Poles) * cc.model.D.Rows; dim > cc.copts.CounterMaxDim {
		// Each quadrature node costs O(N·p²) on the structured kernel (O(N³)
		// when dense kernels are forced); past the configured frontier the
		// node budget would dominate the run. Decline honestly instead of
		// stalling, and count the declined intervals so the gate is visible
		// in metrics, not just in this note.
		cost.Note = fmt.Sprintf("counter declined: Hamiltonian dim %d exceeds CounterMaxDim %d", dim, cc.copts.CounterMaxDim)
		cost.Declined = len(open)
		return open, nil, cost, nil
	}
	build := NewIntervalCounter
	if backend == BackendDense {
		build = NewIntervalCounterDense
	}
	ic, err := build(cc.model, cc.limit)
	if err != nil {
		// γ collides with a singular value of D; leave the intervals open
		// rather than abort a best-effort pipeline tail.
		cost.Note = err.Error()
		return open, nil, cost, nil
	}
	ic.Budget = cc.copts.CounterMaxNodes
	cost.EigenDim = ic.Dim()
	var rem []CertInterval
	var viols []Violation
	for _, iv := range open {
		segHi := iv.Hi
		if math.IsInf(segHi, 1) {
			// No Hamiltonian eigenvalue lies beyond the norm bound, so the
			// segment past it is crossing-free by construction; counting
			// stops at the bound and the tail joins the last gap.
			segHi = ic.OmegaBound() * (1 + 1e-9)
		}
		ivViols, ok, note := counterSpan(cc, ic, iv.Lo, iv.Hi, segHi, cc.relTol*segHi, &cost)
		switch {
		case len(ivViols) > 0:
			viols = append(viols, ivViols...)
		case ok:
			cost.Certified++
		default:
			if note != "" {
				cost.Note = note
			}
			rem = append(rem, iv)
		}
	}
	cost.Nodes = ic.Nodes()
	cost.Violations = len(viols)
	return rem, viols, cost, nil
}

// counterMinFloorRel is the narrowest cluster floor, relative to the
// cluster's upper edge, that counterSpan refines down to before leaving a
// nonzero count unsettled.
const counterMinFloorRel = 1e-10

// counterSpan resolves one open interval [lo, hi]: it localizes candidate
// crossing clusters on [lo, segHi] by contour counting down to width
// floor, and reports the violations found, whether the span is certified
// clean, and a diagnostic note when the quadrature could not settle it.
// Gaps between clusters are crossing-free, so one σ sample decides each. A cluster's polished peak above the limit proves
// a violation; a clean peak proves nothing — the polish can climb to the
// cluster edge past a band narrower than the cluster — so a nonzero count
// is never certified on it. The cluster is re-settled at a 16× finer
// floor instead, whose gap samples catch such a band; when the floor runs
// out the span stays open.
func counterSpan(cc *certContext, ic *IntervalCounter, lo, hi, segHi, floor float64, cost *StageCost) ([]Violation, bool, string) {
	var clusters []counterCluster
	if lo < segHi {
		var err error
		clusters, err = ic.Crossings(lo, segHi, floor)
		if err != nil {
			return nil, false, fmt.Sprintf("counter on [%g, %g]: %v", lo, segHi, err)
		}
	}
	// Edges of the crossing-free gaps: interval ends plus cluster bounds.
	edges := make([]float64, 0, 2*len(clusters)+2)
	edges = append(edges, lo)
	for _, cl := range clusters {
		edges = append(edges, cl.Lo, cl.Hi)
	}
	edges = append(edges, hi)
	var viols []Violation
	// Odd (gap) spans are provably crossing-free: one sample decides each.
	for i := 0; i+1 < len(edges); i += 2 {
		g0, g1 := edges[i], edges[i+1]
		if g1 <= g0 {
			continue
		}
		w := testPoint(g0, g1)
		sv := cachedSigma(cc.model, w, cc.cache, cc.ws)
		cost.Samples++
		if sv > cc.limit {
			peakW, peakS := refinePeak(cc.model, g0, g1, w, cc.cache, cc.ws)
			viols = append(viols, Violation{OmegaPeak: peakW, SigmaPeak: peakS, OmegaLo: g0, OmegaHi: g1})
		}
	}
	settled, note := true, ""
	for _, cl := range clusters {
		seed := testPoint(cl.Lo, cl.Hi)
		peakW, peakS := refinePeak(cc.model, cl.Lo, cl.Hi, seed, cc.cache, cc.ws)
		cost.Samples++
		if peakS > cc.limit {
			viols = append(viols, Violation{OmegaPeak: peakW, SigmaPeak: peakS, OmegaLo: cl.Lo, OmegaHi: cl.Hi})
			continue
		}
		fine := floor / 16
		if fine < counterMinFloorRel*cl.Hi {
			settled = false
			note = fmt.Sprintf("counter: %d crossing(s) in [%g, %g] unresolved at the finest floor", cl.Count, cl.Lo, cl.Hi)
			continue
		}
		sub, ok, subNote := counterSpan(cc, ic, cl.Lo, cl.Hi, cl.Hi, fine, cost)
		viols = append(viols, sub...)
		if !ok && len(sub) == 0 {
			settled, note = false, subNote
		}
	}
	return viols, settled && len(viols) == 0, note
}
