package passivity

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/rational"
)

// TestCounterNarrowBandNeverFalselyCertified is the regression for the
// counter's false certificates. Each narrow-band model crosses σ = 1 at
// ≈137.0028 and ≈137.0189 rad/s (σ(137.005) ≈ 1.017), a band far
// narrower than the counter's floor-width clusters (AdaptiveRelTol·ω ≈
// 0.137 rad/s). Judging such a cluster by one peak polish from its
// midpoint climbed to the cluster edge (σ ≈ 0.98) and certified the model
// passive. With the tail and Lipschitz stages in front and the eigentest
// gated off (MaxDim 16), the counter must report the violation instead.
func TestCounterNarrowBandNeverFalselyCertified(t *testing.T) {
	pipe := NewPipeline(TailBoundCertifier(), LipschitzCertifier(), CounterCertifier())
	for seed := int64(1); seed <= 4; seed++ {
		for _, gain := range []float64{0.25, 0.4} {
			m, err := SyntheticModel(SyntheticOptions{Ports: 2, Poles: 40, Seed: seed, PeakGain: gain, NarrowBand: true})
			if err != nil {
				t.Fatal(err)
			}
			cross, err := HamiltonianCrossings(m)
			if err != nil {
				t.Fatal(err)
			}
			if len(cross) == 0 {
				t.Fatalf("seed %d gain %g: the oracle finds no crossing — the repro no longer has its band", seed, gain)
			}
			cert, err := pipe.Run(m, CheckOptions{}, CertifyOptions{MaxDim: 16})
			if err != nil {
				t.Fatal(err)
			}
			if cert.Certified || len(cert.Violations) == 0 {
				t.Errorf("seed %d gain %g: certified=%v with %d violations, but the oracle crosses σ=1 at %v",
					seed, gain, cert.Certified, len(cert.Violations), cross)
			}
		}
	}
}

// TestCounterNarrowBandEnforceOracle runs the same band through certified
// enforcement with the restricted and probe stages capped, so the counter
// is the stage that judges it. A certified-passive result must satisfy the
// dense Hamiltonian oracle.
func TestCounterNarrowBandEnforceOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		m, err := SyntheticModel(SyntheticOptions{Ports: 2, Poles: 40, Seed: seed, PeakGain: 0.4, NarrowBand: true})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Enforce(m, EnforceOptions{
			Check:       CheckOptions{Method: MethodAdaptive, AdaptiveMaxStages: 6},
			Certify:     true,
			CertifyOpts: CertifyOptions{MaxDim: 16, RestrictedMaxDim: 2, ProbeMaxDim: 2},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.Passive || rep.Certificate == nil || !rep.Certificate.Certified {
			continue
		}
		oracle, err := Check(m, CheckOptions{Method: MethodHamiltonian})
		if err != nil {
			t.Fatal(err)
		}
		if !oracle.Passive {
			t.Errorf("seed %d: certified passive, but the oracle finds σ=%.6f", seed, oracle.MaxSigma)
		}
	}
}

// TestCounterCertifiedImpliesNoCrossings is the oracle property of the
// counter-terminated pipeline: on random and narrow-band models with
// Hamiltonian dimension N ≤ 600 — as generated, and after certified
// enforcement leaves σ hugging the limit, where the counter does the
// settling — a Certified verdict the counter stage reached implies the
// dense eigentest finds no crossing of the limit.
func TestCounterCertifiedImpliesNoCrossings(t *testing.T) {
	pipe := NewPipeline(TailBoundCertifier(), LipschitzCertifier(), CounterCertifier())
	copts := CertifyOptions{MaxDim: 16, RestrictedMaxDim: 2, ProbeMaxDim: 2}
	rng := rand.New(rand.NewSource(20141))
	n := 12
	if testing.Short() {
		n = 4
	}
	counted := 0
	check := func(m *rational.Model, what string) {
		cert, err := pipe.Run(m, CheckOptions{}, copts)
		if err != nil {
			t.Fatal(err)
		}
		if !cert.Certified || cert.Stage != StageCounter {
			return
		}
		counted++
		// The pipeline certifies against 1 + CheckOptions.Tol.
		opts := CheckOptions{}
		opts.defaults(m)
		cross, err := HamiltonianCrossingsLevel(m, 1+opts.Tol)
		if err != nil {
			t.Fatal(err)
		}
		if len(cross) > 0 {
			t.Errorf("%s: counter-certified passive, but the oracle crosses at %v", what, cross)
		}
	}
	for i := 0; i < n; i++ {
		opts := SyntheticOptions{
			Ports:      2 + rng.Intn(2),
			Poles:      6 + rng.Intn(30),
			Seed:       rng.Int63(),
			PeakGain:   0.1 + 0.4*rng.Float64(),
			NarrowBand: i%2 == 0,
		}
		if 2*opts.Poles*opts.Ports > 600 {
			continue
		}
		m, err := SyntheticModel(opts)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("%+v", opts)
		check(m, what)
		if _, err := Enforce(m, EnforceOptions{Check: CheckOptions{Method: MethodAdaptive}, Certify: true, CertifyOpts: copts}); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		check(m, what+" enforced")
	}
	if counted == 0 {
		t.Fatal("no certificate was settled by the counter — the property went untested")
	}
	t.Logf("%d counter-settled certificates checked against the oracle", counted)
}
