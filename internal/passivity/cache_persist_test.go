package passivity

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// primeCache runs a check with a cache so both layers carry real entries.
func primeCache(t *testing.T) (*EvalCache, int) {
	t.Helper()
	model, err := SyntheticModel(SyntheticOptions{Ports: 2, Poles: 14, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	c := NewEvalCache()
	if _, err := Check(model, CheckOptions{Method: MethodAdaptive, Cache: c, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	c.SetHot([]float64{3.5, 88})
	if c.BasisEntries() == 0 || c.SigmaEntries() == 0 {
		t.Fatalf("priming left an empty cache: %d basis, %d sigma", c.BasisEntries(), c.SigmaEntries())
	}
	return c, model.NumPoles()
}

func TestEvalCacheSaveLoadRoundtrip(t *testing.T) {
	c, nPoles := primeCache(t)
	c.MaxEntries = 12345

	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadEvalCache(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	if got.MaxEntries != c.MaxEntries {
		t.Errorf("MaxEntries %d, want %d", got.MaxEntries, c.MaxEntries)
	}
	if got.BasisEntries() != c.BasisEntries() {
		t.Fatalf("basis entries %d, want %d", got.BasisEntries(), c.BasisEntries())
	}
	if got.SigmaEntries() != c.SigmaEntries() {
		t.Fatalf("sigma entries %d, want %d", got.SigmaEntries(), c.SigmaEntries())
	}
	for _, w := range c.sortedBasisFreqs() {
		a, b := c.basisFor(w), got.basisFor(w)
		if b == nil {
			t.Fatalf("basis for ω=%g missing after reload", w)
		}
		if len(a) != nPoles || len(b) != len(a) {
			t.Fatalf("basis length %d/%d at ω=%g, want %d", len(a), len(b), w, nPoles)
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("basis mismatch at ω=%g index %d: %v vs %v", w, k, a[k], b[k])
			}
		}
	}
	for _, w := range c.sigmaFreqsSorted() {
		a, _ := c.sigmaFor(w)
		b, ok := got.sigmaFor(w)
		if !ok || a != b {
			t.Fatalf("σ mismatch at ω=%g: %v (resident %v) vs %v", w, b, ok, a)
		}
	}
	if len(got.Hot()) != 2 || got.Hot()[0] != 3.5 || got.Hot()[1] != 88 {
		t.Fatalf("hot seeds %v, want [3.5 88]", got.Hot())
	}
	if got.SigmaHits != 0 || got.Evictions != 0 {
		t.Fatalf("counters not reset: hits=%d evictions=%d", got.SigmaHits, got.Evictions)
	}
}

func TestEvalCacheLoadPreservesLRUOrder(t *testing.T) {
	c := NewEvalCache()
	for i := 1; i <= 5; i++ {
		c.storeBasis(float64(i), []complex128{complex(float64(i), 0)})
	}
	c.basisFor(2) // touch ω=2 to the head
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadEvalCache(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// The reloaded recency must match: evicting down to 2 entries keeps the
	// two warmest (ω=5 and the touched ω=2) on both caches.
	got.MaxEntries = 2
	got.storeBasis(6, []complex128{6}) // trigger evictions
	for _, w := range []float64{2, 6} {
		if got.basisFor(w) == nil {
			t.Fatalf("warm entry ω=%g evicted; resident: %v", w, got.sortedBasisFreqs())
		}
	}
	for _, w := range []float64{1, 3, 4, 5} {
		if got.basisFor(w) != nil {
			t.Fatalf("cold entry ω=%g survived eviction; resident: %v", w, got.sortedBasisFreqs())
		}
	}
}

func TestEvalCacheLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadEvalCache(bytes.NewReader([]byte("not a cache stream"))); !errors.Is(err, ErrCacheFormat) {
		t.Fatalf("got %v, want ErrCacheFormat", err)
	}
	// Truncated valid stream.
	c, _ := primeCache(t)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEvalCache(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("truncated stream loaded without error")
	}
}

// TestVerifyEvalCacheMatchesLoad pins VerifyEvalCache to LoadEvalCache:
// on intact, truncated, extended and corrupted streams the walk must
// accept exactly what the loader accepts.
func TestVerifyEvalCacheMatchesLoad(t *testing.T) {
	c, _ := primeCache(t)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	// The primed cache parks nothing, so its stream ends with a zero stash
	// count; rewrite that tail into stashed layers under chosen keys.
	base := buf.Bytes()[:buf.Len()-8]
	withStash := func(keys ...uint64) []byte {
		b := le.AppendUint64(append([]byte(nil), base...), uint64(len(keys)))
		for _, k := range keys {
			b = le.AppendUint64(b, k)
			b = le.AppendUint64(b, 1) // one (ω, σ) pair
			b = le.AppendUint64(b, math.Float64bits(1e3))
			b = le.AppendUint64(b, math.Float64bits(0.5))
		}
		return b
	}
	agree := func(what string, b []byte) bool {
		t.Helper()
		_, loadErr := LoadEvalCache(bytes.NewReader(b))
		verifyErr := VerifyEvalCache(b)
		if (loadErr == nil) != (verifyErr == nil) {
			t.Errorf("%s: LoadEvalCache err=%v, VerifyEvalCache err=%v", what, loadErr, verifyErr)
		}
		return loadErr == nil
	}

	valid := withStash(1, 2)
	if !agree("intact", valid) {
		t.Fatal("intact stream rejected")
	}
	if !agree("trailing bytes", append(append([]byte(nil), valid...), 1, 2, 3)) {
		t.Fatal("trailing bytes after the last layer rejected")
	}
	for n := 0; n < len(valid); n++ {
		if agree("truncated", valid[:n]) {
			t.Fatalf("stream truncated to %d of %d bytes accepted", n, len(valid))
		}
	}
	if agree("duplicate stash key", withStash(1, 2, 1)) {
		t.Fatal("duplicate stash key accepted")
	}
	keys := make([]uint64, maxSigmaStash+1)
	for i := range keys {
		keys[i] = uint64(100 + i)
	}
	if !agree("stash at bound", withStash(keys[:maxSigmaStash]...)) {
		t.Fatal("stash at its bound rejected")
	}
	if agree("stash over bound", withStash(keys...)) {
		t.Fatal("stash past its bound accepted")
	}
	over := append([]byte(nil), valid...)
	le.PutUint64(over[16:], cacheMaxCount+1) // basis count
	if agree("basis count over limit", over) {
		t.Fatal("over-limit count accepted")
	}
	// Single-byte corruption across the header and the stash tail, and
	// strided through the basis layer.
	for i := 0; i < len(valid); i++ {
		if i >= 256 && i < len(valid)-512 && i%97 != 0 {
			continue
		}
		b := append([]byte(nil), valid...)
		b[i] ^= 0xff
		agree("corrupted", b)
	}
}
