package serve

import (
	"context"
	"testing"

	repro "repro"
)

// TestImportCacheVerifiesOnce: the fingerprint a blob is shipped under
// only routes it — a corrupt blob changes neither a worker Session nor the
// placement table, and a valid one is placed under the fingerprint its
// import verified, not the routing hint.
func TestImportCacheVerifiesOnce(t *testing.T) {
	m := library(t, 1, 1, 12)[0]
	fp := repro.PoleFingerprint(m)
	src := repro.NewSession()
	if _, err := src.Check(context.Background(), m, fastCheck); err != nil {
		t.Fatal(err)
	}
	blob, err := src.ExportCache(fp)
	if err != nil {
		t.Fatal(err)
	}

	s, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer drainOrFail(t, s)
	corrupt := append([]byte(nil), blob...)
	corrupt[len(corrupt)/2] ^= 0xff
	if _, err := s.ImportCache(fp, corrupt); err == nil {
		t.Fatal("corrupt blob imported")
	}
	s.mu.Lock()
	placed := s.affinity.Len()
	s.mu.Unlock()
	if fps := s.CacheFingerprints(); len(fps) != 0 || placed != 0 {
		t.Fatalf("corrupt blob left caches %x and %d placements", fps, placed)
	}

	hint := fp + 1
	got, err := s.ImportCache(hint, blob)
	if err != nil || got != fp {
		t.Fatalf("ImportCache = %016x, %v; want %016x", got, err, fp)
	}
	s.mu.Lock()
	owner, ok := s.affinity.Owner(fp)
	_, hinted := s.affinity.Owner(hint)
	holds := ok && s.workers[owner].sess.HasCache(fp)
	s.mu.Unlock()
	if !holds || hinted {
		t.Fatalf("placement: verified fingerprint on worker %d (recorded %v, holds cache %v), hint recorded %v", owner, ok, holds, hinted)
	}
	ch, err := s.Submit(&Job{Kind: JobCheck, Model: m, Check: fastCheck})
	if err != nil {
		t.Fatal(err)
	}
	if res := <-ch; res.Err != nil || !res.AffinityHit || res.Worker != owner {
		t.Fatalf("job after import: err=%v hit=%v worker=%d, want a hit on %d", res.Err, res.AffinityHit, res.Worker, owner)
	}
}
