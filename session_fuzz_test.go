package repro_test

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc64"
	"testing"

	repro "repro"
)

// fuzzCacheBlob exports a small cache blob with every section populated:
// three residue variants of one pole set checked in one Session leave a
// basis layer, an active σ layer and two stashed σ layers.
func fuzzCacheBlob(tb testing.TB) []byte {
	tb.Helper()
	base, err := repro.SyntheticMacromodel(repro.SyntheticModelOptions{Ports: 1, Poles: 2, Seed: 31, PeakGain: 1.2})
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := json.Marshal(base)
	if err != nil {
		tb.Fatal(err)
	}
	sess := repro.NewSession(repro.WithWorkers(1))
	opts := repro.CheckOptions{Method: repro.CheckSweep, SweepPoints: 2}
	for _, scale := range []float64{1, 1.01, 1.02} {
		// A variant shares the pole set and scales every residue.
		var mj map[string]json.RawMessage
		if err := json.Unmarshal(raw, &mj); err != nil {
			tb.Fatal(err)
		}
		var res [][][][2]float64
		if err := json.Unmarshal(mj["residues"], &res); err != nil {
			tb.Fatal(err)
		}
		for _, rm := range res {
			for i := range rm {
				for j := range rm[i] {
					rm[i][j][0] *= scale
					rm[i][j][1] *= scale
				}
			}
		}
		if mj["residues"], err = json.Marshal(res); err != nil {
			tb.Fatal(err)
		}
		vraw, err := json.Marshal(mj)
		if err != nil {
			tb.Fatal(err)
		}
		m := &repro.Macromodel{}
		if err := json.Unmarshal(vraw, m); err != nil {
			tb.Fatal(err)
		}
		if _, err := sess.Check(context.Background(), m, opts); err != nil {
			tb.Fatal(err)
		}
	}
	blob, err := sess.ExportCache(repro.PoleFingerprint(base))
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// FuzzCacheBlobFingerprint pins the verify-only admission check to the
// full parse: over valid blobs, truncations, bit flips and payload
// corruptions whose CRC footer has been recomputed, CacheBlobFingerprint
// must accept exactly the blobs ImportCache accepts, with the same
// fingerprint. Each input is a blob, one byte XOR-ed at pos, and whether
// the footer is then recomputed — so a mutation reaches the payload walk
// instead of stopping at the checksum.
func FuzzCacheBlobFingerprint(f *testing.F) {
	f.Add(fuzzCacheBlob(f), uint32(0), byte(0), false)
	crcTable := crc64.MakeTable(crc64.ECMA)
	f.Fuzz(func(t *testing.T, blob []byte, pos uint32, flip byte, recrc bool) {
		b := append([]byte(nil), blob...)
		if len(b) > 0 {
			b[pos%uint32(len(b))] ^= flip
		}
		if recrc && len(b) >= 8 {
			binary.LittleEndian.PutUint64(b[len(b)-8:], crc64.Checksum(b[:len(b)-8], crcTable))
		}
		fp, verr := repro.CacheBlobFingerprint(b)
		ifp, ierr := repro.NewSession().ImportCache(b)
		switch {
		case (verr == nil) != (ierr == nil):
			t.Fatalf("CacheBlobFingerprint err=%v, ImportCache err=%v", verr, ierr)
		case verr == nil && fp != ifp:
			t.Fatalf("CacheBlobFingerprint %016x, ImportCache %016x", fp, ifp)
		}
	})
}
