package placement

import (
	"testing"
)

// TestPlaceTiers walks the three placement tiers: least-loaded warm
// candidate, least-loaded candidate (first on a tie), then the recorded
// owner for as long as it stays a candidate.
func TestPlaceTiers(t *testing.T) {
	warm := map[[2]uint64]bool{{2, 7}: true, {3, 7}: true}
	tb := New(Affinity, 0, func(o int, fp uint64) bool { return warm[[2]uint64{uint64(o), fp}] })
	cands := []Candidate[int]{{0, 5}, {1, 1}, {2, 4}, {3, 3}}
	if o, hit, ok := tb.Place(7, cands); !ok || !hit || o != 3 {
		t.Fatalf("warm tier: got %d hit=%v ok=%v, want least-loaded warm owner 3", o, hit, ok)
	}
	if o, hit, _ := tb.Place(9, cands); hit || o != 1 {
		t.Fatalf("cold tier: got %d hit=%v, want least-loaded owner 1", o, hit)
	}
	if o, _, _ := tb.Place(11, []Candidate[int]{{4, 2}, {5, 2}}); o != 4 {
		t.Fatalf("tie: got %d, want the first candidate 4", o)
	}
	cands[3].Load = 0
	if o, hit, _ := tb.Place(9, cands); !hit || o != 1 {
		t.Fatalf("recorded tier: got %d hit=%v, want recorded owner 1", o, hit)
	}
	if o, _, _ := tb.Place(9, []Candidate[int]{{0, 0}, {2, 0}}); o != 0 {
		t.Fatalf("excluded recorded owner: got %d, want 0", o)
	}
	tb.Forget(0)
	if _, ok := tb.Owner(9); ok {
		t.Fatal("Forget left a placement on the forgotten owner")
	}
	if _, hit, ok := tb.Place(1, nil); hit || ok {
		t.Fatal("placement without candidates succeeded")
	}
}

// TestRecordKeepsWarmEntries fills a bounded table and checks that the
// eviction sheds cold entries before warm ones.
func TestRecordKeepsWarmEntries(t *testing.T) {
	tb := New(Affinity, 0, func(o int, fp uint64) bool { return fp%2 == 0 })
	tb.max = 4
	for fp := uint64(0); fp < 4; fp++ {
		tb.Record(fp, int(fp))
	}
	tb.Record(10, 1)
	if tb.Len() > 4 {
		t.Fatalf("table holds %d entries, bound 4", tb.Len())
	}
	for _, fp := range []uint64{0, 2, 10} {
		if _, ok := tb.Owner(fp); !ok {
			t.Errorf("warm or new entry %d was evicted", fp)
		}
	}
}

// FuzzPlace drives a bounded table through a byte-coded sequence of
// place, record and forget operations over a small owner and fingerprint
// space, checking after every operation that Place returns only offered
// (live, non-excluded) owners, returns the recorded owner while it is
// offered, and that the table never outgrows its bound; a second table
// under the Random policy replays the sequence twice from one seed and
// must draw identically.
func FuzzPlace(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{0x10, 0x21, 0x32, 0x43, 0x54, 0x65, 0x76, 0x87, 0x98, 0xa9})
	f.Add([]byte{0xff, 0x00, 0xfe, 0x01, 0xfd, 0x02, 0xfc, 0x03})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const owners, bound = 6, 5
		var dead [owners]bool
		var load [owners]int64
		warm := make(map[[2]uint64]bool)
		tb := New(Affinity, 0, func(o int, fp uint64) bool {
			return !dead[o] && warm[[2]uint64{uint64(o), fp}]
		})
		tb.max = bound
		random := func(seed int64) []int {
			r := New[int](Random, seed, func(int, uint64) bool { return false })
			var draws []int
			for i := 0; i+1 < len(ops); i += 2 {
				o, _, _ := r.Place(uint64(ops[i]%13), []Candidate[int]{{0, 0}, {1, 0}, {2, 0}, {3, 0}})
				draws = append(draws, o)
			}
			return draws
		}
		a, b := random(int64(len(ops))), random(int64(len(ops)))
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("random draw %d differs between replays: %d vs %d", i, a[i], b[i])
			}
		}

		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			fp := uint64(arg % 13)
			owner := int(arg>>4) % owners
			switch op % 5 {
			case 0, 1: // place, excluding owner when op says so
				exclude := -1
				if op&0x10 != 0 {
					exclude = owner
				}
				var cands []Candidate[int]
				for o := 0; o < owners; o++ {
					if !dead[o] && o != exclude {
						cands = append(cands, Candidate[int]{Owner: o, Load: load[o]})
					}
				}
				rec, recorded := tb.Owner(fp)
				got, hit, ok := tb.Place(fp, cands)
				if ok != (len(cands) > 0) {
					t.Fatalf("op %d: ok=%v with %d candidates", i, ok, len(cands))
				}
				if !ok {
					break
				}
				if got == exclude || dead[got] {
					t.Fatalf("op %d: placed %016x on excluded or dead owner %d", i, fp, got)
				}
				if recorded && rec != exclude && !dead[rec] && (got != rec || !hit) {
					t.Fatalf("op %d: recorded owner %d is eligible, placed on %d (hit=%v)", i, rec, got, hit)
				}
				if o, _ := tb.Owner(fp); o != got {
					t.Fatalf("op %d: placement of %016x not recorded", i, fp)
				}
				load[got]++
			case 2: // the owner now holds fp warm (an import, a finished job)
				if !dead[owner] {
					warm[[2]uint64{uint64(owner), fp}] = true
					tb.Record(fp, owner)
				}
			case 3: // the owner dies (retired worker, evicted member)
				dead[owner] = true
				tb.Forget(owner)
				if o, ok := tb.Owner(fp); ok && o == owner {
					t.Fatalf("op %d: Forget(%d) left a placement", i, owner)
				}
			case 4: // it comes back cold
				dead[owner] = false
				for k := range warm {
					if k[0] == uint64(owner) {
						delete(warm, k)
					}
				}
			}
			if tb.Len() > bound {
				t.Fatalf("op %d: table holds %d entries, bound %d", i, tb.Len(), bound)
			}
		}
	})
}
