package passivity

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
)

// EvalCache persistence: a versioned little-endian binary stream holding
// both cache layers and the warm-start seeds, so a library service can
// save the per-frequency work of a sweep and start the next run warm
// (the Session layer wraps this with pole-set fingerprints and a file
// per model). Basis entries are written coldest → warmest; reloading
// replays them in that order, which reproduces the LRU recency exactly.
//
// The active σ layer is only valid for the exact residues it was computed
// from — the caller (Session) guards it with a residue fingerprint and
// parks it in the per-variant stash (SwapSigma) on mismatch; stashed
// layers are persisted with their keys so a reloaded cache keeps serving
// every variant of the sweep warm. The basis layer depends on the poles
// alone. The hot-seed list is persisted for snapshot fidelity (Save/Load
// round-trips the whole cache), but note the Session layer clears hot
// seeds at every checkout to keep session-routed sampling identical to
// stateless sampling, so loaded seeds only matter to direct EvalCache
// users.

const (
	cacheMagic   = 0x45564143 // "EVAC"
	cacheVersion = 2          // v2 appends the stashed σ layers
	// cacheMaxCount caps every persisted collection length, rejecting
	// corrupt or hostile streams before any allocation.
	cacheMaxCount = 1 << 28
	// cacheMaxPrealloc caps how many elements a loader reserves on the
	// strength of a stream's own count: a count within cacheMaxCount can
	// still describe gigabytes the stream does not hold, so larger
	// collections grow as their elements actually arrive.
	cacheMaxPrealloc = 1 << 16
)

// ErrCacheFormat reports a malformed or incompatible persisted cache.
var ErrCacheFormat = fmt.Errorf("passivity: malformed eval-cache stream")

// SigmaEntries returns the number of σ samples in the active layer;
// parked variant layers are counted by StashedSigmaEntries.
func (c *EvalCache) SigmaEntries() int { return len(c.sigma) }

// Save writes the cache (basis layer in LRU order, σ layer, hot seeds,
// LRU bound) to w in the versioned binary format read by LoadEvalCache.
func (c *EvalCache) Save(dst io.Writer) error {
	bw := bufio.NewWriter(dst)
	le := binary.LittleEndian
	var scratch [8]byte
	u64 := func(v uint64) error {
		le.PutUint64(scratch[:], v)
		_, err := bw.Write(scratch[:])
		return err
	}
	f64 := func(v float64) error { return u64(math.Float64bits(v)) }
	var scratch4 [4]byte
	u32 := func(v uint32) error {
		le.PutUint32(scratch4[:], v)
		_, err := bw.Write(scratch4[:])
		return err
	}
	if err := u32(cacheMagic); err != nil {
		return err
	}
	if err := u32(cacheVersion); err != nil {
		return err
	}
	if err := u64(uint64(int64(c.MaxEntries))); err != nil {
		return err
	}
	// Basis layer, coldest first so the reload replays the recency order.
	if err := u64(uint64(len(c.basis))); err != nil {
		return err
	}
	for e := c.tail; e != nil; e = e.prev {
		if err := f64(e.omega); err != nil {
			return err
		}
		if err := u64(uint64(len(e.k))); err != nil {
			return err
		}
		for _, z := range e.k {
			if err := f64(real(z)); err != nil {
				return err
			}
			if err := f64(imag(z)); err != nil {
				return err
			}
		}
	}
	// σ layer, sorted by frequency for a deterministic stream.
	sws := c.sigmaFreqsSorted()
	if err := u64(uint64(len(sws))); err != nil {
		return err
	}
	for _, w := range sws {
		if err := f64(w); err != nil {
			return err
		}
		if err := f64(c.sigma[w]); err != nil {
			return err
		}
	}
	if err := u64(uint64(len(c.hot))); err != nil {
		return err
	}
	for _, w := range c.hot {
		if err := f64(w); err != nil {
			return err
		}
	}
	// Stashed σ layers, oldest first so the reload replays the parking
	// order; entries sorted by frequency for a deterministic stream.
	if err := u64(uint64(len(c.stashOrder))); err != nil {
		return err
	}
	for _, key := range c.stashOrder {
		layer := c.stash[key]
		if err := u64(key); err != nil {
			return err
		}
		if err := u64(uint64(len(layer))); err != nil {
			return err
		}
		ws := make([]float64, 0, len(layer))
		for w := range layer {
			ws = append(ws, w)
		}
		sort.Float64s(ws)
		for _, w := range ws {
			if err := f64(w); err != nil {
				return err
			}
			if err := f64(layer[w]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// LoadEvalCache reads a cache persisted by Save. The returned cache is
// ready for use; its hit/miss/eviction counters start at zero.
func LoadEvalCache(r io.Reader) (*EvalCache, error) {
	br := bufio.NewReader(r)
	le := binary.LittleEndian
	var scratch [8]byte
	u64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, scratch[:]); err != nil {
			return 0, err
		}
		return le.Uint64(scratch[:]), nil
	}
	f64 := func() (float64, error) {
		v, err := u64()
		return math.Float64frombits(v), err
	}
	count := func() (int, error) {
		v, err := u64()
		if err != nil {
			return 0, err
		}
		if v > cacheMaxCount {
			return 0, fmt.Errorf("%w: count %d exceeds limit", ErrCacheFormat, v)
		}
		return int(v), nil
	}
	var scratch4 [4]byte
	u32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, scratch4[:]); err != nil {
			return 0, err
		}
		return le.Uint32(scratch4[:]), nil
	}
	if magic, err := u32(); err != nil {
		return nil, err
	} else if magic != cacheMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCacheFormat, magic)
	}
	if version, err := u32(); err != nil {
		return nil, err
	} else if version != cacheVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCacheFormat, version)
	}
	c := NewEvalCache()
	maxEntries, err := u64()
	if err != nil {
		return nil, err
	}
	c.MaxEntries = int(int64(maxEntries))
	nBasis, err := count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < nBasis; i++ {
		w, err := f64()
		if err != nil {
			return nil, err
		}
		klen, err := count()
		if err != nil {
			return nil, err
		}
		k := make([]complex128, 0, min(klen, cacheMaxPrealloc))
		for j := 0; j < klen; j++ {
			re, err := f64()
			if err != nil {
				return nil, err
			}
			im, err := f64()
			if err != nil {
				return nil, err
			}
			k = append(k, complex(re, im))
		}
		c.storeBasis(w, k)
	}
	nSigma, err := count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < nSigma; i++ {
		w, err := f64()
		if err != nil {
			return nil, err
		}
		s, err := f64()
		if err != nil {
			return nil, err
		}
		// A σ value is only admitted alongside its basis entry, keeping the
		// two-layer residency invariant of the live cache.
		if _, ok := c.basis[w]; ok {
			c.sigma[w] = s
		}
	}
	nHot, err := count()
	if err != nil {
		return nil, err
	}
	hot := make([]float64, 0, min(nHot, cacheMaxPrealloc))
	for i := 0; i < nHot; i++ {
		w, err := f64()
		if err != nil {
			return nil, err
		}
		hot = append(hot, w)
	}
	c.hot = hot
	nStash, err := count()
	if err != nil {
		return nil, err
	}
	if nStash > 0 {
		c.stash = make(map[uint64]map[float64]float64, min(nStash, maxSigmaStash))
	}
	for i := 0; i < nStash; i++ {
		key, err := u64()
		if err != nil {
			return nil, err
		}
		nLayer, err := count()
		if err != nil {
			return nil, err
		}
		layer := make(map[float64]float64, min(nLayer, cacheMaxPrealloc))
		for j := 0; j < nLayer; j++ {
			w, err := f64()
			if err != nil {
				return nil, err
			}
			s, err := f64()
			if err != nil {
				return nil, err
			}
			layer[w] = s
		}
		if _, dup := c.stash[key]; dup {
			return nil, fmt.Errorf("%w: duplicate stash key %016x", ErrCacheFormat, key)
		}
		c.stash[key] = layer
		c.stashOrder = append(c.stashOrder, key)
	}
	if len(c.stashOrder) > maxSigmaStash {
		return nil, fmt.Errorf("%w: %d stashed layers exceeds limit", ErrCacheFormat, len(c.stashOrder))
	}
	// Replaying storeBasis counts LRU-bound evictions of an over-full
	// stream as if they happened live; reset the counters so a freshly
	// loaded cache reports only what happens after the load.
	c.SigmaHits, c.SigmaMisses, c.Evictions = 0, 0, 0
	return c, nil
}

// VerifyEvalCache checks that b is a stream LoadEvalCache accepts,
// without building the cache: it walks every count and length of the
// stream in place and allocates nothing. It rejects exactly the streams
// LoadEvalCache rejects — a bad magic or version, a count over the
// limit, a length past the end of b, a duplicate stash key, more than
// the stash bound of stashed layers — and, like LoadEvalCache, ignores
// bytes after the last layer. Stores that only route or address a
// persisted cache use it as their admission check; the receiver that
// installs the cache still runs LoadEvalCache.
func VerifyEvalCache(b []byte) error {
	le := binary.LittleEndian
	pos := 0
	// skip advances past n elements of size bytes each, failing when b
	// does not hold them.
	skip := func(n, size int) error {
		if n > (len(b)-pos)/size {
			return fmt.Errorf("%w: truncated at byte %d", io.ErrUnexpectedEOF, pos)
		}
		pos += n * size
		return nil
	}
	u64 := func() (uint64, error) {
		if len(b)-pos < 8 {
			return 0, fmt.Errorf("%w: truncated at byte %d", io.ErrUnexpectedEOF, pos)
		}
		v := le.Uint64(b[pos:])
		pos += 8
		return v, nil
	}
	count := func() (int, error) {
		v, err := u64()
		if err != nil {
			return 0, err
		}
		if v > cacheMaxCount {
			return 0, fmt.Errorf("%w: count %d exceeds limit", ErrCacheFormat, v)
		}
		return int(v), nil
	}
	if len(b) < 8 {
		return fmt.Errorf("%w: truncated header", io.ErrUnexpectedEOF)
	}
	if magic := le.Uint32(b); magic != cacheMagic {
		return fmt.Errorf("%w: bad magic %#x", ErrCacheFormat, magic)
	}
	if version := le.Uint32(b[4:]); version != cacheVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrCacheFormat, version)
	}
	pos = 8
	if _, err := u64(); err != nil { // MaxEntries: any value loads
		return err
	}
	nBasis, err := count()
	if err != nil {
		return err
	}
	for i := 0; i < nBasis; i++ {
		if err := skip(1, 8); err != nil { // ω
			return err
		}
		klen, err := count()
		if err != nil {
			return err
		}
		if err := skip(klen, 16); err != nil {
			return err
		}
	}
	for _, size := range []int{16, 8} { // σ layer (ω, σ) pairs, then hot seeds
		n, err := count()
		if err != nil {
			return err
		}
		if err := skip(n, size); err != nil {
			return err
		}
	}
	nStash, err := count()
	if err != nil {
		return err
	}
	if nStash > maxSigmaStash {
		// LoadEvalCache fails such a stream too — on truncation, on a
		// duplicate key or on the bound after the last layer.
		return fmt.Errorf("%w: %d stashed layers exceeds limit", ErrCacheFormat, nStash)
	}
	var keys [maxSigmaStash]uint64
	for i := 0; i < nStash; i++ {
		key, err := u64()
		if err != nil {
			return err
		}
		nLayer, err := count()
		if err != nil {
			return err
		}
		if err := skip(nLayer, 16); err != nil {
			return err
		}
		for _, k := range keys[:i] {
			if k == key {
				return fmt.Errorf("%w: duplicate stash key %016x", ErrCacheFormat, key)
			}
		}
		keys[i] = key
	}
	return nil
}

// sortedBasisFreqs is a test hook: the resident basis frequencies in
// ascending order.
func (c *EvalCache) sortedBasisFreqs() []float64 {
	out := make([]float64, 0, len(c.basis))
	for w := range c.basis {
		out = append(out, w)
	}
	sort.Float64s(out)
	return out
}
