package cluster

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"sync"

	repro "repro"
)

// cacheStore is the coordinator's content-addressed warm-state store:
// validated Session cache blobs keyed by their own content (fingerprint +
// CRC-64 + length), one blob per fingerprint, under an LRU byte budget.
// Content addressing makes re-uploads of an unchanged cache free to
// store and lets a blob be shipped to any number of members without
// coordination. A newer upload for a fingerprint supersedes the older
// blob, which is dropped: its address then answers 404 and a lease still
// naming it runs cold, as after an eviction.
type cacheStore struct {
	mu     sync.Mutex
	byAddr map[string]*storeEntry
	byFP   map[uint64]*storeEntry
	lru    *list.List // of *storeEntry; front = most recent
	bytes  int64
	budget int64
}

type storeEntry struct {
	addr string
	fp   uint64
	blob []byte
	elem *list.Element
}

func newCacheStore(budget int64) *cacheStore {
	return &cacheStore{
		byAddr: make(map[string]*storeEntry),
		byFP:   make(map[uint64]*storeEntry),
		lru:    list.New(),
		budget: budget,
	}
}

// put validates blob as a well-formed checksummed cache file and stores
// it as its fingerprint's blob, returning its content address. A corrupt
// blob is rejected without storing anything — the caller quarantines
// (counts) it.
func (st *cacheStore) put(blob []byte) (addr string, fp uint64, err error) {
	fp, err = repro.CacheBlobFingerprint(blob)
	if err != nil {
		return "", 0, fmt.Errorf("cluster: corrupt cache upload: %w", err)
	}
	// The footer is the CRC-64 of everything before it, verified just now.
	crc := binary.LittleEndian.Uint64(blob[len(blob)-8:])
	addr = fmt.Sprintf("%016x-%016x-%d", fp, crc, len(blob))
	st.mu.Lock()
	defer st.mu.Unlock()
	if old := st.byFP[fp]; old != nil {
		if old.addr == addr {
			st.lru.MoveToFront(old.elem)
			return addr, fp, nil
		}
		st.removeLocked(old)
	}
	e := &storeEntry{addr: addr, fp: fp, blob: blob}
	e.elem = st.lru.PushFront(e)
	st.byAddr[addr] = e
	st.byFP[fp] = e
	st.bytes += int64(len(blob))
	for st.budget > 0 && st.bytes > st.budget && st.lru.Len() > 1 {
		st.removeLocked(st.lru.Back().Value.(*storeEntry))
	}
	return addr, fp, nil
}

// removeLocked drops one stored blob.
func (st *cacheStore) removeLocked(e *storeEntry) {
	st.lru.Remove(e.elem)
	delete(st.byAddr, e.addr)
	delete(st.byFP, e.fp)
	st.bytes -= int64(len(e.blob))
}

// get returns the blob at addr (nil when evicted, superseded or never
// stored).
func (st *cacheStore) get(addr string) []byte {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.byAddr[addr]
	if !ok {
		return nil
	}
	st.lru.MoveToFront(e.elem)
	return e.blob
}

// latestAddr returns the stored blob address for a fingerprint ("" when
// none survives the budget).
func (st *cacheStore) latestAddr(fp uint64) string {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e := st.byFP[fp]; e != nil {
		return e.addr
	}
	return ""
}

// stats reports the store's resident bytes and blob count (gauges).
func (st *cacheStore) stats() (bytes int64, blobs int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.bytes, st.lru.Len()
}
