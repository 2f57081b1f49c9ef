// Package invindex provides the inverted-index substrate shared by
// every filter-and-refine algorithm in this repository: posting lists
// keyed by partition-projection signatures, optional deletion-variant
// keys (used by HmSearch and PartAlloc to answer radius-1 probes from
// the data side), and byte-exact size accounting for the index-size
// experiments (paper Fig. 6). Indexes are built as maps (Index) and
// frozen into a compact arena layout (Frozen) that every query path
// probes.
package invindex

import (
	"sort"

	"gph/internal/bitvec"
)

// Index maps projection signatures (bitvec keys) to posting lists of
// vector ids. It is the append-only build-time form; once building
// completes, Freeze converts it into the compact immutable Frozen
// layout that queries probe and persistence serializes. Concurrent
// reads of an Index are safe once building completes.
type Index struct {
	post     map[string][]int32
	keyBytes int64 // total bytes across distinct keys
	postings int64 // total posting entries
}

// New returns an empty index.
func New() *Index {
	return &Index{post: make(map[string][]int32)}
}

// Add appends id to the posting list of key.
func (ix *Index) Add(key string, id int32) {
	lst, ok := ix.post[key]
	if !ok {
		ix.keyBytes += int64(len(key))
	}
	ix.post[key] = append(lst, id)
	ix.postings++
}

// Postings returns the posting list for key (nil when absent). The
// returned slice is owned by the index and must not be modified.
func (ix *Index) Postings(key string) []int32 { return ix.post[key] }

// PostingsBytes returns the posting list for the signature whose
// packed key bytes are key. The string conversion inside the map
// index expression is recognized by the compiler and does not copy,
// so probing with a reused byte buffer allocates nothing — the form
// query hot paths use.
func (ix *Index) PostingsBytes(key []byte) []int32 { return ix.post[string(key)] }

// PostingLen returns the length of the posting list for key without
// materializing it; this is the |I_s| term of the paper's cost model.
func (ix *Index) PostingLen(key string) int { return len(ix.post[key]) }

// DistinctKeys returns the number of distinct signatures indexed.
func (ix *Index) DistinctKeys() int { return len(ix.post) }

// TotalPostings returns the total number of (signature, id) pairs.
func (ix *Index) TotalPostings() int64 { return ix.postings }

// Range calls fn for every (key, postings) pair until fn returns
// false. Iteration order is unspecified.
func (ix *Index) Range(fn func(key string, ids []int32) bool) {
	//gphlint:ignore persistdet order-agnostic visitor; the persistence codec iterates via SortedKeys
	for k, v := range ix.post {
		if !fn(k, v) {
			return
		}
	}
}

// SortedKeys returns all keys in lexicographic order; used by the
// persistence codec so that serialized indexes are byte-reproducible.
func (ix *Index) SortedKeys() []string {
	keys := make([]string, 0, len(ix.post))
	for k := range ix.post {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// DeletionVariantKey builds the key for signature sig with dimension j
// "deleted" (replaced by a wildcard): one byte encoding j followed by
// the signature with bit j cleared. Two signatures within Hamming
// distance 1 that differ exactly at j share this key; equal signatures
// share every deletion key as well as the exact key.
//
// Partitions are always far narrower than 256 dimensions (they shrink
// as 1/m of n), so a single byte suffices for j.
func DeletionVariantKey(sig bitvec.Vector, j int) string {
	masked := sig.Clone()
	masked.Clear(j)
	b := make([]byte, 0, 1+8*len(sig.Words()))
	b = append(b, byte(j))
	b = masked.AppendKey(b)
	return string(b)
}

// AddWithDeletionVariants indexes sig under its exact key and all w
// deletion-variant keys. This is the data-side enumeration strategy of
// HmSearch and PartAlloc; it multiplies index size by roughly the
// partition width, which Fig. 6 measures.
func (ix *Index) AddWithDeletionVariants(sig bitvec.Vector, id int32) {
	ix.Add(sig.Key(), id)
	for j := 0; j < sig.Dims(); j++ {
		ix.Add(DeletionVariantKey(sig, j), id)
	}
}

// CollectRadius1 gathers the ids of all indexed signatures within
// Hamming distance 1 of sig, assuming the index was built with
// AddWithDeletionVariants. Results may contain duplicates (an id can
// match several variant keys); callers dedupe via their candidate
// bitmap exactly as they do for multi-partition hits. fn ends the probe
// by returning false.
func (ix *Index) CollectRadius1(sig bitvec.Vector, fn func(id int32) bool) {
	var s Radius1Scratch
	ix.CollectRadius1Scratch(sig, &s, fn)
}

// Radius1Scratch holds the reusable buffers of CollectRadius1Scratch:
// a masked copy of the probe signature and the packed key buffer. The
// zero value is ready to use; pooling one per query removes every
// per-variant key allocation from the radius-1 probe path.
type Radius1Scratch struct {
	masked bitvec.Vector
	keyBuf []byte
}

// CollectRadius1Scratch is CollectRadius1 with caller-provided scratch
// buffers: after warm-up it performs no allocations — variant keys are
// built into the reused buffer and probed through the allocation-free
// byte-key map lookup.
func (ix *Index) CollectRadius1Scratch(sig bitvec.Vector, s *Radius1Scratch, fn func(id int32) bool) {
	s.keyBuf = sig.AppendKey(s.keyBuf[:0])
	for _, id := range ix.PostingsBytes(s.keyBuf) {
		if !fn(id) {
			return
		}
	}
	s.masked = sig.CloneInto(s.masked)
	for j := 0; j < sig.Dims(); j++ {
		set := sig.Bit(j) == 1
		if set {
			s.masked.Clear(j)
		}
		s.keyBuf = append(s.keyBuf[:0], byte(j))
		s.keyBuf = s.masked.AppendKey(s.keyBuf)
		for _, id := range ix.PostingsBytes(s.keyBuf) {
			if !fn(id) {
				return
			}
		}
		if set {
			s.masked.Set(j)
		}
	}
}
