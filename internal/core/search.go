package core

import (
	"fmt"
	"iter"
	"slices"
	"time"

	"gph/internal/alloc"
	"gph/internal/bitvec"
	"gph/internal/candest"
	"gph/internal/engine"
	"gph/internal/hamming"
	"gph/internal/invindex"
)

// Stats decomposes one query's work the way Fig. 2(a) reports it:
// threshold allocation (including CN estimation), the fused signature
// enumeration + index-probe loop (candidate generation), and
// verification. The struct itself lives in internal/engine — it is the
// single stats type every engine reports; GPH is the engine that fills
// every field.
type Stats = engine.Stats

// searchScratch is every buffer one query needs. Instances are pooled
// on the Index, so after warm-up the hot path performs no per-query
// or per-signature allocations beyond the returned result slice.
type searchScratch struct {
	seen   []uint64 // candidate-dedup bitmap, one bit per data vector
	keyBuf []byte   // packed signature key, rebuilt per signature
	post   []int32  // decoded posting list, rebuilt per signature
	cands  []int32  // distinct candidate ids in probe order
	enum   hamming.Enumerator

	// The bound query and its allocation state (allocate.go): q's
	// projection onto each partition, the lazily refined CN table with
	// each row's exact radius, and what refining it took.
	q      bitvec.Vector
	projs  []bitvec.Vector
	widths []int
	table  alloc.Table
	known  []int
	dp     alloc.Scratch   // reused DP grids for the allocator
	est    candest.Scratch // reused estimator projection + histogram
	shell  []int64         // posting-length sums by distance, per probed ball
	center bitvec.Vector   // centre of the ball being probed
	rounds int             // DP runs
	scans  int             // rows estimated in full

	// enumeration-callback state: probeFn and shellFn are bound once per
	// scratch (a method value allocates on every binding, so rebinding
	// per partition would defeat the pool).
	inv     *invindex.Frozen
	sigs    int
	sumPost int64
	probeFn func(bitvec.Vector) bool
	shellFn func(bitvec.Vector) bool
}

// probe consumes one enumerated signature: build its packed key,
// decode the matching delta-varint posting list into the pooled
// scratch, and merge it into the candidate set. The frozen lookup
// hashes and compares the byte key against the arena directly, so the
// whole step is allocation-free after warm-up.
//
//gph:hotpath
func (s *searchScratch) probe(v bitvec.Vector) bool {
	s.keyBuf = v.AppendKey(s.keyBuf[:0])
	s.post = s.inv.AppendPostingsBytes(s.keyBuf, s.post[:0])
	s.sigs++
	s.sumPost += int64(len(s.post))
	for _, id := range s.post {
		w, b := id/64, uint(id)%64
		if s.seen[w]>>b&1 == 0 {
			s.seen[w] |= 1 << b
			s.cands = append(s.cands, id)
		}
	}
	return true
}

// getScratch hands a pooled scratch to the caller, who owes it
// back to the pool on every path out.
//
//gph:transfer scratch
func (ix *Index) getScratch() *searchScratch {
	s, _ := ix.scratch.Get().(*searchScratch)
	if s == nil {
		s = &searchScratch{}
		//gphlint:ignore hotpath one-time binding on pool miss; rebinding per query would allocate
		s.probeFn, s.shellFn = s.probe, s.sumShell
	}
	words := (ix.count + 63) / 64
	if cap(s.seen) < words {
		s.seen = make([]uint64, words)
	} else {
		s.seen = s.seen[:words]
		clear(s.seen)
	}
	s.cands = s.cands[:0]
	s.sigs = 0
	s.sumPost = 0
	return s
}

// putScratch returns a scratch to the pool.
//
//gph:release scratch
func (ix *Index) putScratch(s *searchScratch) {
	s.inv = nil
	s.q = bitvec.Vector{} // the caller's memory, not the pool's
	ix.scratch.Put(s)
}

// Search returns the ids of all indexed vectors within Hamming
// distance tau of q, in ascending id order.
func (ix *Index) Search(q bitvec.Vector, tau int) ([]int32, error) {
	if err := ix.ensureValidated(); err != nil {
		return nil, err
	}
	ids, _, err := ix.search(q, tau, false)
	return ids, err
}

// SearchStats is Search with per-phase instrumentation.
func (ix *Index) SearchStats(q bitvec.Vector, tau int) ([]int32, *Stats, error) {
	if err := ix.ensureValidated(); err != nil {
		return nil, nil, err
	}
	return ix.search(q, tau, true)
}

// ErrInvalidQuery marks errors caused by the caller's query input
// (wrong dimensionality, negative threshold) rather than an internal
// failure; servers use errors.Is to map the former to client errors.
// It is the engine layer's shared sentinel, so the classification is
// identical across every registered engine.
var ErrInvalidQuery = engine.ErrInvalidQuery

// search is the GPH query pipeline: threshold allocation, signature
// enumeration with fused probing (gather), then batch verification
// over the packed arena. It is the engine's per-query hot path —
// after warm-up the only allocation is the caller-owned result slice.
//
//gph:hotpath
func (ix *Index) search(q bitvec.Vector, tau int, wantStats bool) ([]int32, *Stats, error) {
	if err := engine.CheckQuery(q, ix.dims, tau); err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	var stats Stats
	if tau >= ix.dims {
		// The ball covers the whole space; every vector matches.
		out := make([]int32, ix.count)
		for i := range out {
			out[i] = int32(i)
		}
		stats.Results = len(out)
		stats.Candidates = len(out)
		return out, reportStats(&stats, wantStats), nil
	}

	// The scratch is returned to the pool explicitly on every exit
	// (not deferred: this function is the hot path, and defer adds
	// per-call overhead the benchmarks would charge to every query).
	s := ix.getScratch()
	scanned, err := ix.gather(q, tau, s, &stats)
	if err != nil {
		ix.putScratch(s)
		return nil, nil, err
	}
	if scanned {
		start := time.Now()
		out := ix.codes.AppendWithin(q, tau, make([]int32, 0, 64))
		stats.VerifyNanos = time.Since(start).Nanoseconds()
		stats.Candidates = ix.count
		stats.Results = len(out)
		stats.Scanned = true
		report := reportStats(&stats, wantStats)
		ix.putScratch(s)
		return out, report, nil
	}

	// Phase 4: batch verification on the packed arena, in place over
	// the pooled candidate slice; survivors are sorted and copied into
	// an exact-size result the caller owns.
	start := time.Now()
	results := ix.codes.FilterWithin(q, tau, s.cands)
	slices.Sort(results)
	out := make([]int32, len(results))
	copy(out, results)
	stats.VerifyNanos = time.Since(start).Nanoseconds()
	stats.Results = len(out)
	report := reportStats(&stats, wantStats)
	ix.putScratch(s)
	return out, report, nil
}

// reportStats returns a heap copy of the query's stats that the caller
// may keep — the threshold vector copied out of the pooled scratch it
// aliases, so call it before putScratch — or nil when the caller did
// not ask for stats, in which case the query allocated nothing for
// them.
func reportStats(stats *Stats, want bool) *Stats {
	if !want {
		return nil
	}
	out := *stats
	out.Thresholds = slices.Clone(stats.Thresholds)
	return &out
}

// gather runs phases 1–3 of the pipeline into s: threshold allocation
// (Algorithm 1) over estimated CNs, the scan-guard decision, and the
// fused enumerate+probe loop that fills s.cands with deduplicated
// candidate ids. It reports scanned=true (with no candidates
// generated) when every valid allocation costs more than verifying
// the whole collection. stats.Thresholds aliases the scratch. Shared
// by Search, SearchIter and SearchGrow, which calls it once per radius
// on one scratch.
//
//gph:hotpath
func (ix *Index) gather(q bitvec.Vector, tau int, s *searchScratch, stats *Stats) (scanned bool, err error) {
	// Phase 1: threshold allocation. The RR baseline skips estimation
	// entirely — that is the point of the comparison in Fig. 3.
	start := time.Now()
	res := ix.allocate(q, tau, s)
	stats.AllocNanos = time.Since(start).Nanoseconds()
	stats.Thresholds = res.Thresholds
	stats.EstimatedCN = res.SumCN
	stats.AllocRounds = s.rounds
	stats.CNScans = s.scans

	// Scan guard: when every valid allocation costs more than verifying
	// the whole collection (tiny collections or τ near the index's
	// useful range), the honest plan is a scan. The cost units match
	// Eq. 1 with verification ≈ 4 posting accesses.
	scanCost := int64(ix.count) * 4
	if res.Fallback || (res.Thresholds != nil && ix.opts.Allocator == AllocDP && res.Objective > scanCost) {
		return true, nil
	}
	enumBudget := res.EffectiveBudget // 0 (unlimited) for RR and unbudgeted configs

	// Phases 2+3 fused: per partition, enumerate the signature ball
	// and probe the inverted index with each signature's byte key as
	// it is produced. Nothing is materialized per signature — no key
	// string, no signature slice — which is what makes the loop
	// allocation-free.
	start = time.Now()
	for i, ti := range res.Thresholds {
		if ti < 0 {
			continue
		}
		s.inv = ix.inv[i]
		if err := s.enum.Enumerate(s.projs[i], ti, enumBudget, s.probeFn); err != nil {
			return false, fmt.Errorf("core: partition %d with threshold %d: %w", i, ti, err)
		}
	}
	stats.ProbeNanos = time.Since(start).Nanoseconds()
	stats.Signatures = s.sigs
	stats.SumPostings = s.sumPost
	stats.Candidates = len(s.cands)
	return false, nil
}

// SearchIter implements engine.Streamer: the same pipeline as Search,
// but results are yielded in ascending id order as their verification
// blocks complete, so the first result arrives after candidate
// generation plus one block of batch verification instead of after
// the full refine phase. Draining the stream yields exactly the ids
// Search returns; see engine.Streamer for the sequence contract.
func (ix *Index) SearchIter(q bitvec.Vector, tau int) iter.Seq2[engine.Neighbor, error] {
	return func(yield func(engine.Neighbor, error) bool) {
		if err := ix.ensureValidated(); err != nil {
			yield(engine.Neighbor{}, err)
			return
		}
		if err := engine.CheckQuery(q, ix.dims, tau); err != nil {
			yield(engine.Neighbor{}, fmt.Errorf("core: %w", err))
			return
		}
		if tau >= ix.dims {
			// The ball covers the whole space: stream the scan (every
			// row matches, distances come from the arena).
			engine.StreamScan(ix.codes, q, tau, yield)
			return
		}
		s := ix.getScratch()
		var stats Stats
		scanned, err := ix.gather(q, tau, s, &stats)
		if err != nil {
			ix.putScratch(s)
			yield(engine.Neighbor{}, err)
			return
		}
		if scanned {
			ix.putScratch(s)
			engine.StreamScan(ix.codes, q, tau, yield)
			return
		}
		engine.StreamVerified(ix.codes, q, tau, s.cands, yield)
		ix.putScratch(s)
	}
}

// SearchBatch answers many queries concurrently using up to
// parallelism workers (≤ 0 selects GOMAXPROCS). Results align with
// queries by position. A failing query does not abort its siblings:
// its slot is nil, every other slot holds that query's results, and
// the returned error joins every per-query failure (nil when all
// succeed).
func (ix *Index) SearchBatch(queries []bitvec.Vector, tau int, parallelism int) ([][]int32, error) {
	return engine.BatchSearch(queries, parallelism, func(q bitvec.Vector) ([]int32, error) {
		return ix.Search(q, tau)
	})
}
