package core

import (
	"fmt"
	"iter"
	"slices"
	"time"

	"gph/internal/alloc"
	"gph/internal/bitvec"
	"gph/internal/cpu"
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
	cand   invindex.IDSet // dedup bitmap, one bit per data vector, and the distinct candidate ids
	keyBuf []byte         // packed signature key of a partition wider than a word
	enum   hamming.Enumerator

	// The bound query and its allocation state (allocate.go): q's
	// projection onto each partition, the lazily refined CN table with
	// each row's exact radius, and what refining it took.
	q      bitvec.Vector
	arena  []uint64        // what the index's projector writes (bindQuery)
	projs  []bitvec.Vector // views over arena, a partition each
	widths []int
	gen    [][]int64     // per partition, the price of collecting a ball (priceGeneration)
	table  alloc.Table   // once fitted (fitRows), table[i][e+1]: CN(qᵢ, e), exact through known[i], a lower bound past it
	known  []int         // −1 for a row not started
	rows   []alloc.Start // each row as a selection reads it (startIncrements)
	dp     alloc.Scratch // reused DP grids, the ball-size memo and the cost rows' signature term
	hist   []int64       // distance histogram of a scanned partition's keys
	shell  []int64       // posting-length sums by distance, per probed ball
	center bitvec.Vector // centre of the ball being summed (sumShell)
	rounds int           // DP runs
	scans  int           // rows estimated in full

	// Row starts (startRows): per partition, the frozen index of one whose
	// e = 0 cell is a one-word lookup (nil for the others), the word looked
	// up, and what the lookup found — the entry number (−1 for none,
	// noStart before the lookup), kept for generate, and its posting count.
	startInv    []*invindex.Frozen
	startWords  []uint64
	starts      []int32
	startCounts []uint32

	// What refining rows took: posting-length probes, and keys passed
	// over by the histogram scans.
	cnProbes, cnKeys int

	// What candidate generation did, summed over the gather calls on
	// this scratch (SearchGrow makes one per radius).
	sigs        int   // signatures probed, or collected from a kept row-start entry
	keyScans    int   // partitions answered by a key-arena pass
	keysScanned int   // keys compared in those passes
	sumPost     int64 // postings decoded

	// Enumeration callbacks for partitions wider than a word: probeFn
	// and shellFn are bound once per scratch (a method value allocates
	// on every binding, so rebinding per partition would defeat the
	// pool); inv is the partition they are probing.
	inv     *invindex.Frozen
	probeFn func(bitvec.Vector) bool
	shellFn func(bitvec.Vector) bool
}

// probe consumes one enumerated signature of a partition wider than a
// word: build its packed key and merge the matching posting list into
// the candidate set. The frozen lookup hashes and compares the byte key
// against the arena directly, so the whole step is allocation-free
// after warm-up.
//
//gph:hotpath
func (s *searchScratch) probe(v bitvec.Vector) bool {
	s.keyBuf = v.AppendKey(s.keyBuf[:0])
	s.sumPost += int64(s.inv.CollectBytes(s.keyBuf, &s.cand))
	s.sigs++
	return true
}

// probeBall collects partition i's candidates at threshold t the
// paper's way: enumerate ball(wᵢ, t) around the query's projection and
// probe the partition's index with every signature. A partition of 1 to 64
// bits — every default build — is walked and probed as a word; wider
// (and empty) ones go through the vector enumerator and its callback.
// extendRow makes the same split, and both start the walk in place: a
// helper handing the 96-byte walk back measured 0.3 µs over the nine
// balls of a selective query. (Those nine are point balls, which
// generate now collects from the entries startRows kept; what comes
// here is every ball of radius ≥ 1, and a point ball with no kept entry.)
//
//gph:hotpath
func (ix *Index) probeBall(i, t int, s *searchScratch) {
	inv, w := ix.inv[i], s.widths[i]
	if w == 0 || w > 64 {
		s.inv = inv
		// Unbudgeted enumeration cannot fail.
		_ = s.enum.Enumerate(s.projs[i], t, 0, s.probeFn)
		return
	}
	var sum, sigs int
	b := hamming.NewWordBall(s.projs[i].Words()[0], w, t)
	for ok := true; ok; ok = b.Next() {
		sum += inv.CollectWord(b.Sig, &s.cand)
		sigs++
	}
	s.sumPost += int64(sum)
	s.sigs += sigs
}

// scanKeys collects the same candidates from the other side: one pass
// over partition i's key arena, keeping every key within t of the
// query's projection. Both are {ids whose projection lies within t of
// qᵢ}; which one runs is genPrice's call.
//
//gph:hotpath
func (ix *Index) scanKeys(i, t int, s *searchScratch) {
	inv := ix.inv[i]
	s.sumPost += inv.CollectWithin(s.projs[i].Words(), t, &s.cand)
	s.keyScans++
	s.keysScanned += inv.NumKeys()
}

// getScratch hands a pooled scratch to the caller, who owes it
// back to the pool on every path out.
func (ix *Index) getScratch() *searchScratch {
	s, _ := ix.scratch.Get().(*searchScratch)
	if s == nil {
		s = &searchScratch{}
		//gphlint:ignore hotpath one-time binding on pool miss; rebinding per query would allocate
		s.probeFn, s.shellFn = s.probe, s.sumShell
	}
	// The bitmap comes back from every query all zero (IDSet.Reset), so
	// a query pays for the bits it set, not for the collection's size.
	if words := (ix.count + 63) / 64; len(s.cand.Seen) != words {
		s.cand.Seen = make([]uint64, words)
	}
	s.sigs, s.keyScans, s.keysScanned, s.sumPost = 0, 0, 0, 0
	s.rounds, s.scans, s.cnProbes, s.cnKeys = 0, 0, 0, 0
	return s
}

// putScratch returns a scratch to the pool, its candidate set empty
// and its bitmap all zero.
func (ix *Index) putScratch(s *searchScratch) {
	s.cand.Reset() // a no-op for whoever had to reset before reordering the ids
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
		// The ball covers the whole space; every vector matches, on any
		// route.
		out := make([]int32, ix.count)
		for i := range out {
			out[i] = int32(i)
		}
		stats.Results = len(out)
		stats.Candidates = len(out)
		stats.Scanned = true
		return out, reportStats(&stats, wantStats), nil
	}

	// The scratch is returned to the pool explicitly on every exit
	// (not deferred: this function is the hot path, and defer adds
	// per-call overhead the benchmarks would charge to every query).
	s := ix.getScratch()
	scanned, err := ix.gather(q, tau, s, &stats, wantStats)
	if err != nil {
		ix.putScratch(s)
		return nil, nil, err
	}

	// Phase 4: verification on the packed arena, into or in place over
	// the pooled candidate slice; survivors are copied into an exact-size
	// result the caller owns. A scan passes over every row and appends
	// the matches in id order. Generated candidates are verified where
	// they lie and sorted, the bitmap handed back clean first:
	// FilterWithin compacts the ids it would be cleaned by. The clock is
	// read only for a caller that asked for stats: a time.Now/Since pair
	// is a tenth of a microsecond, and a selective query is three.
	var start time.Time
	if wantStats {
		start = time.Now()
	}
	var results []int32
	if scanned {
		results = ix.codes.AppendWithin(q, tau, s.cand.IDs)
		s.cand.IDs = results[:0] // the pool keeps the buffer; no bit was set
		stats.Candidates = ix.count
		stats.Scanned = true
	} else {
		cands := s.cand.IDs
		s.cand.Reset()
		results = ix.codes.FilterWithin(q, tau, cands)
		slices.Sort(results)
	}
	out := make([]int32, len(results))
	copy(out, results)
	if wantStats {
		stats.VerifyNanos = time.Since(start).Nanoseconds()
	}
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
// (Algorithm 1) over estimated CNs with the scan guard inside it
// (allocate), and candidate generation (generate), which fills s.cand
// with deduplicated candidate ids. It reports scanned=true (with no
// candidates generated) when allocation priced the index above
// verifying the whole collection; stats then carries no thresholds —
// the vector the guard stopped at was never going to run, and may hold a
// ball nobody would enumerate. The guard reads the route cpu.Force put
// in force, once: a forced scan is scanned before allocation starts,
// and under a forced index the guard's limit is just below
// alloc.FallbackCost, so that only a query no vector fits the
// enumeration budget of is scanned. stats.Thresholds aliases the scratch.
// Shared by Search, SearchIter and SearchGrow, which calls it once per
// radius on one scratch. timed says whether the caller will read
// stats.AllocNanos and stats.ProbeNanos; the clock is not read for one
// that will not.
//
//gph:hotpath
func (ix *Index) gather(q bitvec.Vector, tau int, s *searchScratch, stats *Stats, timed bool) (scanned bool, err error) {
	// Phase 1: threshold allocation. The RR baseline's vector ignores the
	// CN estimates; the guard still reads them to price it.
	stats.ScanCost = ix.ScanCost(tau)
	limit := stats.ScanCost
	switch cpu.Forced().Route {
	case cpu.RouteScan:
		return true, nil
	case cpu.RouteIndex:
		limit = alloc.FallbackCost - 1
	}
	var start time.Time
	if timed {
		start = time.Now()
	}
	res, price := ix.allocate(q, tau, limit, s)
	if timed {
		stats.AllocNanos = time.Since(start).Nanoseconds()
	}
	stats.PlanCost = price
	stats.AllocRounds = s.rounds
	stats.CNScans = s.scans
	stats.CNProbes = s.cnProbes
	stats.CNKeys = s.cnKeys
	if price > limit {
		stats.Thresholds, stats.EstimatedCN = nil, 0
		return true, nil
	}
	stats.Thresholds = res.Thresholds
	stats.EstimatedCN = res.SumCN

	if timed {
		start = time.Now()
	}
	err = ix.generate(res.Thresholds, res.EffectiveBudget, s)
	if timed {
		stats.ProbeNanos = time.Since(start).Nanoseconds()
	}
	stats.Signatures = s.sigs
	stats.KeyScans = s.keyScans
	stats.KeysScanned = s.keysScanned
	stats.SumPostings = s.sumPost
	stats.Candidates = len(s.cand.IDs)
	return false, err
}

// generate is phases 2+3 fused, candidate generation: per partition,
// collect into s.cand the ids whose projection lies within the
// threshold of the query's, by whichever costs less (genPrice) — the
// signature ball probed against the partition's index, or one pass over the
// partition's keys. Nothing is materialized per signature or per
// matching key (no key string, no posting slice), which is what makes
// the loop allocation-free. budget (0 for unlimited) caps a ball that is
// enumerated; a pass over the keys costs the same whatever the ball
// holds.
//
//gph:hotpath
func (ix *Index) generate(thresholds []int, budget int64, s *searchScratch) error {
	for i, ti := range thresholds {
		if ti < 0 {
			continue
		}
		steps, probe := s.genPrice(i, ti)
		if !probe {
			ix.scanKeys(i, ti, s)
			continue
		}
		if budget > 0 && steps/engine.ProbePrice > budget {
			return fmt.Errorf("core: partition %d with threshold %d: %w", i, ti, hamming.ErrEnumerationBudget)
		}
		if ti == 0 && s.starts[i] != noStart {
			// The ball is the projection itself, and allocation kept the
			// entry it found it under: one signature, probed already.
			s.sumPost += int64(ix.inv[i].CollectEntry(int(s.starts[i]), &s.cand))
			s.sigs++
			continue
		}
		ix.probeBall(i, ti, s)
	}
	return nil
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
		scanned, err := ix.gather(q, tau, s, &stats, false)
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
		// StreamVerified reorders the candidates but keeps them all, so
		// putScratch still finds every bit it has to clear — early stop
		// included.
		engine.StreamVerified(ix.codes, q, tau, s.cand.IDs, yield)
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
