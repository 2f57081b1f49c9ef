// Package hmsearch implements HmSearch (Zhang, Qin, Wang, Sun, Lu —
// SSDBM 2013, reference [43] of the GPH paper): vectors are divided
// into ⌊(τ+3)/2⌋ partitions so that, by the pigeonhole principle, a
// result shares a partition within Hamming distance 1 of the query.
// Data-side 1-deletion variants answer the radius-1 probes, which is
// why HmSearch's index is markedly larger than MIH's (paper Fig. 6).
//
// This reproduction implements the basic radius-1 variant; HmSearch's
// additional odd/even 0-vs-1 case split only prunes a constant factor
// and does not change the asymptotic candidate behaviour the paper's
// comparison exercises. The index implements the full engine contract
// (kNN, batch, persistence) with MaxTau bounded by the build-time τ.
//
// A query stops at the scan's price itself, on GPH's price list
// (engine.Budget): its m + dims probes are billed in closed form against
// what a scan of the packed arena costs at τ, the postings as they are
// decoded, and a query that overdraws that price is answered by the scan.
package hmsearch

import (
	"fmt"
	"io"
	"iter"
	"sync"

	"gph/internal/binio"
	"gph/internal/bitvec"
	"gph/internal/engine"
	"gph/internal/invindex"
	"gph/internal/partition"
	"gph/internal/verify"
)

// Index implements the engine contract.
var _ engine.Engine = (*Index)(nil)

// EngineName is the registry name of the HmSearch engine.
const EngineName = "hmsearch"

// indexMagic identifies the persisted form: build threshold,
// arrangement and the raw collection; the deletion-variant inverted
// indexes are rebuilt deterministically on Load.
const indexMagic = "GPHHM02\n"

// Options configures Build.
type Options struct {
	// Arrangement optionally replaces equi-width original order; the
	// paper equips competitors with the OS rearrangement.
	Arrangement *partition.Partitioning
}

// Index is an immutable HmSearch index built for a specific τ.
type Index struct {
	tau   int
	codes *verify.Codes // the rows, the one copy of them
	parts *partition.Partitioning
	proj  *bitvec.Projector // binds a query to every partition at once
	inv   []*invindex.Frozen

	// scratch pools per-query working memory (seen bitmap, candidate
	// slice, projection, radius-1 key buffers) so steady-state searches
	// allocate only the returned result slice.
	scratch sync.Pool
}

// Stats is the shared per-query accounting type; HmSearch fills the
// candidate-accounting subset.
type Stats = engine.Stats

// NumPartitions returns HmSearch's partition count for tau.
func NumPartitions(dims, tau int) int {
	m := (tau + 3) / 2
	if m < 1 {
		m = 1
	}
	if m > dims {
		m = dims
	}
	return m
}

// Build constructs the index over a packed copy of data for queries at
// threshold tau.
func Build(data []bitvec.Vector, tau int, opts Options) (*Index, error) {
	dims, err := engine.CheckBuild(data)
	if err != nil {
		return nil, fmt.Errorf("hmsearch: %w", err)
	}
	parts := opts.Arrangement
	if parts == nil {
		parts = partition.EquiWidth(dims, NumPartitions(dims, tau))
	}
	return newIndex(verify.Pack(data), tau, parts)
}

// newIndex builds the index over codes, which it keeps, for threshold
// tau under arrangement parts: the per-partition deletion-variant
// indexes, frozen into the compact arena layout. Build and Load both
// end here.
func newIndex(codes *verify.Codes, tau int, parts *partition.Partitioning) (*Index, error) {
	if err := engine.CheckBuildTau(tau); err != nil {
		return nil, fmt.Errorf("hmsearch: %w", err)
	}
	if m := NumPartitions(codes.Dims(), tau); parts.NumParts() != m {
		return nil, fmt.Errorf("hmsearch: arrangement has %d parts, τ=%d needs %d", parts.NumParts(), tau, m)
	}
	if err := engine.CheckArrangement(parts, codes.Dims()); err != nil {
		return nil, fmt.Errorf("hmsearch: %w", err)
	}
	ix := &Index{tau: tau, codes: codes, parts: parts, proj: bitvec.NewProjector(codes.Dims(), parts.Parts)}
	ix.inv = make([]*invindex.Frozen, parts.NumParts())
	for i, dimsI := range parts.Parts {
		ix.inv[i] = invindex.FreezeVariants(codes.Len(), len(dimsI), invindex.ProjectRows(codes, dimsI))
	}
	return ix, nil
}

// Tau returns the threshold the index was built for.
func (ix *Index) Tau() int { return ix.tau }

// Len returns the collection size.
func (ix *Index) Len() int { return ix.codes.Len() }

// Dims returns the dimensionality.
func (ix *Index) Dims() int { return ix.codes.Dims() }

// Name returns the registry name "hmsearch".
func (ix *Index) Name() string { return EngineName }

// Exact reports that HmSearch returns every true result (within its
// build threshold).
func (ix *Index) Exact() bool { return true }

// MaxTau returns the build threshold: the partitioning depends on it,
// so larger query thresholds are rejected.
func (ix *Index) MaxTau() int { return ix.tau }

// Vector returns the indexed vector with id ∈ [0, Len()). The vector
// shares storage with the index and must not be modified.
func (ix *Index) Vector(id int32) bitvec.Vector { return ix.codes.Row(id) }

// SizeBytes reports posting-list memory including deletion variants —
// exact arena accounting on the frozen layout (Fig. 6).
func (ix *Index) SizeBytes() int64 {
	var s int64
	for _, inv := range ix.inv {
		s += inv.SizeBytes()
	}
	return s
}

// searchScratch is every buffer one query needs; instances are pooled
// on the Index so the steady-state probe path allocates nothing beyond
// the returned result slice.
type searchScratch struct {
	col     engine.Collector
	arena   []uint64        // what the index's projector writes (gather)
	projs   []bitvec.Vector // views over arena, a partition each
	r1      invindex.Radius1Scratch
	inv     *invindex.Frozen // the partition being probed
	bill    engine.Budget
	sumPost int64
	// visitFn and collectFn are the radius-1 callbacks, bound once per
	// scratch (a method value allocates on every binding).
	visitFn   func(e int) bool
	collectFn func(id int32) bool
}

// visit decodes the posting list of one key of the radius-1 probe into
// collect, and ends the probe where collect does.
//
//gph:hotpath
func (s *searchScratch) visit(e int) bool { return s.inv.ForEachEntry(e, s.collectFn) }

// collect bills one posting and merges it into the deduplicated
// candidate set — or ends the probing, when it overdrew the budget.
//
//gph:hotpath
func (s *searchScratch) collect(id int32) bool {
	s.sumPost++
	if !s.bill.Postings(1) {
		return false
	}
	s.col.Set.Add(id)
	return true
}

// getScratch hands a pooled scratch to the caller, who owes it
// back to the pool on every path out.
func (ix *Index) getScratch() *searchScratch {
	s, _ := ix.scratch.Get().(*searchScratch)
	if s == nil {
		s = &searchScratch{}
		s.arena, s.projs = ix.proj.Views()
		//gphlint:ignore hotpath one-time binding on pool miss; rebinding per query would allocate
		s.visitFn, s.collectFn = s.visit, s.collect
	}
	s.col.Reset(ix.Len())
	s.sumPost = 0
	return s
}

// putScratch returns a scratch to the pool, its candidate set empty and
// its bitmap all zero (engine.Collector).
func (ix *Index) putScratch(s *searchScratch) {
	s.col.Set.Reset() // a no-op after FinishVerifiedCodes
	ix.scratch.Put(s)
}

// Search returns ids within distance tau of q in ascending order. tau
// must not exceed the build threshold (the partitioning depends on it).
func (ix *Index) Search(q bitvec.Vector, tau int) ([]int32, error) {
	ids, _, err := ix.search(q, tau, false)
	return ids, err
}

// SearchStats is Search with candidate accounting: what the index was
// billed for, and Scanned when the scan answered after all.
func (ix *Index) SearchStats(q bitvec.Vector, tau int) ([]int32, *Stats, error) {
	return ix.search(q, tau, true)
}

// checkQuery is the query contract: CheckQuery's, within the build τ.
func (ix *Index) checkQuery(q bitvec.Vector, tau int) error {
	err := engine.CheckQuery(q, ix.Dims(), tau)
	if err == nil {
		err = engine.CheckTauBound(tau, ix.tau)
	}
	if err != nil {
		return fmt.Errorf("hmsearch: %w", err)
	}
	return nil
}

// search is HmSearch's per-query hot path: gather candidates from the
// deletion-variant indexes and verify them, or scan the arena where the
// budget says that is cheaper. The scratch goes back to the pool
// explicitly (not deferred — defer adds per-call overhead on the hot
// path).
//
//gph:hotpath
func (ix *Index) search(q bitvec.Vector, tau int, wantStats bool) ([]int32, *Stats, error) {
	if err := ix.checkQuery(q, tau); err != nil {
		return nil, nil, err
	}
	st := Stats{Scanned: true, Candidates: ix.Len()}
	var out []int32
	if bill := ix.billProbes(tau); !bill.Spent() {
		s := ix.getScratch()
		if ix.gather(q, bill, s, &st) {
			out = s.col.FinishVerifiedCodes(q, tau, ix.codes)
		}
		ix.putScratch(s)
	}
	if st.Scanned {
		out = ix.codes.AppendWithin(q, tau, nil)
	}
	if !wantStats {
		return out, nil, nil
	}
	report := st
	report.Results = len(out)
	return out, &report, nil
}

// numProbes is what any query looks up: every partition's exact key and
// one deletion variant a dimension.
func (ix *Index) numProbes() int { return ix.parts.NumParts() + ix.Dims() }

// billProbes opens a query's budget and bills it the query's probes.
// Where they alone overdraw it the scan answers and the query has cost
// nothing yet: no scratch taken, nothing projected.
//
//gph:hotpath
func (ix *Index) billProbes(tau int) engine.Budget {
	bill := engine.ScanBudget(ix.codes, tau)
	bill.Probes(uint64(ix.numProbes()))
	return bill
}

// gather probes each partition's frozen index at radius 1 via deletion
// variants into s's collector, billing every decoded posting to what
// billProbes left of the budget. It reports whether the index answers:
// the posting that overdraws the budget ends the probing and leaves the
// query to the scan. st receives what was billed (the probes in full)
// and the verdict. Shared by Search, SearchIter and, through GrowKNN,
// SearchKNN.
//
//gph:hotpath
func (ix *Index) gather(q bitvec.Vector, bill engine.Budget, s *searchScratch, st *Stats) bool {
	s.bill = bill
	ix.proj.Project(q, s.arena)
	for i, inv := range ix.inv {
		s.inv = inv
		inv.Radius1(s.projs[i].Words(), s.projs[i].Dims(), &s.r1, s.visitFn)
		if s.bill.Spent() {
			break
		}
	}
	s.inv = nil
	st.Signatures, st.SumPostings = ix.numProbes(), s.sumPost
	if s.bill.Spent() {
		return false
	}
	st.Scanned, st.Candidates = false, s.col.Candidates()
	return true
}

// SearchIter implements engine.Streamer: candidates are gathered as
// in Search, then streamed out in ascending id order as verification
// blocks complete. Draining the stream yields exactly the ids Search
// returns; see engine.Streamer for the sequence contract.
func (ix *Index) SearchIter(q bitvec.Vector, tau int) iter.Seq2[engine.Neighbor, error] {
	return func(yield func(engine.Neighbor, error) bool) {
		if err := ix.checkQuery(q, tau); err != nil {
			yield(engine.Neighbor{}, err)
			return
		}
		st := Stats{Scanned: true}
		if bill := ix.billProbes(tau); !bill.Spent() {
			s := ix.getScratch()
			if ix.gather(q, bill, s, &st) {
				engine.StreamVerified(ix.codes, q, tau, s.col.CandidateIDs(), yield)
			}
			ix.putScratch(s)
		}
		if st.Scanned {
			engine.StreamScan(ix.codes, q, tau, yield)
		}
	}
}

// SearchKNN returns the k nearest neighbours of q by progressive range
// expansion capped at the build threshold; past MaxTau the answer is
// best-effort (see engine.GrowKNN).
func (ix *Index) SearchKNN(q bitvec.Vector, k int) ([]engine.Neighbor, error) {
	return engine.GrowKNN(ix, q, k)
}

// SearchBatch answers many queries concurrently; see
// engine.BatchSearch for the contract.
func (ix *Index) SearchBatch(queries []bitvec.Vector, tau int, parallelism int) ([][]int32, error) {
	return engine.BatchSearch(queries, parallelism, func(q bitvec.Vector) ([]int32, error) {
		return ix.Search(q, tau)
	})
}

// Save serializes the index: magic, build threshold, arrangement and
// the rows. Load rebuilds the deletion-variant indexes,
// which keeps the persisted form far smaller than the resident one.
func (ix *Index) Save(w io.Writer) error {
	bw := binio.NewWriter(w)
	bw.Magic(indexMagic)
	bw.Int(ix.tau)
	engine.WritePartitioning(bw, ix.parts)
	engine.WriteCodes(bw, ix.codes)
	return bw.Flush()
}

// Load reads an index written by Save, rebuilding the deletion-variant
// inverted indexes from the persisted rows, which it keeps where they
// were read.
func Load(r io.Reader) (*Index, error) {
	br := binio.NewReader(r)
	br.Magic(indexMagic)
	tau := br.Int()
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("hmsearch: %w", err)
	}
	parts, err := engine.ReadPartitioning(br)
	if err != nil {
		return nil, fmt.Errorf("hmsearch: %w", err)
	}
	codes, err := engine.ReadCodes(br)
	if err != nil {
		return nil, fmt.Errorf("hmsearch: %w", err)
	}
	return newIndex(codes, tau, parts)
}

func init() {
	engine.Register(engine.Registration{
		Name:       EngineName,
		Exact:      true,
		TauBounded: true,
		Magic:      indexMagic,
		Build: func(data []bitvec.Vector, opts engine.BuildOptions) (engine.Engine, error) {
			return Build(data, opts.MaxTau, Options{Arrangement: opts.Arrangement})
		},
		Load: func(r io.Reader) (engine.Engine, error) { return Load(r) },
	})
}
