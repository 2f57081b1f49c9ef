// Package mih implements Multi-Index Hashing (Norouzi, Punjani, Fleet
// — CVPR 2012, reference [25] of the GPH paper): the strongest of the
// basic-pigeonhole baselines. Vectors are split into m equi-width
// partitions; a query enumerates, in each partition, all signatures
// within ⌊τ/m⌋ and probes a per-partition inverted index. The index
// implements the full engine contract (kNN, batch, persistence), so it
// can be served and sharded interchangeably with GPH.
//
// The paper states where that stops paying — an index is worth probing
// while buckets probed plus candidates checked stay below n — and a
// query here stops there itself, on GPH's price list (engine.Budget):
// the balls are billed in closed form against what a scan of the packed
// arena costs at τ, the postings as they are decoded, and a query that
// overdraws the scan's price is answered by the scan.
package mih

import (
	"fmt"
	"io"
	"iter"
	"math"
	"sync"

	"gph/internal/binio"
	"gph/internal/bitvec"
	"gph/internal/engine"
	"gph/internal/hamming"
	"gph/internal/invindex"
	"gph/internal/partition"
	"gph/internal/verify"
)

// Index implements the engine contract.
var _ engine.Engine = (*Index)(nil)

// EngineName is the registry name of the MIH engine.
const EngineName = "mih"

// indexMagic identifies the persisted form: enumeration budget,
// arrangement and the raw collection; the per-partition inverted
// indexes are rebuilt deterministically on Load.
const indexMagic = "GPHMH02\n"

// Options configures an MIH index.
type Options struct {
	// NumPartitions is m; 0 selects max(2, n/16), a common MIH rule of
	// thumb (the benches sweep m and keep the fastest, as the paper
	// does for the MIH baseline).
	NumPartitions int
	// Arrangement optionally replaces the default equi-width original
	// order; the paper equips competitors with the OS rearrangement in
	// Fig. 7 (nil keeps original order).
	Arrangement *partition.Partitioning
	// EnumBudget caps per-partition ball enumeration (default 1<<20).
	EnumBudget int64
}

// Index is an immutable MIH index.
type Index struct {
	codes  *verify.Codes // the rows, the one copy of them
	parts  *partition.Partitioning
	proj   *bitvec.Projector // binds a query to every partition at once
	inv    []*invindex.Frozen
	budget int64

	// scratch pools per-query working memory (seen bitmap, key buffer,
	// candidate slice, projection, enumerator) so steady-state searches
	// allocate only the returned result slice.
	scratch sync.Pool
}

// Stats is the shared per-query accounting type; MIH fills the
// candidate-accounting subset.
type Stats = engine.Stats

// Build constructs the index over a packed copy of data.
func Build(data []bitvec.Vector, opts Options) (*Index, error) {
	dims, err := engine.CheckBuild(data)
	if err != nil {
		return nil, fmt.Errorf("mih: %w", err)
	}
	m := opts.NumPartitions
	if m == 0 {
		m = dims / 16
	}
	if m < 2 {
		m = 2
	}
	if m > dims {
		m = dims
	}
	parts := opts.Arrangement
	if parts == nil {
		parts = partition.EquiWidth(dims, m)
	}
	budget := opts.EnumBudget
	if budget == 0 {
		budget = 1 << 20
	}
	return newIndex(verify.Pack(data), parts, budget)
}

// newIndex builds the index over codes, which it keeps, under
// arrangement parts and enumeration budget budget: the per-partition
// inverted indexes, frozen into the compact arena layout. Build and
// Load both end here; Load rebuilds the indexes from the persisted
// rows instead of serializing posting lists.
func newIndex(codes *verify.Codes, parts *partition.Partitioning, budget int64) (*Index, error) {
	if err := engine.CheckArrangement(parts, codes.Dims()); err != nil {
		return nil, fmt.Errorf("mih: %w", err)
	}
	if budget <= 0 {
		return nil, fmt.Errorf("mih: implausible enumeration budget %d", budget)
	}
	ix := &Index{codes: codes, parts: parts, budget: budget, proj: bitvec.NewProjector(codes.Dims(), parts.Parts)}
	ix.inv = make([]*invindex.Frozen, parts.NumParts())
	for i, dimsI := range parts.Parts {
		ix.inv[i] = invindex.FreezeRows(codes.Len(), 1, len(dimsI), invindex.ProjectRows(codes, dimsI))
	}
	return ix, nil
}

// Dims returns the dimensionality.
func (ix *Index) Dims() int { return ix.codes.Dims() }

// Len returns the collection size.
func (ix *Index) Len() int { return ix.codes.Len() }

// Name returns the registry name "mih".
func (ix *Index) Name() string { return EngineName }

// Exact reports that MIH returns every true result.
func (ix *Index) Exact() bool { return true }

// MaxTau returns the largest accepted threshold; MIH's structure does
// not depend on a build-time τ, so any threshold up to the
// dimensionality is answerable.
func (ix *Index) MaxTau() int { return ix.Dims() }

// Vector returns the indexed vector with id ∈ [0, Len()). The vector
// shares storage with the index and must not be modified.
func (ix *Index) Vector(id int32) bitvec.Vector { return ix.codes.Row(id) }

// SizeBytes reports posting-list memory — exact arena accounting on
// the frozen layout (Fig. 6).
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
	col    engine.Collector
	keyBuf []byte
	arena  []uint64        // what the index's projector writes (gather)
	projs  []bitvec.Vector // views over arena, a partition each
	enum   hamming.Enumerator

	// probe-loop state: probeFn is the enumeration callback bound once
	// per scratch (a method value allocates on every binding).
	inv     *invindex.Frozen
	bill    engine.Budget
	sigs    int
	sumPost int64
	probeFn func(bitvec.Vector) bool
}

// probe consumes one enumerated signature: bill the posting list of its
// key by its stored length and, if the budget still holds, decode it into
// the candidate set; a list that would overdraw the budget ends the
// enumeration undecoded.
//
//gph:hotpath
func (s *searchScratch) probe(v bitvec.Vector) bool {
	e := s.inv.LookupKey(v.Words(), &s.keyBuf)
	s.sigs++
	if !s.bill.Postings(s.inv.EntryLen(e)) {
		return false
	}
	s.sumPost += int64(s.inv.CollectEntry(e, &s.col.Set))
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
		s.probeFn = s.probe
	}
	s.col.Reset(ix.Len())
	s.sigs = 0
	s.sumPost = 0
	return s
}

// putScratch returns a scratch to the pool, its candidate set empty and
// its bitmap all zero (engine.Collector).
func (ix *Index) putScratch(s *searchScratch) {
	s.col.Set.Reset() // a no-op after FinishVerifiedCodes
	s.inv = nil
	ix.scratch.Put(s)
}

// Search returns ids within distance tau of q in ascending order.
func (ix *Index) Search(q bitvec.Vector, tau int) ([]int32, error) {
	ids, _, err := ix.search(q, tau, false)
	return ids, err
}

// SearchStats is Search with candidate accounting: what the index was
// billed for, and Scanned when the scan answered after all.
func (ix *Index) SearchStats(q bitvec.Vector, tau int) ([]int32, *Stats, error) {
	return ix.search(q, tau, true)
}

// search is MIH's per-query hot path: gather candidates from the frozen
// inverted indexes and verify them, or scan the arena where the budget
// says that is cheaper. The scratch goes back to the pool explicitly
// (not deferred — defer adds per-call overhead on the hot path).
//
//gph:hotpath
func (ix *Index) search(q bitvec.Vector, tau int, wantStats bool) ([]int32, *Stats, error) {
	if err := engine.CheckQuery(q, ix.Dims(), tau); err != nil {
		return nil, nil, fmt.Errorf("mih: %w", err)
	}
	st := Stats{Scanned: true, Candidates: ix.Len()}
	var out []int32
	if bill := ix.billBalls(tau); !bill.Spent() {
		s := ix.getScratch()
		if ix.gather(q, tau, bill, s, &st) {
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

// billBalls opens a query's budget and bills it every partition's ball
// at radius ⌊τ/m⌋, in closed form. Where that alone overdraws it, or a
// ball outgrows the enumeration budget (e.g. during kNN range growth),
// the scan answers and the query has cost nothing yet: no scratch
// taken, nothing projected.
//
//gph:hotpath
func (ix *Index) billBalls(tau int) engine.Budget {
	bill := engine.ScanBudget(ix.codes, tau)
	sub := tau / ix.parts.NumParts() // ⌊τ/m⌋, the basic pigeonhole threshold
	for _, dimsI := range ix.parts.Parts {
		size, ok := hamming.BallSize(len(dimsI), sub)
		if !ok || size > uint64(ix.budget) {
			size = math.MaxUint64
		}
		if !bill.Probes(size) {
			break
		}
	}
	return bill
}

// gather enumerates each partition's signature ball and probes the
// frozen indexes into s's collector, billing every posting list to what
// billBalls left of the budget before it is decoded. It reports whether
// the index answers: the posting list that would overdraw the budget
// ends the probing undecoded and leaves the query to the scan, the index
// having cost at most the scan's price. st receives what was spent — the
// signatures probed and the postings decoded — and the verdict. Shared
// by Search, SearchIter and, through GrowKNN, SearchKNN.
//
//gph:hotpath
func (ix *Index) gather(q bitvec.Vector, tau int, bill engine.Budget, s *searchScratch, st *Stats) bool {
	sub := tau / ix.parts.NumParts()
	s.bill = bill
	ix.proj.Project(q, s.arena)
	for i, inv := range ix.inv {
		s.inv = inv
		// Unbudgeted enumeration cannot fail.
		_ = s.enum.Enumerate(s.projs[i], sub, 0, s.probeFn)
		if s.bill.Spent() {
			break
		}
	}
	st.Signatures, st.SumPostings = s.sigs, s.sumPost
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
		if err := engine.CheckQuery(q, ix.Dims(), tau); err != nil {
			yield(engine.Neighbor{}, fmt.Errorf("mih: %w", err))
			return
		}
		st := Stats{Scanned: true}
		if bill := ix.billBalls(tau); !bill.Spent() {
			s := ix.getScratch()
			if ix.gather(q, tau, bill, s, &st) {
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
// expansion; see engine.GrowKNN.
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

// Save serializes the index: magic, enumeration budget, arrangement
// and the rows. Load rebuilds the inverted indexes, which is cheap
// relative to serializing every posting list.
func (ix *Index) Save(w io.Writer) error {
	bw := binio.NewWriter(w)
	bw.Magic(indexMagic)
	bw.Int64(ix.budget)
	engine.WritePartitioning(bw, ix.parts)
	engine.WriteCodes(bw, ix.codes)
	return bw.Flush()
}

// Load reads an index written by Save, rebuilding the per-partition
// inverted indexes from the persisted rows, which it keeps where they
// were read.
func Load(r io.Reader) (*Index, error) {
	br := binio.NewReader(r)
	br.Magic(indexMagic)
	budget := br.Int64()
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("mih: %w", err)
	}
	parts, err := engine.ReadPartitioning(br)
	if err != nil {
		return nil, fmt.Errorf("mih: %w", err)
	}
	codes, err := engine.ReadCodes(br)
	if err != nil {
		return nil, fmt.Errorf("mih: %w", err)
	}
	return newIndex(codes, parts, budget)
}

func init() {
	engine.Register(engine.Registration{
		Name:  EngineName,
		Exact: true,
		Magic: indexMagic,
		Build: func(data []bitvec.Vector, opts engine.BuildOptions) (engine.Engine, error) {
			return Build(data, Options{
				NumPartitions: opts.NumPartitions,
				Arrangement:   opts.Arrangement,
				EnumBudget:    opts.EnumBudget,
			})
		},
		Load: func(r io.Reader) (engine.Engine, error) { return Load(r) },
	})
}
