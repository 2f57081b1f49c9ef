// Package partalloc implements the PartAlloc baseline (Deng, Li, Wen,
// Feng — PVLDB 2015, reference [11] of the GPH paper), translated from
// set similarity joins to Hamming search exactly as the paper's
// experiments do: vectors are divided into τ+1 equi-width partitions;
// each partition receives a threshold from {−1, 0, 1} with the
// thresholds summing to 0 (the tight pigeonhole budget τ − m + 1);
// a greedy allocator chooses which partitions to skip (−1) and which
// to probe at radius 1, trading posting sizes; radius-1 probes are
// answered with data-side deletion variants; and a positional
// (popcount) filter prunes candidates before verification. The index
// implements the full engine contract with MaxTau bounded by the
// build-time τ.
package partalloc

import (
	"fmt"
	"io"
	"slices"
	"sort"
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

// EngineName is the registry name of the PartAlloc engine.
const EngineName = "partalloc"

// indexMagic identifies the persisted form: build threshold,
// arrangement and the raw collection; the deletion-variant indexes
// are rebuilt deterministically on Load.
const indexMagic = "GPHPA02\n"

// Options configures Build.
type Options struct {
	// Arrangement optionally replaces equi-width original order.
	Arrangement *partition.Partitioning
}

// Index is an immutable PartAlloc index built for a specific τ.
type Index struct {
	tau   int
	codes *verify.Codes // the rows, the one copy of them
	pops  []int32       // popcount per row, for the positional filter
	parts *partition.Partitioning
	inv   []*invindex.Frozen

	// cands pools the per-query candidate set (*engine.Collector), its
	// bitmap all zero whenever it is in the pool.
	cands sync.Pool
}

// Stats is the shared per-query accounting type; PartAlloc fills the
// candidate-accounting subset plus its allocated threshold vector.
type Stats = engine.Stats

// NumPartitions returns PartAlloc's partition count for tau.
func NumPartitions(dims, tau int) int {
	m := tau + 1
	if m < 2 {
		m = 2
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
		return nil, fmt.Errorf("partalloc: %w", err)
	}
	parts := opts.Arrangement
	if parts == nil {
		parts = partition.EquiWidth(dims, NumPartitions(dims, tau))
	}
	return newIndex(verify.Pack(data), tau, parts)
}

// newIndex builds the index over codes, which it keeps, for threshold
// tau under arrangement parts: the per-partition deletion-variant
// indexes and the popcount filter. Build and Load both end here.
func newIndex(codes *verify.Codes, tau int, parts *partition.Partitioning) (*Index, error) {
	if err := engine.CheckBuildTau(tau); err != nil {
		return nil, fmt.Errorf("partalloc: %w", err)
	}
	if m := NumPartitions(codes.Dims(), tau); parts.NumParts() != m {
		return nil, fmt.Errorf("partalloc: arrangement has %d parts, τ=%d needs %d", parts.NumParts(), tau, m)
	}
	if err := engine.CheckArrangement(parts, codes.Dims()); err != nil {
		return nil, fmt.Errorf("partalloc: %w", err)
	}
	ix := &Index{tau: tau, codes: codes, parts: parts}
	ix.pops = make([]int32, codes.Len())
	for id := range ix.pops {
		ix.pops[id] = int32(codes.Row(int32(id)).PopCount())
	}
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

// SizeBytes reports posting-list memory including deletion variants —
// exact arena accounting on the frozen layout (Fig. 6).
func (ix *Index) SizeBytes() int64 {
	var s int64
	for _, inv := range ix.inv {
		s += inv.SizeBytes()
	}
	return s
}

// Search returns ids within distance tau of q in ascending order.
func (ix *Index) Search(q bitvec.Vector, tau int) ([]int32, error) {
	ids, _, err := ix.SearchStats(q, tau)
	return ids, err
}

// SearchStats is Search with candidate accounting.
func (ix *Index) SearchStats(q bitvec.Vector, tau int) ([]int32, *Stats, error) {
	if err := engine.CheckQuery(q, ix.Dims(), tau); err != nil {
		return nil, nil, fmt.Errorf("partalloc: %w", err)
	}
	if err := engine.CheckTauBound(tau, ix.tau); err != nil {
		return nil, nil, fmt.Errorf("partalloc: %w", err)
	}
	stats := &Stats{}
	m := ix.parts.NumParts()
	projs := make([]bitvec.Vector, m)
	for i, dimsI := range ix.parts.Parts {
		projs[i] = q.Project(dimsI)
	}
	var r1 invindex.Radius1Scratch
	T := ix.allocate(projs, tau, &r1)
	stats.Thresholds = T

	col, _ := ix.cands.Get().(*engine.Collector)
	if col == nil {
		col = &engine.Collector{}
	}
	col.Reset(ix.Len())
	for i, ti := range T {
		if ti < 0 {
			continue
		}
		// Radius1 looks the exact key up first: a threshold of 0 probes it
		// alone, 1 every key.
		inv := ix.inv[i]
		inv.Radius1(projs[i].Words(), projs[i].Dims(), &r1, func(e int) bool {
			stats.Signatures++
			stats.SumPostings += int64(inv.CollectEntry(e, &col.Set))
			return ti == 1
		})
	}
	stats.Candidates = col.Candidates()
	cands := col.Set.IDs
	col.Set.Reset() // before the filters compact cands
	qp := qPop(projs)
	results := cands[:0]
	for _, id := range cands {
		// Positional filter: H(x, q) ≥ |pop(x) − pop(q)|.
		if d := int(ix.pops[id]) - qp; d <= tau && d >= -tau {
			results = append(results, id)
		}
	}
	results = ix.codes.FilterWithin(q, tau, results)
	slices.Sort(results)
	out := make([]int32, len(results))
	copy(out, results)
	ix.cands.Put(col)
	stats.Results = len(out)
	return out, stats, nil
}

func qPop(projs []bitvec.Vector) int {
	p := 0
	for _, v := range projs {
		p += v.PopCount()
	}
	return p
}

// allocate chooses thresholds in {−1, 0, 1} summing to 0 (the general
// pigeonhole budget for m = τ+1 when the query τ equals the build τ;
// for smaller query τ the budget τ − m + 1 is negative, forcing more
// −1 partitions). It greedily pairs the partitions with the largest
// exact-probe savings (set to −1) against those with the smallest
// radius-1 penalty (raised to 1).
func (ix *Index) allocate(projs []bitvec.Vector, tau int, r1 *invindex.Radius1Scratch) []int {
	m := len(projs)
	budget := tau - m + 1 // ≤ 0 by construction (m = buildTau+1 ≥ tau+1)
	T := make([]int, m)
	cost0 := make([]int64, m)
	cost1 := make([]int64, m)
	for i, proj := range projs {
		// Radius1 looks the exact key up first: its list is cost0, and
		// with the variants' lists cost1.
		exact := true
		ix.inv[i].Radius1(proj.Words(), proj.Dims(), r1, func(e int) bool {
			n := int64(ix.inv[i].EntryLen(e))
			if exact {
				cost0[i], exact = n, false
			}
			cost1[i] += n
			return true
		})
	}
	// Mandatory −1s: budget < 0 forces |budget| partitions down. Take
	// the ones with the largest exact-probe cost.
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return cost0[order[a]] > cost0[order[b]] })
	forced := -budget
	for k := 0; k < forced && k < m; k++ {
		T[order[k]] = -1
	}
	// Optional paired moves: set one more partition to −1 (saving its
	// exact cost) and raise another to +1 (paying its deletion cost)
	// while the trade is profitable.
	for {
		bestGain := int64(0)
		bestDown, bestUp := -1, -1
		for i := 0; i < m; i++ {
			if T[i] != 0 {
				continue
			}
			for j := 0; j < m; j++ {
				if i == j || T[j] != 0 {
					continue
				}
				gain := cost0[i] - (cost1[j] - cost0[j])
				if gain > bestGain {
					bestGain, bestDown, bestUp = gain, i, j
				}
			}
		}
		if bestDown < 0 {
			break
		}
		T[bestDown] = -1
		T[bestUp] = 1
	}
	return T
}

// Dims returns the dimensionality.
func (ix *Index) Dims() int { return ix.codes.Dims() }

// Name returns the registry name "partalloc".
func (ix *Index) Name() string { return EngineName }

// Exact reports that PartAlloc returns every true result (within its
// build threshold).
func (ix *Index) Exact() bool { return true }

// MaxTau returns the build threshold: the partitioning depends on it,
// so larger query thresholds are rejected.
func (ix *Index) MaxTau() int { return ix.tau }

// Vector returns the indexed vector with id ∈ [0, Len()). The vector
// shares storage with the index and must not be modified.
func (ix *Index) Vector(id int32) bitvec.Vector { return ix.codes.Row(id) }

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
// the rows. Load rebuilds the deletion-variant indexes and
// the popcount filter.
func (ix *Index) Save(w io.Writer) error {
	bw := binio.NewWriter(w)
	bw.Magic(indexMagic)
	bw.Int(ix.tau)
	engine.WritePartitioning(bw, ix.parts)
	engine.WriteCodes(bw, ix.codes)
	return bw.Flush()
}

// Load reads an index written by Save and rebuilds it over the
// persisted rows, which it keeps where they were read. Construction is
// deterministic given the persisted arrangement, so the rebuilt index
// matches the original.
func Load(r io.Reader) (*Index, error) {
	br := binio.NewReader(r)
	br.Magic(indexMagic)
	tau := br.Int()
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("partalloc: %w", err)
	}
	parts, err := engine.ReadPartitioning(br)
	if err != nil {
		return nil, fmt.Errorf("partalloc: %w", err)
	}
	codes, err := engine.ReadCodes(br)
	if err != nil {
		return nil, fmt.Errorf("partalloc: %w", err)
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
