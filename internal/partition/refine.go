package partition

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"gph/internal/alloc"
	"gph/internal/bitvec"
	"gph/internal/invindex"
	"gph/internal/verify"
)

// Workload is the query workload Q of §V: (query, threshold) pairs.
// The paper computes one partitioning from a workload spanning a range
// of thresholds and reuses it for every query τ (§VII-E); when no
// historical workload exists, a sample of the data is the surrogate.
type Workload struct {
	Queries []bitvec.Vector
	Taus    []int
}

// Validate checks the workload is non-empty and well-formed.
func (w *Workload) Validate() error {
	if len(w.Queries) == 0 {
		return fmt.Errorf("partition: empty workload")
	}
	if len(w.Queries) != len(w.Taus) {
		return fmt.Errorf("partition: %d queries vs %d thresholds", len(w.Queries), len(w.Taus))
	}
	for i, t := range w.Taus {
		if t < 0 {
			return fmt.Errorf("partition: workload threshold %d is negative (%d)", i, t)
		}
	}
	return nil
}

// MaxTau returns the largest threshold in the workload.
func (w *Workload) MaxTau() int {
	m := 0
	for _, t := range w.Taus {
		if t > m {
			m = t
		}
	}
	return m
}

// SurrogateWorkload builds a workload from data vectors with
// thresholds cycling over tauRange, the paper's fallback when no
// historical queries are available.
func SurrogateWorkload(data []bitvec.Vector, size int, tauRange []int, seed int64) Workload {
	if size <= 0 || len(tauRange) == 0 {
		panic("partition: SurrogateWorkload needs size > 0 and a non-empty tau range")
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	w := Workload{Queries: make([]bitvec.Vector, size), Taus: make([]int, size)}
	for i := 0; i < size; i++ {
		w.Queries[i] = data[rng.Intn(len(data))]
		w.Taus[i] = tauRange[i%len(tauRange)]
	}
	return w
}

// RefineConfig is what Algorithm 2 takes from the index it refines for.
type RefineConfig struct {
	// EnumBudget forwards to the allocation DP (see alloc.Allocate).
	EnumBudget int64
	// TotalRows is the full collection size the sample stands in for;
	// sample CN counts are scaled by TotalRows/len(sample) so candidate
	// costs and signature costs stay on the same scale (otherwise the
	// optimizer under-weights candidates and drifts toward tiny
	// partitions). 0 means len(sample) (no scaling).
	TotalRows int
	// Seed orders the first-improvement scan.
	Seed int64
}

// How far Algorithm 2 climbs. The paper's literal form evaluates every
// (dimension, target) move each round and applies the best; Refine
// accepts the first cost-reducing move of a scan instead, which reaches
// the same class of local optima with far fewer evaluations.
const (
	// maxMovesPerDim · dims caps accepted moves.
	maxMovesPerDim = 2
	// maxEvals caps move evaluations (each one projects the sample onto
	// the two partitions it changes), bounding build latency
	// deterministically.
	maxEvals = 2500
	// targetsPerDim bounds, per scan, how many target partitions are
	// tried for each dimension (at most m − 1); targets are re-randomized
	// every pass, so the reachable move set is unchanged, only the order
	// of exploration.
	targetsPerDim = 3
)

// Refine runs Algorithm 2: starting from p, it moves single dimensions
// between partitions while the workload cost (Σ per-query DP-allocated
// candidate estimates over the sample) strictly decreases. It returns
// the refined partitioning (with empty parts dropped) and its final
// workload cost.
func Refine(p *Partitioning, sample []bitvec.Vector, wl Workload, cfg RefineConfig) (*Partitioning, int64) {
	if err := wl.Validate(); err != nil {
		panic(err)
	}
	r := newRefiner(p.Clone(), sample, wl, cfg.EnumBudget, cfg.TotalRows)
	maxMoves := maxMovesPerDim * p.Dims
	targets := min(targetsPerDim, len(p.Parts)-1)
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x2ef1))

	cur := r.totalCost()
	moves, evals := 0, 0
	for moves < maxMoves {
		improved := false
		dims := rng.Perm(p.Dims)
	scan:
		for _, d := range dims {
			i := r.partOf(d)
			if len(r.parts[i]) == 1 && r.singleton(i) {
				continue // moving the only dim of the only non-empty part is pointless
			}
			tried := 0
			for _, j := range rng.Perm(len(r.parts)) {
				if j == i {
					continue
				}
				if tried >= targets || evals >= maxEvals {
					break
				}
				tried++
				evals++
				if c := r.tryMove(d, i, j); c < cur {
					cur = r.applyMove(d, i, j)
					moves++
					improved = true
					if moves >= maxMoves {
						break scan
					}
					break // d has moved; re-deriving i is a fresh scan's job
				}
			}
			if evals >= maxEvals {
				break scan
			}
		}
		if evals >= maxEvals || !improved {
			break
		}
	}
	out := &Partitioning{Dims: p.Dims, Parts: r.parts}
	out.DropEmpty()
	return out, cur
}

// WorkloadCost evaluates Eq. 2 — the total DP-allocated candidate
// estimate of the workload under partitioning p — without refining.
func WorkloadCost(p *Partitioning, sample []bitvec.Vector, wl Workload, enumBudget int64) int64 {
	r := newRefiner(p.Clone(), sample, wl, enumBudget, 0)
	return r.totalCost()
}

// refiner caches each partition's projection of the sample — CN(q, e)
// over the sample is the number of its rows within e of q's projection,
// one histogram pass over them — and per-(query, partition) CN rows, so
// that evaluating a move only recomputes the two partitions it touches.
type refiner struct {
	sample     *verify.Codes // packed once: every move projects it
	wl         Workload
	maxTau     int
	enumBudget int64
	scale      float64 // full-collection rows per sample row
	parts      [][]int
	rows       [][]uint64    // each partition's sample projection, ProjectRows' words
	cn         [][][]int64   // [query][part] → CN row, scaled to full size
	home       []int         // dimension → partition
	dp         alloc.Scratch // reused DP grids: hill climbing allocates per candidate move otherwise
	hist       []int64       // cnRow's distance histogram
}

func newRefiner(p *Partitioning, sample []bitvec.Vector, wl Workload, enumBudget int64, totalRows int) *refiner {
	scale := 1.0
	if totalRows > len(sample) && len(sample) > 0 {
		scale = float64(totalRows) / float64(len(sample))
	}
	r := &refiner{
		sample:     verify.Pack(sample),
		wl:         wl,
		maxTau:     wl.MaxTau(),
		enumBudget: enumBudget,
		scale:      scale,
		parts:      p.Parts,
		home:       make([]int, p.Dims),
	}
	r.rows = make([][]uint64, len(r.parts))
	for i, part := range r.parts {
		r.rows[i] = r.project(part)
		for _, d := range part {
			r.home[d] = i
		}
	}
	r.cn = make([][][]int64, len(wl.Queries))
	for qi, q := range wl.Queries {
		r.cn[qi] = make([][]int64, len(r.parts))
		for i, part := range r.parts {
			r.cn[qi][i] = make([]int64, r.maxTau+2)
			r.cnRow(r.rows[i], part, q, r.cn[qi][i])
		}
	}
	return r
}

// project returns the sample projected onto part, ⌈len(part)/64⌉ words
// a row.
func (r *refiner) project(part []int) []uint64 { return invindex.ProjectRows(r.sample, part) }

// cnRow fills row with q's CN row on partition part, onto which the
// sample projects to rows — row[e+1] = CN(q, e) for e ∈ [−1, maxTau] —
// scaled to the full collection.
func (r *refiner) cnRow(rows []uint64, part []int, q bitvec.Vector, row []int64) {
	proj := q.Project(part).Words()
	bins := 64*len(proj) + 1 // every distance the words can produce
	r.hist = slices.Grow(r.hist[:0], bins)[:bins]
	clear(r.hist)
	histRows(rows, proj, r.sample.Len(), r.hist)
	alloc.Cumulate(r.hist, row)
	if r.scale == 1 {
		return
	}
	for i, v := range row {
		row[i] = int64(float64(v)*r.scale + 0.5)
	}
}

// histRows adds to hist[d] the n rows of rows, len(q) words each, that
// lie at Hamming distance d from q: a row of no words at distance 0.
func histRows(rows, q []uint64, n int, hist []int64) {
	switch len(q) {
	case 0:
		hist[0] += int64(n)
	case 1:
		for _, w := range rows {
			hist[bits.OnesCount64(w^q[0])]++
		}
	default:
		for at := 0; at < len(rows); at += len(q) {
			d := 0
			for j, w := range q {
				d += bits.OnesCount64(rows[at+j] ^ w)
			}
			hist[d]++
		}
	}
}

func (r *refiner) partOf(d int) int { return r.home[d] }

// singleton reports whether partition i is the only non-empty one.
func (r *refiner) singleton(i int) bool {
	for j, part := range r.parts {
		if j != i && len(part) > 0 {
			return false
		}
	}
	return true
}

func (r *refiner) widths() []int {
	w := make([]int, len(r.parts))
	for i, part := range r.parts {
		w[i] = len(part)
	}
	return w
}

func (r *refiner) totalCost() int64 {
	widths := r.widths()
	var total int64
	for qi := range r.wl.Queries {
		res := alloc.AllocateScratch(alloc.Table(r.cn[qi]), alloc.Params{
			Tau: r.wl.Taus[qi], Widths: widths, EnumBudget: r.enumBudget,
		}, &r.dp)
		total += res.Objective
	}
	return total
}

// tryMove returns the workload cost if dimension d moved from
// partition i to j, leaving the refiner state untouched.
func (r *refiner) tryMove(d, i, j int) int64 {
	newPi := without(r.parts[i], d)
	newPj := append(append([]int(nil), r.parts[j]...), d)
	rowsI, rowsJ := r.project(newPi), r.project(newPj)

	widths := r.widths()
	widths[i] = len(newPi)
	widths[j] = len(newPj)
	var total int64
	rowI := make([]int64, r.maxTau+2)
	rowJ := make([]int64, r.maxTau+2)
	for qi, q := range r.wl.Queries {
		r.cnRow(rowsI, newPi, q, rowI)
		r.cnRow(rowsJ, newPj, q, rowJ)
		savedI, savedJ := r.cn[qi][i], r.cn[qi][j]
		r.cn[qi][i], r.cn[qi][j] = rowI, rowJ
		res := alloc.AllocateScratch(alloc.Table(r.cn[qi]), alloc.Params{
			Tau: r.wl.Taus[qi], Widths: widths, EnumBudget: r.enumBudget,
		}, &r.dp)
		r.cn[qi][i], r.cn[qi][j] = savedI, savedJ
		total += res.Objective
	}
	return total
}

// applyMove commits the move and returns the new total cost.
func (r *refiner) applyMove(d, i, j int) int64 {
	r.parts[i] = without(r.parts[i], d)
	r.parts[j] = append(r.parts[j], d)
	r.home[d] = j
	r.rows[i], r.rows[j] = r.project(r.parts[i]), r.project(r.parts[j])
	for qi, q := range r.wl.Queries {
		r.cn[qi][i] = make([]int64, r.maxTau+2)
		r.cn[qi][j] = make([]int64, r.maxTau+2)
		r.cnRow(r.rows[i], r.parts[i], q, r.cn[qi][i])
		r.cnRow(r.rows[j], r.parts[j], q, r.cn[qi][j])
	}
	return r.totalCost()
}

func without(s []int, d int) []int {
	out := make([]int, 0, len(s)-1)
	for _, v := range s {
		if v != d {
			out = append(out, v)
		}
	}
	return out
}
