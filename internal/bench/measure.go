package bench

import (
	"fmt"
	"math"
	"slices"
	"time"

	"gph/internal/bitvec"
	"gph/internal/core"
	"gph/internal/dataset"
	"gph/internal/engine"
	"gph/internal/hmsearch"
	_ "gph/internal/linscan" // registers "linscan"
	_ "gph/internal/lsh"     // registers "lsh"
	"gph/internal/partalloc"
	"gph/internal/partition"
)

// corpus is one of the paper's five corpora and the τ it is swept over.
// The paper's τ assume 10⁶–10⁹ vectors, where Hamming balls are sparse;
// at this tree's sizes the index-useful range of the low-skew corpora
// sits at proportionally smaller τ.
type corpus struct {
	name string
	taus []int
}

var corpora = []corpus{
	{"sift", []int{4, 6, 8, 10, 12}},
	{"gist", []int{8, 16, 24, 32}},
	{"pubchem", []int{8, 16, 24, 32}},
	{"fasttext", []int{4, 8, 12, 16}},
	{"uqvideo", []int{8, 16, 24, 32, 40, 48}},
}

// paperCorpora are the three corpora of Figs. 2–5.
var paperCorpora = []corpus{corpora[0], corpora[1], corpora[2]}

// workload is a corpus generated at n, its queries, and linscan over it:
// the oracle every other engine's ids are checked against.
type workload struct {
	corpus
	data    []bitvec.Vector
	queries []bitvec.Vector
	scan    engine.Engine
}

func (l *ledger) load(c corpus, n int) (workload, error) {
	ds, err := dataset.ByName(c.name, n, seed)
	if err != nil {
		return workload{}, err
	}
	return newWorkload(c, ds, dataset.PerturbQueries(ds, l.cfg.Queries, 4, seed+1))
}

func newWorkload(c corpus, ds *dataset.Dataset, queries []bitvec.Vector) (workload, error) {
	scan, err := engine.Build("linscan", ds.Vectors, engine.BuildOptions{})
	return workload{c, ds.Vectors, queries, scan}, err
}

// system builds one engine as the ledger runs it. A perTau system is
// built for exactly the τ it answers; the others get the corpus's
// largest τ.
type system struct {
	name   string
	perTau bool
	build  func(data []bitvec.Vector, tau int) (engine.Engine, error)
}

// systems are Fig. 7's indexes.
var systems = []system{
	{"GPH", false, func(data []bitvec.Vector, tau int) (engine.Engine, error) {
		return core.Build(data, core.Options{MaxTau: tau, Seed: seed})
	}},
	{"MIH", false, func(data []bitvec.Vector, _ int) (engine.Engine, error) {
		m := max(2, data[0].Dims()/24) // GPH's default
		return engine.Build("mih", data, engine.BuildOptions{NumPartitions: m, Arrangement: osArrangement(data, m)})
	}},
	{"HmSearch", true, func(data []bitvec.Vector, tau int) (engine.Engine, error) {
		m := hmsearch.NumPartitions(data[0].Dims(), tau)
		return engine.Build("hmsearch", data, engine.BuildOptions{MaxTau: tau, Arrangement: osArrangement(data, m)})
	}},
	{"PartAlloc", true, func(data []bitvec.Vector, tau int) (engine.Engine, error) {
		m := partalloc.NumPartitions(data[0].Dims(), tau)
		return engine.Build("partalloc", data, engine.BuildOptions{MaxTau: tau, Arrangement: osArrangement(data, m)})
	}},
	{"LSH", true, func(data []bitvec.Vector, tau int) (engine.Engine, error) {
		return engine.Build("lsh", data, engine.BuildOptions{MaxTau: tau, Seed: seed})
	}},
}

// osArrangement is HmSearch's OS rearrangement for m partitions, computed
// on a sample of the data.
func osArrangement(data []bitvec.Vector, m int) *partition.Partitioning {
	return partition.OS(partition.SampleRows(data, 500, seed), data[0].Dims(), m)
}

// cell is one engine's answer to a workload's queries at one τ.
type cell struct {
	time    time.Duration // the median query's best of runs
	cand    float64       // mean candidates a query; a scanned one counts n
	scanned float64       // share of queries the guard scanned
	recall  float64       // |found ∩ truth| ÷ |truth|, pooled over queries
	// indexed counts the queries the index answered, and index sums
	// their Stats: Fig. 2 reads them.
	indexed int
	index   engine.Stats
}

// measure runs every query at tau on e and returns its cell and its ids.
// Against truth (nil for the oracle itself) an exact engine must return
// the same ids for every query, and an approximate one only true ids.
func (l *ledger) measure(e engine.Engine, queries []bitvec.Vector, tau int, truth [][]int32) (cell, [][]int32, error) {
	var c cell
	found := make([][]int32, len(queries))
	best := make([]time.Duration, len(queries))
	var hits, want int
	for i, q := range queries {
		best[i] = time.Duration(math.MaxInt64)
		for range runs {
			t0 := time.Now()
			if _, err := e.Search(q, tau); err != nil {
				return c, nil, err
			}
			best[i] = min(best[i], time.Since(t0)-l.clock)
		}
		// After the timed runs, so that the stats' clocks do not count
		// what a first query makes for itself (its scratch, say).
		ids, st, err := e.SearchStats(q, tau)
		if err != nil {
			return c, nil, err
		}
		found[i] = ids
		c.cand += float64(st.Candidates)
		if st.Scanned {
			c.scanned++
		} else {
			c.indexed++
			c.index.AllocNanos += st.AllocNanos
			c.index.ProbeNanos += st.ProbeNanos
			c.index.VerifyNanos += st.VerifyNanos
			c.index.SumPostings += st.SumPostings
			c.index.Candidates += st.Candidates
		}
		if truth != nil {
			hit := shared(ids, truth[i])
			if hit != len(ids) || e.Exact() && !slices.Equal(ids, truth[i]) {
				return c, nil, fmt.Errorf("bench: %s at τ = %d, query %d: %d ids, %d of them among linscan's %d",
					e.Name(), tau, i, len(ids), hit, len(truth[i]))
			}
			hits, want = hits+hit, want+len(truth[i])
		}
	}
	slices.Sort(best)
	c.time = best[len(best)/2]
	c.cand /= float64(len(queries))
	c.scanned /= float64(len(queries))
	c.recall = 1
	if want > 0 {
		c.recall = float64(hits) / float64(want)
	}
	return c, found, nil
}

// shared counts the ids two ascending lists share.
func shared(a, b []int32) int {
	n := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n, i, j = n+1, i+1, j+1
		}
	}
	return n
}

// run measures each engine on w at tau against linscan's ids, and
// linscan itself, last.
func (l *ledger) run(w workload, tau int, engines ...engine.Engine) ([]cell, error) {
	scan, truth, err := l.measure(w.scan, w.queries, tau, nil)
	if err != nil {
		return nil, err
	}
	cells := make([]cell, len(engines), len(engines)+1)
	for i, e := range engines {
		if cells[i], _, err = l.measure(e, w.queries, tau, truth); err != nil {
			return nil, err
		}
	}
	return append(cells, scan), nil
}

// noSlower says a's time is within the tie of b's or below it.
func noSlower(a, b cell) bool { return float64(a.time) <= tie*float64(b.time) }

// timeCell renders a cell's time and scanned share.
func timeCell(c cell) string {
	return fmt.Sprintf("%s µs, %s scanned", us(c.time), pct(c.scanned))
}

// candCell is timeCell with the candidates a query.
func candCell(c cell) string {
	return fmt.Sprintf("%s µs, %.0f cand, %s scanned", us(c.time), c.cand, pct(c.scanned))
}
