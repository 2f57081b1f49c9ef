package bench

import (
	"bytes"
	"fmt"
	"time"

	"gph/internal/bitvec"
	"gph/internal/core"
	"gph/internal/engine"
	"gph/internal/hmsearch"
	"gph/internal/linscan"
	"gph/internal/lsh"
	"gph/internal/mih"
	"gph/internal/partalloc"
	"gph/internal/partition"
)

// Fig6Report is the machine-readable artifact of the fig6 experiment
// (Config.JSONPath): exact per-algorithm index sizes plus what the GPH
// index of each dataset costs to persist and load.
type Fig6Report struct {
	Scale   float64            `json:"scale"`
	Points  []Fig6Point        `json:"points"`
	Persist []Fig6PersistPoint `json:"persist"`
}

// Fig6Point is one (dataset, τ, algorithm) index size.
type Fig6Point struct {
	Dataset   string `json:"dataset"`
	Tau       int    `json:"tau"`
	Algo      string `json:"algo"`
	SizeBytes int64  `json:"size_bytes"`
}

// Fig6PersistPoint is one dataset's GPH index at rest: the saved file,
// the time to load it back into the heap, and where the resident bytes
// are, summed over the partitions (core.Index.ArenaBreakdown).
type Fig6PersistPoint struct {
	Dataset    string `json:"dataset"`
	FileBytes  int64  `json:"file_bytes"`
	LoadNanos  int64  `json:"load_nanos"`
	KeyBytes   int64  `json:"key_bytes"`
	PostBytes  int64  `json:"posting_bytes"`
	EntryBytes int64  `json:"entry_bytes"`
	DirBytes   int64  `json:"directory_bytes"`
}

// Fig6 reproduces Fig. 6: index sizes of all algorithms across the
// five datasets and τ settings. Every number is exact arena
// accounting on the frozen indexes — arithmetic over real backing
// arrays, not a per-key guess at Go map overhead. The paper's shape:
// GPH ≳ MIH (the paper's difference is its learned estimators; here
// CN estimation reads the frozen index and adds nothing) and both well
// below HmSearch / PartAlloc (deletion variants) with LSH varying by
// τ. A second table reports each dataset's GPH index at rest: saved
// file, load time, and the resident index by component — keys, posting
// lists, refs and counts, bucket directories.
func (r *Runner) Fig6() error {
	t := newTable(r.cfg.Out, "dataset", "tau", "GPH(MB)", "MIH(MB)", "HmSearch(MB)", "PartAlloc(MB)", "LSH(MB)")
	rep := Fig6Report{Scale: r.cfg.Scale}
	for _, spec := range specs() {
		c := r.load(spec.name)
		gphIx, err := r.buildGPH(c, 0)
		if err != nil {
			return err
		}
		mihSys := mihSystem(spec.m)
		mihIx, err := mihSys.build(c.data.Vectors, 0, r.cfg.Seed)
		if err != nil {
			return err
		}
		for _, tau := range c.spec.taus {
			cells := []interface{}{spec.name, tau, mb(gphIx.SizeBytes()), mb(mihIx.SizeBytes())}
			rep.Points = append(rep.Points,
				Fig6Point{spec.name, tau, "GPH", gphIx.SizeBytes()},
				Fig6Point{spec.name, tau, "MIH", mihIx.SizeBytes()})
			for _, sys := range []system{hmSystem(), paSystem(), lshSystem()} {
				s, err := sys.build(c.data.Vectors, tau, r.cfg.Seed)
				if err != nil {
					return err
				}
				cells = append(cells, mb(s.SizeBytes()))
				rep.Points = append(rep.Points, Fig6Point{spec.name, tau, sys.name, s.SizeBytes()})
			}
			t.row(cells...)
		}

		fileBytes, loadNanos, err := measureLoad(gphIx)
		if err != nil {
			return err
		}
		keys, posts, entries, dirs := gphIx.ArenaBreakdown()
		rep.Persist = append(rep.Persist, Fig6PersistPoint{spec.name, fileBytes, loadNanos, keys, posts, entries, dirs})
	}
	t.flush()

	fmt.Fprintln(r.cfg.Out, "[GPH index at rest]")
	pt := newTable(r.cfg.Out, "dataset", "file(MB)", "load(ms)", "keys(MB)", "lists(MB)", "entries(MB)", "dir(MB)")
	for _, p := range rep.Persist {
		pt.row(p.Dataset, mb(p.FileBytes), ms(p.LoadNanos), mb(p.KeyBytes), mb(p.PostBytes), mb(p.EntryBytes), mb(p.DirBytes))
	}
	pt.flush()
	return r.writeJSON(rep)
}

// measureLoad saves ix and times loading it back into the heap: the
// file size and the best of three loads.
func measureLoad(ix *core.Index) (fileBytes, loadNanos int64, err error) {
	var file bytes.Buffer
	if err := ix.Save(&file); err != nil {
		return 0, 0, err
	}
	for trial := 0; trial < 3; trial++ {
		start := time.Now()
		if _, err := core.Load(bytes.NewReader(file.Bytes())); err != nil {
			return 0, 0, err
		}
		if d := time.Since(start).Nanoseconds(); trial == 0 || d < loadNanos {
			loadNanos = d
		}
	}
	return int64(file.Len()), loadNanos, nil
}

// Table4 reproduces Table IV: index construction time on the
// GIST-like dataset. GPH's time is decomposed into partitioning +
// indexing, as the paper reports ("5026 + 560").
func (r *Runner) Table4() error {
	c := r.load("gist")
	data := c.data.Vectors
	dims := c.data.Dims
	t := newTable(r.cfg.Out, "tau", "MIH(s)", "HmSearch(s)", "PartAlloc(s)", "LSH(s)", "GPH(s part+index)")

	// MIH and GPH are τ-independent: build once, report flat.
	start := time.Now()
	sample := partition.SampleRows(data, 500, r.cfg.Seed)
	arr := partition.OS(sample, dims, c.spec.m)
	if _, err := mih.Build(data, mih.Options{NumPartitions: c.spec.m, Arrangement: arr}); err != nil {
		return err
	}
	mihSecs := time.Since(start).Seconds()

	gphIx, err := core.Build(data, core.Options{
		NumPartitions: c.spec.m, MaxTau: 64, Seed: r.cfg.Seed,
		BuildParallelism: r.cfg.BuildParallelism,
	})
	if err != nil {
		return err
	}
	bs := gphIx.BuildStats()
	gphCell := fmt.Sprintf("%.2f + %.2f",
		float64(bs.PartitionNanos)/1e9,
		float64(bs.IndexNanos)/1e9)

	for _, tau := range []int{16, 32, 48, 64} {
		start = time.Now()
		if _, err := hmsearch.Build(data, tau, hmsearch.Options{}); err != nil {
			return err
		}
		hmSecs := time.Since(start).Seconds()

		start = time.Now()
		if _, err := partalloc.Build(data, tau, partalloc.Options{}); err != nil {
			return err
		}
		paSecs := time.Since(start).Seconds()

		start = time.Now()
		if _, err := lsh.Build(data, tau, lsh.Options{Seed: r.cfg.Seed}); err != nil {
			return err
		}
		lshSecs := time.Since(start).Seconds()

		t.row(tau, fmt.Sprintf("%.2f", mihSecs), fmt.Sprintf("%.2f", hmSecs),
			fmt.Sprintf("%.2f", paSecs), fmt.Sprintf("%.2f", lshSecs), gphCell)
	}
	t.flush()
	return nil
}

// Fig7Report is the machine-readable artifact of the fig7 experiment
// (Config.JSONPath): per-algorithm candidates, query time and recall
// across the datasets and τ sweeps.
type Fig7Report struct {
	Scale   float64     `json:"scale"`
	Queries int         `json:"queries"`
	Points  []Fig7Point `json:"points"`
}

// Fig7Point is one (dataset, τ, algorithm) measurement.
type Fig7Point struct {
	Dataset       string  `json:"dataset"`
	Tau           int     `json:"tau"`
	Algo          string  `json:"algo"`
	AvgCandidates float64 `json:"avg_candidates"`
	AvgTimeMs     float64 `json:"avg_time_ms"`
	Recall        float64 `json:"recall"`
}

// Fig7 reproduces Fig. 7: candidate numbers and query times of every
// algorithm on every dataset across the τ sweeps. The paper's shape:
// GPH has the fewest candidates and the lowest time throughout, with
// speedups vs the runner-up growing with skew (up to two orders of
// magnitude on PubChem); LSH collapses on skewed data. LSH rows also
// report recall, since it is approximate.
func (r *Runner) Fig7() error {
	rep := Fig7Report{Scale: r.cfg.Scale, Queries: r.cfg.Queries}
	for _, spec := range specs() {
		c := r.load(spec.name)
		truth, err := linscan.New(c.data.Vectors)
		if err != nil {
			return err
		}
		fmt.Fprintf(r.cfg.Out, "[%s, n=%d, dims=%d]\n", spec.name, c.data.Len(), c.data.Dims)
		t := newTable(r.cfg.Out, "tau", "algo", "avg-cand", "avg-time(ms)", "recall")
		gphIx, err := r.buildGPH(c, 0)
		if err != nil {
			return err
		}
		mihS, err := mihSystem(spec.m).build(c.data.Vectors, 0, r.cfg.Seed)
		if err != nil {
			return err
		}
		for _, tau := range c.spec.taus {
			truthCounts := make([]int, len(c.queries))
			var truthTotal int
			for qi, q := range c.queries {
				ids, err := truth.Search(q, tau)
				if err != nil {
					return err
				}
				truthCounts[qi] = len(ids)
				truthTotal += len(ids)
			}
			row := func(algo string, s engine.Engine) error {
				avg, agg, err := measure(s, c.queries, tau)
				if err != nil {
					return err
				}
				recall := 1.0
				if truthTotal > 0 {
					recall = float64(agg.results) / float64(truthTotal)
				}
				t.row(tau, algo, agg.candidates/len(c.queries), ms(avg.Nanoseconds()),
					fmt.Sprintf("%.2f", recall))
				rep.Points = append(rep.Points, Fig7Point{
					Dataset: spec.name, Tau: tau, Algo: algo,
					AvgCandidates: float64(agg.candidates) / float64(len(c.queries)),
					AvgTimeMs:     float64(avg.Nanoseconds()) / 1e6,
					Recall:        recall,
				})
				return nil
			}
			if err := row("GPH", gphIx); err != nil {
				return err
			}
			if err := row("MIH", mihS); err != nil {
				return err
			}
			for _, sys := range []system{hmSystem(), paSystem(), lshSystem()} {
				s, err := sys.build(c.data.Vectors, tau, r.cfg.Seed)
				if err != nil {
					return err
				}
				if err := row(sys.name, s); err != nil {
					return err
				}
			}
		}
		t.flush()
	}
	return r.writeJSON(rep)
}

// scanBaselineNanos measures the naive linear scan for context rows.
func scanBaselineNanos(data []bitvec.Vector, queries []bitvec.Vector, tau int) (int64, error) {
	sc, err := linscan.New(data)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for _, q := range queries {
		if _, err := sc.Search(q, tau); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Nanoseconds() / int64(len(queries)), nil
}
