package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"gph"
	"gph/datagen"
)

// tracedPasses is how many passes the traced run records spans for.
const tracedPasses = 3

// libBuilds is how often a lib run builds its index.
const libBuilds = 2

// libRun is the state the lib workloads' phases share.
type libRun struct {
	cfg      config
	sp       spec
	res      *result
	data     []gph.Vector
	queries  []gph.Vector
	expected [][]int32 // oracle answer per query
	engine   gph.Engine
}

// runLib runs lib_selective or lib_wide: build the gph engine
// in-process, check every answer against the oracle, then replay the
// query list from this one goroutine.
func runLib(cfg config, sp spec) (*result, error) {
	r := &libRun{cfg: cfg, sp: sp, res: newResult(sp.name, cfg.traced)}
	res := r.res

	start := time.Now()
	ds, err := datagen.ByName(sp.dataset, sp.n, corpusSeed)
	if err != nil {
		return nil, err
	}
	res.set("dataset.gen_s", time.Since(start).Seconds())
	r.data = ds.Vectors
	r.queries, _ = sampleQueries(newRand(cfg.seed), r.data, sp.requests, sp.flips)
	res.Params = map[string]any{"dataset": sp.dataset, "n": sp.n, "dims": r.data[0].Dims(), "tau": sp.tau, "Q": sp.requests}

	// The index is built twice: the builds must agree byte for byte, or
	// the passes would not be measuring one index. The first is saved
	// for the timed opens below.
	builds := libBuilds
	if cfg.traced {
		builds = 1
	}
	indexPath := filepath.Join(cfg.workdir, sp.name+".index")
	var buildSecs []float64
	var firstSum [sha256.Size]byte
	var firstSize int64
	for i := range builds {
		r.engine = nil
		runtime.GC()
		start := time.Now()
		e, err := gph.BuildEngine("gph", r.data, gph.EngineOptions{Seed: buildSeed})
		if err != nil {
			return nil, fmt.Errorf("build: %w", err)
		}
		buildSecs = append(buildSecs, time.Since(start).Seconds())
		r.engine = e
		digest, err := saveEngine(e, indexPath, i == 0)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			firstSum, firstSize = digest, e.SizeBytes()
		} else if digest != firstSum || e.SizeBytes() != firstSize {
			res.problemf("self-check: build %d differs from build 0 (saved bytes equal: %v, size %d vs %d)", i, digest == firstSum, e.SizeBytes(), firstSize)
		}
	}
	res.set("engine.build_s", slices.Min(buildSecs))
	res.set("index_mb", float64(r.engine.SizeBytes())/(1<<20))
	if ix, ok := r.engine.(*gph.Index); ok {
		bs := ix.BuildStats()
		res.set("partition.build_s", float64(bs.PartitionNanos)/1e9)
		res.set("invindex.build_s", float64(bs.IndexNanos)/1e9)
		res.set("candest.build_s", float64(bs.EstimatorNanos)/1e9)
	}

	r.expected = make([][]int32, len(r.queries))
	for i, q := range r.queries {
		r.expected[i] = oracleWithin(r.data, q, sp.tau)
	}

	// Set-up, as a process that serves queries pays it at every start:
	// open the saved index from disk and answer one query — always the
	// same one (stored vector 0), because a fresh index's first search
	// sizes its scratch by the query and costs 3–4 ms more for some.
	// (The build is not the gated set-up time: it is one CPU-bound
	// sample of several seconds, which no repetition inside a run can
	// filter, and this host runs it 30 % slower for a quarter of an
	// hour at a time. It is the per-layer engine.build_s.)
	if !cfg.traced {
		probe := r.data[0]
		want := oracleWithin(r.data, probe, sp.tau)
		var openSecs []float64
		for range sp.setups {
			start := time.Now()
			opened, err := gph.OpenEngine(indexPath, gph.OpenHeap)
			if err != nil {
				return nil, fmt.Errorf("open %s: %w", indexPath, err)
			}
			ids, err := opened.Search(probe, sp.tau)
			openSecs = append(openSecs, time.Since(start).Seconds())
			res.Attempted++
			if err != nil || !slices.Equal(ids, want) {
				res.fail("first query after open: err=%v, %d ids, oracle has %d", err, len(ids), len(want))
			}
			if err := opened.Close(); err != nil {
				return nil, err
			}
			runtime.GC() // or rss_mb would count every dead copy of the index
		}
		res.set("setup_s", slices.Min(openSecs))
	}

	// Pass 0, untimed: warms caches and compares every answer, id for
	// id, with the oracle.
	r.checkAgainstOracle("gph", r.engine)

	if !cfg.traced {
		rec := newRecorder(len(r.queries))
		r.replay(rec, nil, cfg.budget)
		p50, p95, qps := rec.filtered()
		res.set("p50_us", p50)
		res.set("p95_us", p95)
		res.set("qps", qps)
		res.Params["P"] = rec.passes
		rss, err := peakRSSMiB(os.Getpid())
		if err != nil {
			return nil, err
		}
		res.set("rss_mb", rss)
		return res, nil
	}

	// Traced run: an untraced replay for the raw numbers and the Go
	// runtime's share, then the same list with spans, then the direct
	// layer timings on the same inputs.
	host := newHostRef()
	var before, after runtime.MemStats
	ticks := readCPUTicks()
	runtime.ReadMemStats(&before)
	rec := newRecorder(len(r.queries))
	r.replay(rec, host, cfg.budget/2)
	runtime.ReadMemStats(&after)
	ops := float64(len(rec.all))
	res.set("go.alloc_b_per_op", float64(after.TotalAlloc-before.TotalAlloc)/ops)
	res.set("go.allocs_per_op", float64(after.Mallocs-before.Mallocs)/ops)
	res.set("go.gc_cycles", float64(after.NumGC-before.NumGC))
	res.Params["P"] = rec.passes

	tr := newTracer(tracedPasses * len(r.queries) * 5)
	traced := newRecorder(len(r.queries))
	stats := r.replayTraced(traced, tr)
	reportTraced(res, rec, traced, host, ticks)

	n := float64(tracedPasses * len(r.queries))
	res.set("core.alloc_us", float64(stats.allocNs)/n/1e3)
	res.set("core.probe_us", float64(stats.probeNs)/n/1e3)
	res.set("core.verify_us", float64(stats.verifyNs)/n/1e3)
	res.set("core.candidates", float64(stats.candidates)/n)
	res.set("core.signatures", float64(stats.signatures)/n)
	res.set("core.sum_postings", float64(stats.sumPostings)/n)
	res.set("core.results", float64(stats.results)/n)
	res.set("core.useful_ratio", float64(stats.results)/float64(max(stats.candidates, 1)))
	res.set("core.scanned_ratio", float64(stats.scanned)/n)

	if err := r.probeLayers(stats); err != nil {
		return nil, err
	}
	if err := tr.report(os.Stdout, sp.name, filepath.Join(cfg.outDir, "trace-"+sp.name+".json")); err != nil {
		return nil, err
	}
	return res, nil
}

// saveEngine serializes e, returns the digest of the bytes and, when
// keep is set, leaves them in the file at path.
func saveEngine(e gph.Engine, path string, keep bool) (digest [sha256.Size]byte, err error) {
	h := sha256.New()
	var w io.Writer = h
	if keep {
		f, err := os.Create(path)
		if err != nil {
			return digest, err
		}
		defer f.Close()
		w = io.MultiWriter(h, f)
	}
	if err := e.Save(w); err != nil {
		return digest, fmt.Errorf("save: %w", err)
	}
	h.Sum(digest[:0])
	return digest, nil
}

// checkAgainstOracle runs every query once through e and compares the
// ids with the oracle's.
func (r *libRun) checkAgainstOracle(name string, e gph.Engine) {
	for i, q := range r.queries {
		r.res.Attempted++
		ids, err := e.Search(q, r.sp.tau)
		switch {
		case err != nil:
			r.res.fail("%s query %d: %v", name, i, err)
		case !slices.Equal(ids, r.expected[i]):
			r.res.fail("%s query %d: got %d ids, oracle has %d", name, i, len(ids), len(r.expected[i]))
		}
	}
}

// replay runs timed passes over the query list until the budget is
// spent. Inside the timed region there is only the Search call; the
// cheap length check afterwards keeps a wrong answer from passing as
// a fast one without touching memory the next query needs.
func (r *libRun) replay(rec *recorder, host *hostRef, budget time.Duration) {
	start := time.Now()
	for rec.more(start, budget) {
		passStart := time.Now()
		for i, q := range r.queries {
			t0 := time.Now()
			ids, err := r.engine.Search(q, r.sp.tau)
			rec.add(i, time.Since(t0))
			r.res.Attempted++
			if err != nil || len(ids) != len(r.expected[i]) {
				r.res.fail("query %d in pass %d: err=%v, %d ids, oracle has %d", i, rec.passes, err, len(ids), len(r.expected[i]))
			}
		}
		rec.endPass(time.Since(passStart))
		if host != nil {
			host.sample()
		}
	}
}

// phaseTotals sums what SearchStats reported over the traced passes.
type phaseTotals struct {
	allocNs, probeNs, verifyNs      int64
	candidates, signatures, results int64
	sumPostings, scanned            int64
	thresholds                      [][]int // per query, from the last pass
}

// replayTraced replays the list tracedPasses times through
// SearchStats with a span around every call; the phases SearchStats
// times itself become child spans of core.search.
func (r *libRun) replayTraced(rec *recorder, tr *tracer) phaseTotals {
	tot := phaseTotals{thresholds: make([][]int, len(r.queries))}
	for pass := range tracedPasses {
		tr.pass = pass
		passStart := time.Now()
		for i, q := range r.queries {
			req := tr.begin("request", i, -1)
			call := tr.begin("core.search", i, req)
			t0 := time.Now()
			ids, st, err := r.engine.SearchStats(q, r.sp.tau)
			rec.add(i, time.Since(t0))
			tr.end(call)
			r.res.Attempted++
			if err != nil || !slices.Equal(ids, r.expected[i]) {
				r.res.fail("traced query %d: err=%v, %d ids, oracle has %d", i, err, len(ids), len(r.expected[i]))
				tr.end(req)
				continue
			}
			tr.child("alloc", call, 0, st.AllocNanos)
			tr.child("probe", call, st.AllocNanos, st.ProbeNanos)
			tr.child("verify", call, st.AllocNanos+st.ProbeNanos, st.VerifyNanos)
			tot.allocNs += st.AllocNanos
			tot.probeNs += st.ProbeNanos
			tot.verifyNs += st.VerifyNanos
			tot.candidates += int64(st.Candidates)
			tot.signatures += int64(st.Signatures)
			tot.sumPostings += st.SumPostings
			tot.results += int64(st.Results)
			if st.Scanned {
				tot.scanned++
			}
			tot.thresholds[i] = st.Thresholds
			tr.end(req)
		}
		rec.endPass(time.Since(passStart))
	}
	return tot
}
