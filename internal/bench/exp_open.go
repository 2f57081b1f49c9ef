package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"gph/internal/engine"
	"gph/internal/mmapio"
)

// OpenReport is the machine-readable artifact of the open experiment,
// serialized to BENCH_open.json when Config.JSONPath is set. It pins
// the PR's acceptance numbers: cold-open wall time for heap load vs
// mmap open, resident-memory growth under query load, and query p99
// with a cold vs warm page cache.
type OpenReport struct {
	Scale        float64     `json:"scale"`
	Queries      int         `json:"queries"`
	ColdEviction bool        `json:"cold_eviction"` // false: platform can't evict, cold == warm
	Points       []OpenPoint `json:"points"`
}

// OpenPoint compares heap load against mmap open for one saved GPH
// index.
type OpenPoint struct {
	Dataset   string `json:"dataset"`
	Vectors   int    `json:"vectors"`
	Dims      int    `json:"dims"`
	FileBytes int64  `json:"file_bytes"`
	Tau       int    `json:"tau"`

	HeapOpenMs  float64 `json:"heap_open_ms"` // cold page cache, median
	MMapOpenMs  float64 `json:"mmap_open_ms"`
	OpenSpeedup float64 `json:"open_speedup"`

	// RSS growth from before open to after the full query workload —
	// the out-of-core claim: mmap residency tracks touched pages, heap
	// residency tracks index size. 0 when RSS is unavailable.
	HeapRSSDeltaBytes int64 `json:"heap_rss_delta_bytes"`
	MMapRSSDeltaBytes int64 `json:"mmap_rss_delta_bytes"`

	HeapColdP99Us float64 `json:"heap_cold_p99_us"`
	HeapWarmP99Us float64 `json:"heap_warm_p99_us"`
	MMapColdP99Us float64 `json:"mmap_cold_p99_us"`
	MMapWarmP99Us float64 `json:"mmap_warm_p99_us"`

	// ResultsMatch records the differential gate: every query answered
	// identically by the heap-loaded and mmap-opened index. The
	// experiment fails outright when false, so a checked-in report
	// always says true.
	ResultsMatch bool `json:"results_match"`
}

// openRounds is the number of open-time samples per mode; the median
// smooths scheduler noise without making the experiment slow.
const openRounds = 5

// Open benchmarks O(1) index opening: each dataset's GPH index is
// saved once, then opened repeatedly in heap mode (the classic Load —
// read and copy every byte) and mmap mode (map and validate, pages
// fault in on demand), with the page cache evicted before every cold
// sample. The same query workload runs against both opens and the
// result sets must match byte for byte — the differential gate CI
// relies on. Cold-vs-warm p99 makes the paging cost visible: the
// first queries against a cold mapping pay major faults that a heap
// load prepaid at open time.
func (r *Runner) Open() error {
	rep := OpenReport{Scale: r.cfg.Scale, Queries: r.cfg.Queries, ColdEviction: true}
	dir, err := os.MkdirTemp("", "gph-bench-open")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	t := newTable(r.cfg.Out, "dataset", "file MB", "heap open ms", "mmap open ms", "speedup",
		"heap RSS MB", "mmap RSS MB", "heap p99 cold/warm us", "mmap p99 cold/warm us", "match")
	for _, name := range []string{"gist", "uqvideo"} {
		c := r.load(name)
		tau := c.spec.taus[len(c.spec.taus)/2]
		e, err := engine.Build("gph", c.data.Vectors, engine.BuildOptions{
			NumPartitions: c.spec.m, Seed: r.cfg.Seed, BuildParallelism: r.cfg.BuildParallelism,
		})
		if err != nil {
			return err
		}
		path := filepath.Join(dir, name+".gph")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := e.Save(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		e = nil
		runtime.GC()

		pt := OpenPoint{Dataset: name, Vectors: len(c.data.Vectors), Dims: c.data.Dims,
			FileBytes: fi.Size(), Tau: tau}

		var want [][]int32
		for mi, mode := range []engine.OpenMode{engine.OpenHeap, engine.OpenMMap} {
			openMs, coldP99, warmP99, rssDelta, got, err := r.openOnce(path, mode, c, tau, &rep.ColdEviction)
			if err != nil {
				return fmt.Errorf("open %s in %s mode: %w", name, mode, err)
			}
			if mi == 0 {
				pt.HeapOpenMs, pt.HeapColdP99Us, pt.HeapWarmP99Us, pt.HeapRSSDeltaBytes = openMs, coldP99, warmP99, rssDelta
				want = got
			} else {
				pt.MMapOpenMs, pt.MMapColdP99Us, pt.MMapWarmP99Us, pt.MMapRSSDeltaBytes = openMs, coldP99, warmP99, rssDelta
				pt.ResultsMatch = len(got) == len(want)
				for i := range got {
					pt.ResultsMatch = pt.ResultsMatch && slices.Equal(got[i], want[i])
				}
			}
		}
		pt.OpenSpeedup = pt.HeapOpenMs / pt.MMapOpenMs
		if !pt.ResultsMatch {
			return fmt.Errorf("bench: open: %s mmap results differ from heap results", name)
		}
		t.row(name, mb(pt.FileBytes),
			fmt.Sprintf("%.3f", pt.HeapOpenMs), fmt.Sprintf("%.3f", pt.MMapOpenMs),
			fmt.Sprintf("%.1fx", pt.OpenSpeedup),
			mb(pt.HeapRSSDeltaBytes), mb(pt.MMapRSSDeltaBytes),
			fmt.Sprintf("%.0f/%.0f", pt.HeapColdP99Us, pt.HeapWarmP99Us),
			fmt.Sprintf("%.0f/%.0f", pt.MMapColdP99Us, pt.MMapWarmP99Us),
			pt.ResultsMatch)
		rep.Points = append(rep.Points, pt)
	}
	t.flush()
	return r.writeJSON(&rep)
}

// openOnce measures one mode end to end: median cold-open wall time
// over openRounds samples, p99 query latency against a cold and a warm
// page cache, RSS growth across open plus the query workload, and the
// full result sets for the differential gate.
func (r *Runner) openOnce(path string, mode engine.OpenMode, c *cachedDataset, tau int, eviction *bool) (openMs, coldP99, warmP99 float64, rssDelta int64, results [][]int32, err error) {
	evict := func() {
		if err := mmapio.DropFileCache(path); err != nil {
			*eviction = false
		}
	}

	var samples []time.Duration
	for i := 0; i < openRounds; i++ {
		evict()
		start := time.Now()
		e, err := engine.Open(path, mode)
		if err != nil {
			return 0, 0, 0, 0, nil, err
		}
		samples = append(samples, time.Since(start))
		if err := e.Close(); err != nil {
			return 0, 0, 0, 0, nil, err
		}
	}
	slices.Sort(samples)
	openMs = float64(samples[len(samples)/2].Nanoseconds()) / 1e6

	// One more cold open, kept: the query measurements run against it.
	runtime.GC()
	rssBefore := mmapio.ProcessResidentBytes()
	evict()
	e, err := engine.Open(path, mode)
	if err != nil {
		return 0, 0, 0, 0, nil, err
	}
	defer e.Close()

	var cold, warm []time.Duration
	for _, q := range c.queries {
		start := time.Now()
		ids, err := e.Search(q, tau)
		if err != nil {
			return 0, 0, 0, 0, nil, err
		}
		cold = append(cold, time.Since(start))
		results = append(results, ids)
	}
	rounds := 1 + 60/len(c.queries)
	for round := 0; round < rounds; round++ {
		for _, q := range c.queries {
			start := time.Now()
			if _, err := e.Search(q, tau); err != nil {
				return 0, 0, 0, 0, nil, err
			}
			warm = append(warm, time.Since(start))
		}
	}
	rssAfter := mmapio.ProcessResidentBytes()
	if rssBefore > 0 && rssAfter > rssBefore {
		rssDelta = rssAfter - rssBefore
	}
	coldP99 = float64(pct(cold, 99).Nanoseconds()) / 1e3
	warmP99 = float64(pct(warm, 99).Nanoseconds()) / 1e3
	return openMs, coldP99, warmP99, rssDelta, results, nil
}
