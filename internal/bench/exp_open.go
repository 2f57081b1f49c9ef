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
// serialized to BENCH_open.json when Config.JSONPath is set: cold-open
// wall time and time to the first answer for heap vs mmap opens,
// resident-memory growth under query load, and query p99 with a cold vs
// warm page cache.
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

	// Open is Open alone; ready is Open plus the first query, the point
	// at which both modes have done the same work: a heap open validates
	// the arenas' content before it returns, a mapped one on its first
	// query. Cold page cache, medians.
	HeapOpenMs  float64 `json:"heap_open_ms"`
	MMapOpenMs  float64 `json:"mmap_open_ms"`
	HeapReadyMs float64 `json:"heap_ready_ms"`
	MMapReadyMs float64 `json:"mmap_ready_ms"`

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

// Open benchmarks index opening: each dataset's GPH index is saved
// once, then opened repeatedly in heap mode (the file read into one
// buffer, decoded in place, validated in full) and mmap mode (mapped,
// decoded in place, content validation and page faults left to the
// first query), with the page cache evicted before every cold sample.
// Both columns are reported per mode — open, and ready = open + first
// query — because open alone compares a mode that has validated with
// one that has not. The same query workload runs against both opens
// and the result sets must match byte for byte — the differential gate
// CI relies on. Cold-vs-warm p99 makes the paging cost visible: the
// first queries against a cold mapping pay major faults that a heap
// open prepaid at open time.
func (r *Runner) Open() error {
	rep := OpenReport{Scale: r.cfg.Scale, Queries: r.cfg.Queries, ColdEviction: true}
	dir, err := os.MkdirTemp("", "gph-bench-open")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	t := newTable(r.cfg.Out, "dataset", "file MB", "heap open/ready ms", "mmap open/ready ms",
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
			openMs, readyMs, coldP99, warmP99, rssDelta, got, err := r.openOnce(path, mode, c, tau, &rep.ColdEviction)
			if err != nil {
				return fmt.Errorf("open %s in %s mode: %w", name, mode, err)
			}
			if mi == 0 {
				pt.HeapOpenMs, pt.HeapReadyMs, pt.HeapColdP99Us, pt.HeapWarmP99Us, pt.HeapRSSDeltaBytes = openMs, readyMs, coldP99, warmP99, rssDelta
				want = got
			} else {
				pt.MMapOpenMs, pt.MMapReadyMs, pt.MMapColdP99Us, pt.MMapWarmP99Us, pt.MMapRSSDeltaBytes = openMs, readyMs, coldP99, warmP99, rssDelta
				pt.ResultsMatch = len(got) == len(want)
				for i := range got {
					pt.ResultsMatch = pt.ResultsMatch && slices.Equal(got[i], want[i])
				}
			}
		}
		if !pt.ResultsMatch {
			return fmt.Errorf("bench: open: %s mmap results differ from heap results", name)
		}
		t.row(name, mb(pt.FileBytes),
			fmt.Sprintf("%.3f/%.3f", pt.HeapOpenMs, pt.HeapReadyMs),
			fmt.Sprintf("%.3f/%.3f", pt.MMapOpenMs, pt.MMapReadyMs),
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
// over openRounds samples and the median to the first answer behind it,
// p99 query latency against a cold and a warm page cache, RSS growth
// across open plus the query workload, and the full result sets for the
// differential gate.
func (r *Runner) openOnce(path string, mode engine.OpenMode, c *cachedDataset, tau int, eviction *bool) (openMs, readyMs, coldP99, warmP99 float64, rssDelta int64, results [][]int32, err error) {
	evict := func() {
		if err := mmapio.DropFileCache(path); err != nil {
			*eviction = false
		}
	}

	var opens, readies []time.Duration
	for i := 0; i < openRounds; i++ {
		evict()
		start := time.Now()
		e, err := engine.Open(path, mode)
		if err != nil {
			return 0, 0, 0, 0, 0, nil, err
		}
		opens = append(opens, time.Since(start))
		_, err = e.Search(c.queries[0], tau)
		readies = append(readies, time.Since(start))
		if err != nil {
			return 0, 0, 0, 0, 0, nil, err
		}
		if err := e.Close(); err != nil {
			return 0, 0, 0, 0, 0, nil, err
		}
	}
	slices.Sort(opens)
	slices.Sort(readies)
	openMs = float64(opens[len(opens)/2].Nanoseconds()) / 1e6
	readyMs = float64(readies[len(readies)/2].Nanoseconds()) / 1e6

	// One more cold open, kept: the query measurements run against it.
	runtime.GC()
	rssBefore := mmapio.ProcessResidentBytes()
	evict()
	e, err := engine.Open(path, mode)
	if err != nil {
		return 0, 0, 0, 0, 0, nil, err
	}
	defer e.Close()

	var cold, warm []time.Duration
	for _, q := range c.queries {
		start := time.Now()
		ids, err := e.Search(q, tau)
		if err != nil {
			return 0, 0, 0, 0, 0, nil, err
		}
		cold = append(cold, time.Since(start))
		results = append(results, ids)
	}
	rounds := 1 + 60/len(c.queries)
	for round := 0; round < rounds; round++ {
		for _, q := range c.queries {
			start := time.Now()
			if _, err := e.Search(q, tau); err != nil {
				return 0, 0, 0, 0, 0, nil, err
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
	return openMs, readyMs, coldP99, warmP99, rssDelta, results, nil
}
