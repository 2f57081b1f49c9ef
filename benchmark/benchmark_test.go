package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gph"
	"gph/datagen"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.50, 50}, {0.95, 100}, {0.90, 90}, {0.01, 10}, {1, 100}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 0.95); got != 7 {
		t.Errorf("single sample: %d", got)
	}
}

// The reducer keeps each request's minimum over the passes, so a
// delay that hits a different request in every pass vanishes from the
// filtered numbers and stays in the raw ones.
func TestBestOfPassesFiltersOneSidedNoise(t *testing.T) {
	const q, passes = 100, 10
	rec := newRecorder(q)
	for p := range passes {
		for i := range q {
			d := time.Duration(100+i) * time.Microsecond // request i's own cost
			if i%passes == p {
				d += 5 * time.Millisecond // the host's
			}
			rec.add(i, d)
		}
		rec.endPass(time.Second)
	}
	p50, p95, qps := rec.filtered()
	if p50 != 149 || p95 != 194 {
		t.Errorf("filtered p50=%v p95=%v, want 149 and 194", p50, p95)
	}
	var sumUs float64
	for i := range q {
		sumUs += float64(100 + i)
	}
	if want := q / (sumUs / 1e6); qps < want*0.999 || qps > want*1.001 {
		t.Errorf("filtered qps=%v, want %v", qps, want)
	}
	_, rawP95, rawQPS := rec.raw()
	if rawP95 < 5000 {
		t.Errorf("raw p95=%v should contain the injected delay", rawP95)
	}
	if rawQPS != q {
		t.Errorf("raw qps=%v, want %d (ops per second of pass wall time)", rawQPS, q)
	}
	if ns, ok := rec.firstPassesBest(1); !ok || ns != int64(sumUs*1e3)+q/passes*5e6 {
		t.Errorf("pass 0 alone sums to %d ns (ok=%v): its %d delayed requests must still carry their delay", ns, ok, q/passes)
	}
	if ns, ok := rec.firstPassesBest(2); !ok || ns != int64(sumUs*1e3) {
		t.Errorf("best of the first 2 passes sums to %d ns (ok=%v), want the undelayed %d", ns, ok, int64(sumUs*1e3))
	}
	if got := classMeanUs(rec.best, func(i int) bool { return i < 2 }); got != 100.5 {
		t.Errorf("class mean = %v, want 100.5", got)
	}
}

func TestRecorderRunsAtLeastMinPasses(t *testing.T) {
	rec := newRecorder(1)
	start := time.Now().Add(-time.Hour) // budget long gone
	for rec.more(start, time.Second) {
		rec.add(0, time.Microsecond)
		rec.endPass(time.Microsecond)
	}
	if rec.passes != minPasses {
		t.Errorf("%d passes, want %d", rec.passes, minPasses)
	}
}

func TestRequestListIsAFunctionOfTheSeed(t *testing.T) {
	ds, err := datagen.ByName("sift", 500, corpusSeed)
	if err != nil {
		t.Fatal(err)
	}
	list := func(seed int64) string {
		rng := newRand(seed)
		queries, source := sampleQueries(rng, ds.Vectors, 40, 4)
		schedule, _ := repeatSchedule(rng, 200, 40)
		var b strings.Builder
		for i, q := range queries {
			if d := gph.Hamming(q, ds.Vectors[source[i]]); d != 4 {
				t.Fatalf("query %d is %d bits from its source, want 4", i, d)
			}
			b.WriteString(q.String())
		}
		fmt.Fprint(&b, source, schedule)
		return b.String()
	}
	if list(7) != list(7) {
		t.Error("the same seed gave two request lists")
	}
	if list(7) == list(8) {
		t.Error("two seeds gave the same request list")
	}
}

func TestRepeatSchedulePlacesFirstOccurrencesBeforeRepeats(t *testing.T) {
	const total, distinct = 2000, 400
	schedule, first := repeatSchedule(newRand(3), total, distinct)
	seen := map[int]bool{}
	firsts := 0
	for i, q := range schedule {
		if first[i] {
			firsts++
			if seen[q] {
				t.Fatalf("slot %d is marked a first occurrence of query %d, seen before", i, q)
			}
			if q != len(seen) {
				t.Fatalf("slot %d introduces query %d, want %d (in order)", i, q, len(seen))
			}
		} else if !seen[q] {
			t.Fatalf("slot %d repeats query %d before its first occurrence", i, q)
		}
		seen[q] = true
	}
	if firsts != distinct || len(seen) != distinct {
		t.Errorf("%d first occurrences over %d queries, want %d", firsts, len(seen), distinct)
	}
}

func TestLiveModelMapsOracleAnswersToCurrentIDs(t *testing.T) {
	ds, err := datagen.ByName("sift", 50, corpusSeed)
	if err != nil {
		t.Fatal(err)
	}
	m := newLiveModel(ds.Vectors)
	near := oracleWithin(m.vecs, ds.Vectors[3], 0)
	if got := m.expected(near); len(got) != 1 || got[0] != 3 {
		t.Fatalf("expected %v, want [3]", got)
	}
	m.ids[3] = -1 // deleted
	if got := m.expected(near); len(got) != 0 {
		t.Errorf("deleted vector still expected: %v", got)
	}
	m.ids[3] = 77 // re-inserted under a new id
	if got := m.expected(near); len(got) != 1 || got[0] != 77 {
		t.Errorf("expected %v, want [77]", got)
	}
	if m.live() != 50 {
		t.Errorf("live = %d, want 50", m.live())
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer(4)
	tr.spans = []span{
		{Name: "request", Parent: -1, Start: 0, End: 100},
		{Name: "core.search", Parent: 0, Start: 10, End: 90},
		{Name: "alloc", Parent: 1, Start: 10, End: 70},
		{Name: "probe", Parent: 1, Start: 70, End: 85},
	}
	want := map[string]int64{"request": 20, "core.search": 5, "alloc": 60, "probe": 15}
	for _, l := range tr.selfTimes() {
		if l.SelfNs != want[l.Name] {
			t.Errorf("self time of %s = %d, want %d", l.Name, l.SelfNs, want[l.Name])
		}
	}
	var none *tracer // the untraced run
	none.end(none.begin("request", 0, -1))
}

func TestBenchmarkFileMatchesRunner(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkBenchmarkFile(filepath.Join(root, "BENCHMARK.json")); err != nil {
		t.Error(err)
	}
}

// tiny shrinks a workload to smoke-test size.
func (s spec) tiny() spec {
	s.n = 2000
	if s.requests > 0 {
		s.requests = 60
	}
	if s.distinct > 0 {
		s.distinct = 12
	}
	if s.churn > 0 {
		s.churn = 10
	}
	if s.updates > 0 {
		s.updates = 20
	}
	s.setups = 2
	return s
}

// TestSmoke runs all four workloads, untraced and traced, at toy
// sizes against a gph-server built into the test's temp dir, and
// checks the contract of the output: every metric BENCHMARK.json names
// is printed exactly once with its unit, nothing failed, and the last
// line is the JSON object the driver reads.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds gph-server and four indexes")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		units := map[string]string{}
		if traced {
			for _, m := range bf.PerLayer {
				units[m.Name] = m.Unit
			}
		} else {
			for _, m := range bf.EndToEnd {
				units[m.Name] = m.Unit
			}
		}
		for _, name := range workloadNames {
			t.Run(fmt.Sprintf("%s/traced=%v", name, traced), func(t *testing.T) {
				cfg := config{root: root, workdir: t.TempDir(), outDir: t.TempDir(), seed: 5, budget: 100 * time.Millisecond, traced: traced}
				res, err := runWorkload(context.Background(), cfg, specs[name].tiny())
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := res.print(&out); err != nil {
					t.Fatal(err)
				}
				if !res.correct() || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("attempted=%d failed=%d problems=%v", res.Attempted, res.Failed, res.Problems)
				}
				printed := map[string]int{}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				for _, line := range lines {
					f := strings.Fields(line)
					if len(f) == 4 && f[0] == "metric" {
						printed[f[1]]++
						if f[3] != units[f[1]] {
							t.Errorf("%s printed with unit %q, BENCHMARK.json says %q", f[1], f[3], units[f[1]])
						}
					}
				}
				for name := range units {
					if printed[name] != 1 {
						t.Errorf("%s printed %d times, want once", name, printed[name])
					}
				}
				var last struct {
					Correct   bool                  `json:"correct"`
					Attempted int                   `json:"attempted"`
					Failed    int                   `json:"failed"`
					Metrics   map[string]jsonMetric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
				}
				if !last.Correct || last.Attempted != res.Attempted || last.Failed != 0 || len(last.Metrics) != len(units) {
					t.Errorf("last line: correct=%v attempted=%d failed=%d metrics=%d, want true %d 0 %d", last.Correct, last.Attempted, last.Failed, len(last.Metrics), res.Attempted, len(units))
				}
				if !traced {
					for name, m := range last.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, must be positive", name, m.Value)
						}
					}
				} else if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+name+".json")); err != nil {
					t.Errorf("no trace file: %v", err)
				}
			})
		}
	}
}
