package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// metricDef names one metric the runner prints. The two tables below
// are the single source of truth: BENCHMARK.json is checked against
// them (-check), and a run prints exactly one line per entry.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Moves says which end-to-end metric, on which workload, a change
	// to this layer metric should move (per-layer metrics only; the
	// README renders it as the interaction table).
	Moves string
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them (untraced run).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "p50_us", Unit: "us", Better: "lower"},
	{Name: "p95_us", Unit: "us", Better: "lower"},
	{Name: "qps", Unit: "ops/s", Better: "higher"},
	{Name: "index_mb", Unit: "MiB", Better: "lower"},
	{Name: "rss_mb", Unit: "MiB", Better: "lower"},
}

// perLayer is what the traced run (-trace 1) prints. A metric whose
// layer a workload does not exercise is printed as 0 there.
var perLayer = []metricDef{
	{"dataset.gen_s", "s", "lower", "none (input generation; excluded from setup_s)"},

	{"engine.build_s", "s", "lower", "none (gph.BuildEngine wall time on lib_*; too host-dependent to gate)"},
	{"partition.build_s", "s", "lower", "engine.build_s on lib_*"},
	{"invindex.build_s", "s", "lower", "engine.build_s on lib_*"},
	{"candest.build_s", "s", "lower", "engine.build_s on lib_*"},
	{"shard.build_s", "s", "lower", "prep of serve_*; shard.compact_s"},
	{"shard.compact_s", "s", "lower", "serve_write maintenance (POST /compact until done)"},

	{"core.alloc_us", "us", "lower", "p50_us, qps on lib_selective"},
	{"core.probe_us", "us", "lower", "p95_us, qps on lib_wide"},
	{"core.verify_us", "us", "lower", "p95_us, qps on lib_wide"},
	{"core.candidates", "count", "lower", "core.verify_us on lib_wide"},
	{"core.signatures", "count", "lower", "core.probe_us on lib_wide"},
	{"core.sum_postings", "count", "lower", "core.probe_us on lib_wide"},
	{"core.results", "count", "higher", "none (fixed by the oracle)"},
	{"core.useful_ratio", "ratio", "higher", "core.verify_us on lib_wide"},
	{"core.scanned_ratio", "ratio", "lower", "p95_us on lib_wide"},
	{"candest.cn_all_us", "us", "lower", "core.alloc_us, p50_us on lib_selective"},
	{"alloc.dp_us", "us", "lower", "core.alloc_us, p50_us on lib_selective"},
	{"hamming.enum_ns_per_sig", "ns", "lower", "core.probe_us, qps on lib_wide"},
	{"invindex.probe_hit_ns", "ns", "lower", "core.probe_us, qps on lib_wide"},
	{"invindex.probe_miss_ns", "ns", "lower", "core.probe_us, qps on lib_wide"},
	{"verify.scan_ns_per_row", "ns", "lower", "p95_us on serve_read (miss path)"},
	{"verify.scan_gb_s", "GB/s", "higher", "p95_us on serve_read (miss path)"},
	{"verify.filter_ns_per_cand", "ns", "lower", "core.verify_us, qps on lib_wide"},
	{"mih.p50_us", "us", "lower", "none (reference line for the GPH <= MIH gate)"},
	{"mih.candidates", "count", "lower", "none (reference line)"},
	{"linscan.p50_us", "us", "lower", "none (reference line)"},
	{"hmsearch.p50_us", "us", "lower", "none (reference line)"},
	{"engine.batch_qps", "ops/s", "higher", "none (parallel batch throughput on lib_*)"},
	{"go.alloc_b_per_op", "B", "lower", "rss_mb, raw.qps on lib_*"},
	{"go.allocs_per_op", "count", "lower", "raw.qps on lib_*"},
	{"go.gc_cycles", "count", "lower", "raw.qps on lib_* (GC cost best-of-P filters)"},

	{"plan.route_ns", "ns", "lower", "p95_us on serve_read when the planner consults the cost model"},
	{"plan.cache_get_ns", "ns", "lower", "p50_us on serve_read (hit path)"},
	{"plan.cache_put_ns", "ns", "lower", "p95_us on serve_read (miss path)"},
	{"plan.cache_hit_ratio", "ratio", "higher", "p50_us on serve_read"},
	{"plan.routed_scan_ratio", "ratio", "lower", "p95_us on serve_read; 1 means the index path is idle"},
	{"plan.estimate_us", "us", "lower", "p95_us on serve_read if routing consults the DP"},
	{"plan.scan_ns_per_row", "ns", "lower", "p95_us on serve_read"},

	{"shard.search_us", "us", "lower", "p95_us on serve_read (miss path without HTTP)"},
	{"shard.insert_us", "us", "lower", "p95_us on serve_write"},
	{"shard.delete_us", "us", "lower", "p95_us on serve_write"},
	{"shard.delta_scan_us", "us", "lower", "p50_us on serve_write (search cost of pending delta and tombstones)"},
	{"wal.append_us", "us", "lower", "p95_us on serve_write"},
	{"wal.replay_us_per_rec", "us", "lower", "setup_s on serve_write"},
	{"wal.bytes_per_update", "B", "lower", "setup_s on serve_write"},
	{"persist.save_s", "s", "lower", "prep of serve_*"},
	{"persist.snapshot_mb", "MiB", "lower", "setup_s on serve_*"},
	{"persist.load_heap_s", "s", "lower", "setup_s on serve_*"},
	{"persist.open_mmap_s", "s", "lower", "setup_s on serve_* if the server opened with -mmap"},
	{"mmapio.first_query_us", "us", "lower", "first-request latency after an mmap open"},

	{"serve.hit_us", "us", "lower", "p50_us on serve_read"},
	{"serve.miss_us", "us", "lower", "p95_us on serve_read"},
	{"serve.search_us", "us", "lower", "p50_us on serve_write"},
	{"serve.insert_us", "us", "lower", "p95_us on serve_write"},
	{"serve.delete_us", "us", "lower", "p95_us on serve_write"},
	{"serve.wire_overhead_us", "us", "lower", "p50_us on serve_read (HTTP decode + JSON encode + loopback)"},
	{"serve.resp_bytes", "B", "lower", "p50_us on serve_read"},

	{"raw.p50_us", "us", "lower", "none (all samples, no best-of-P filter)"},
	{"raw.p95_us", "us", "lower", "none (all samples, no best-of-P filter)"},
	{"raw.qps", "ops/s", "higher", "none (wall-clock throughput, no filter)"},
	{"host.ref_us", "us", "lower", "none (fixed 16 MiB popcount loop, best; host speed)"},
	{"host.ref_med_us", "us", "lower", "none (same loop, median; host interference)"},
	{"host.steal_pct", "%", "lower", "none (hypervisor steal from /proc/stat)"},
	{"trace.overhead_pct", "%", "lower", "none (raw.qps untraced vs traced)"},
	{"trace.passes", "count", "higher", "none (untraced passes the traced run's numbers rest on)"},
}

// result is one workload run: the metric values by name plus the
// operation accounting every run reports.
type result struct {
	Workload  string
	Traced    bool
	Attempted int
	Failed    int
	// Problems lists every oracle mismatch, transport error and failed
	// self-check (first few of each kind); any entry makes the run
	// incorrect.
	Problems []string
	Values   map[string]float64
	// Params records the run's shape for the -json copy.
	Params map[string]any
}

func newResult(workload string, traced bool) *result {
	return &result{Workload: workload, Traced: traced, Values: map[string]float64{}, Params: map[string]any{}}
}

func (r *result) set(name string, v float64) { r.Values[name] = v }

// problemf records a correctness problem; only the first few are kept
// verbatim, the count is what decides.
func (r *result) problemf(format string, args ...any) {
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// fail counts one failed operation.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.problemf(format, args...)
}

func (r *result) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

func (r *result) table() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes one "metric" line per table entry, then the problems,
// then the one-line JSON object the driver reads (last line).
func (r *result) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s traced=%v attempted=%d failed=%d\n", r.Workload, r.Traced, r.Attempted, r.Failed)
	metrics := map[string]jsonMetric{}
	for _, d := range r.table() {
		v := r.Values[d.Name]
		fmt.Fprintf(w, "metric %-26s %16.4f %s\n", d.Name, v, d.Unit)
		metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "problem %s\n", p)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.correct(),
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// checkBenchmarkFile compares BENCHMARK.json with what the runner
// prints: the gated workloads, same metric names, units and directions.
func checkBenchmarkFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var problems []string
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if want := slices.Sorted(slices.Values(workloadNames[:gatedWorkloads])); !slices.Equal(names, want) {
		problems = append(problems, fmt.Sprintf("workloads %v, runner has %v", names, want))
	}
	compare := func(kind string, table []metricDef, got map[string][2]string) {
		for _, d := range table {
			g, ok := got[d.Name]
			switch {
			case !ok:
				problems = append(problems, fmt.Sprintf("%s metric %s is printed but not in the file", kind, d.Name))
			case g != [2]string{d.Unit, d.Better}:
				problems = append(problems, fmt.Sprintf("%s metric %s: file says %v, runner prints %v", kind, d.Name, g, [2]string{d.Unit, d.Better}))
			}
			delete(got, d.Name)
		}
		for name := range got {
			problems = append(problems, fmt.Sprintf("%s metric %s is in the file but never printed", kind, name))
		}
	}
	e2e := map[string][2]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = [2]string{m.Unit, m.Better}
		if m.Bound <= 0 || m.Bound > 0.25 {
			problems = append(problems, fmt.Sprintf("end_to_end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound))
		}
	}
	compare("end_to_end", endToEnd, e2e)
	layers := map[string][2]string{}
	for _, m := range bf.PerLayer {
		layers[m.Name] = [2]string{m.Unit, m.Better}
	}
	compare("per_layer", perLayer, layers)
	if len(problems) > 0 {
		slices.Sort(problems)
		return fmt.Errorf("%s does not match the runner:\n  %s", path, strings.Join(problems, "\n  "))
	}
	return nil
}
