package main

import (
	"math"
	"slices"
	"time"
)

// maxPasses bounds the preallocated sample arrays; a run stops
// replaying once it has this many passes even if time remains.
const maxPasses = 400

// minPasses is the fewest timed passes a run accepts: the best-of-P
// filter needs several samples per request before its minimum is the
// request's service time and not one lucky or unlucky draw.
const minPasses = 8

// recorder holds the latency samples of one replayed request list:
// for request i of every pass, the minimum so far (best) and every
// sample (all). Both arrays are allocated before the first timed pass
// so recording never allocates inside the measured loop.
type recorder struct {
	q      int
	best   []int64 // ns, per request: minimum over passes
	wire   []int64 // ns, per request: minimum latency minus the server's own time
	all    []int64 // ns, every sample in arrival order
	passes int
	wall   time.Duration // summed wall time of the timed passes
}

func newRecorder(q int) *recorder {
	r := &recorder{q: q, best: make([]int64, q), wire: make([]int64, q), all: make([]int64, 0, q*maxPasses)}
	for i := range r.best {
		r.best[i], r.wire[i] = math.MaxInt64, math.MaxInt64
	}
	return r
}

// add records request i's latency in the current pass.
func (r *recorder) add(i int, d time.Duration) {
	ns := d.Nanoseconds()
	if ns < r.best[i] {
		r.best[i] = ns
	}
	r.all = append(r.all, ns)
}

// addWire records, for a served request, the part of its latency the
// server's handler does not account for (client latency minus the
// answer's micros field).
func (r *recorder) addWire(i int, d time.Duration) {
	r.wire[i] = min(r.wire[i], d.Nanoseconds())
}

// endPass closes one pass that took wall time in total.
func (r *recorder) endPass(wall time.Duration) {
	r.passes++
	r.wall += wall
}

// more reports whether another pass should run: always until
// minPasses, then until the time budget is spent.
func (r *recorder) more(start time.Time, budget time.Duration) bool {
	if r.passes >= maxPasses {
		return false
	}
	return r.passes < minPasses || time.Since(start) < budget
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 1) of
// sorted, which must be ascending and non-empty.
func percentile(sorted []int64, p float64) int64 {
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortedCopy(v []int64) []int64 {
	out := slices.Clone(v)
	slices.Sort(out)
	return out
}

func sum(v []int64) int64 {
	var s int64
	for _, x := range v {
		s += x
	}
	return s
}

// filtered reduces the best-of-P minima: percentiles over the Q
// requests in µs, and Q / Σ minima as a service-time throughput.
func (r *recorder) filtered() (p50us, p95us, qps float64) {
	s := sortedCopy(r.best)
	return float64(percentile(s, 0.50)) / 1e3, float64(percentile(s, 0.95)) / 1e3,
		float64(r.q) / (float64(sum(s)) / 1e9)
}

// raw reduces every sample with no filter; qps is operations per
// second of pass wall time, so client-side gaps count too.
func (r *recorder) raw() (p50us, p95us, qps float64) {
	s := sortedCopy(r.all)
	return float64(percentile(s, 0.50)) / 1e3, float64(percentile(s, 0.95)) / 1e3,
		float64(len(r.all)) / r.wall.Seconds()
}

// firstPassesBest sums, over the requests, the best latency seen in
// the first k passes alone; ok is false when a failed request left a
// hole in the sample array.
func (r *recorder) firstPassesBest(k int) (ns int64, ok bool) {
	if k > r.passes || len(r.all) != r.passes*r.q {
		return 0, false
	}
	for i := range r.q {
		best := int64(math.MaxInt64)
		for p := range k {
			best = min(best, r.all[p*r.q+i])
		}
		ns += best
	}
	return ns, true
}

// classMeanUs is the mean, in µs, of the per-request minima in best
// (r.best or r.wire) over the requests whose class matches; 0 when the
// class is empty.
func classMeanUs(best []int64, match func(i int) bool) float64 {
	var total int64
	n := 0
	for i, b := range best {
		if match(i) && b != math.MaxInt64 {
			total += b
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n) / 1e3
}

// median of a small unsorted sample.
func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tracingOverheadPct compares like with like: the best-of-k service
// time of the k traced passes against that of the first k untraced
// passes, in percent of the untraced. (Raw wall-clock throughput of
// two short replays differs by more than tracing costs.)
func tracingOverheadPct(untraced, traced *recorder) float64 {
	u, ok1 := untraced.firstPassesBest(traced.passes)
	t, ok2 := traced.firstPassesBest(traced.passes)
	if !ok1 || !ok2 || u == 0 {
		return 0
	}
	return 100 * float64(t-u) / float64(u)
}

// reportTraced sets what every traced run derives from its two
// replays: the unfiltered numbers of the untraced one, what tracing
// cost, and how the host behaved meanwhile.
func reportTraced(res *result, untraced, traced *recorder, host *hostRef, since cpuTicks) {
	p50, p95, qps := untraced.raw()
	res.set("raw.p50_us", p50)
	res.set("raw.p95_us", p95)
	res.set("raw.qps", qps)
	res.set("trace.passes", float64(untraced.passes))
	res.set("trace.overhead_pct", tracingOverheadPct(untraced, traced))
	res.set("host.steal_pct", stealPct(since, readCPUTicks()))
	best, med := host.bestAndMedian()
	res.set("host.ref_us", best)
	res.set("host.ref_med_us", med)
}
