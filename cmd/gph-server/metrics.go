package main

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"gph/internal/mmapio"
)

// latencyBuckets are the histogram upper bounds in seconds, spanning
// sub-millisecond point lookups to multi-second worst cases; the
// implicit final bucket is +Inf. Cumulative counts per Prometheus
// histogram convention.
var latencyBuckets = [...]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// handlerMetrics accumulates one endpoint's counters: requests,
// error responses (status ≥ 400), and a latency histogram. All
// fields are atomics — observation never takes a lock.
type handlerMetrics struct {
	requests atomic.Int64
	errors   atomic.Int64
	buckets  [len(latencyBuckets) + 1]atomic.Int64 // +Inf last
	sumNanos atomic.Int64
}

func (h *handlerMetrics) observe(d time.Duration, status int) {
	h.requests.Add(1)
	if status >= 400 {
		h.errors.Add(1)
	}
	secs := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets[:], secs)
	h.buckets[i].Add(1)
	h.sumNanos.Add(d.Nanoseconds())
}

// metrics is the server's observability state, rendered by /metrics
// in the Prometheus text exposition format. Request-path counters
// live here; index-level gauges (shard buffer depth, compaction runs,
// WAL size) are read from the backend at scrape time, so a scrape
// always reflects current state rather than sampled counters.
type metrics struct {
	names    []string
	handlers map[string]*handlerMetrics
}

func newMetrics(names ...string) *metrics {
	m := &metrics{names: names, handlers: make(map[string]*handlerMetrics, len(names))}
	for _, n := range names {
		m.handlers[n] = &handlerMetrics{}
	}
	return m
}

// statusRecorder captures the response status for error accounting.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so streaming handlers
// (/search/stream) keep per-line flushing through the
// instrumentation wrapper.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with per-endpoint request, error and
// latency accounting.
func (m *metrics) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	hm := m.handlers[name]
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(rec, r)
		hm.observe(time.Since(start), rec.status)
	}
}

// handleMetrics renders every counter in the Prometheus text format
// (version 0.0.4): request counts, error counts and latency
// histograms per handler, then the index gauges — vector count,
// resident size, per-shard delta and tombstone depth, compaction
// totals and the WAL size.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	fmt.Fprintf(w, "# HELP gph_requests_total Requests served, by handler.\n")
	fmt.Fprintf(w, "# TYPE gph_requests_total counter\n")
	for _, n := range s.metrics.names {
		fmt.Fprintf(w, "gph_requests_total{handler=%q} %d\n", n, s.metrics.handlers[n].requests.Load())
	}
	fmt.Fprintf(w, "# HELP gph_request_errors_total Responses with status >= 400, by handler.\n")
	fmt.Fprintf(w, "# TYPE gph_request_errors_total counter\n")
	for _, n := range s.metrics.names {
		fmt.Fprintf(w, "gph_request_errors_total{handler=%q} %d\n", n, s.metrics.handlers[n].errors.Load())
	}
	fmt.Fprintf(w, "# HELP gph_request_duration_seconds Request latency, by handler.\n")
	fmt.Fprintf(w, "# TYPE gph_request_duration_seconds histogram\n")
	for _, n := range s.metrics.names {
		hm := s.metrics.handlers[n]
		var cum int64
		for i, le := range latencyBuckets[:] {
			cum += hm.buckets[i].Load()
			fmt.Fprintf(w, "gph_request_duration_seconds_bucket{handler=%q,le=%q} %d\n",
				n, strconv.FormatFloat(le, 'g', -1, 64), cum)
		}
		cum += hm.buckets[len(latencyBuckets)].Load()
		fmt.Fprintf(w, "gph_request_duration_seconds_bucket{handler=%q,le=\"+Inf\"} %d\n", n, cum)
		fmt.Fprintf(w, "gph_request_duration_seconds_sum{handler=%q} %g\n",
			n, float64(hm.sumNanos.Load())/1e9)
		fmt.Fprintf(w, "gph_request_duration_seconds_count{handler=%q} %d\n", n, cum)
	}

	fmt.Fprintf(w, "# HELP gph_vectors Live vectors in the index.\n")
	fmt.Fprintf(w, "# TYPE gph_vectors gauge\n")
	fmt.Fprintf(w, "gph_vectors %d\n", s.index.Len())
	fmt.Fprintf(w, "# HELP gph_index_bytes Resident index size in bytes.\n")
	fmt.Fprintf(w, "# TYPE gph_index_bytes gauge\n")
	fmt.Fprintf(w, "gph_index_bytes %d\n", s.index.SizeBytes())
	fmt.Fprintf(w, "# HELP gph_open_mode How the index was brought into memory (1 for the active mode).\n")
	fmt.Fprintf(w, "# TYPE gph_open_mode gauge\n")
	fmt.Fprintf(w, "gph_open_mode{mode=%q} 1\n", s.openModeLabel())
	fmt.Fprintf(w, "# HELP gph_mapped_bytes Size of the index's backing file mapping (0 when heap-resident).\n")
	fmt.Fprintf(w, "# TYPE gph_mapped_bytes gauge\n")
	fmt.Fprintf(w, "gph_mapped_bytes %d\n", s.index.MappedBytes())
	fmt.Fprintf(w, "# HELP gph_resident_bytes Process resident set size (0 where unavailable).\n")
	fmt.Fprintf(w, "# TYPE gph_resident_bytes gauge\n")
	fmt.Fprintf(w, "gph_resident_bytes %d\n", mmapio.ProcessResidentBytes())

	// Result-cache counters, read at scrape time like the index gauges.
	cache := s.cache.Stats()
	fmt.Fprintf(w, "# HELP gph_cache_hits_total Result-cache hits.\n")
	fmt.Fprintf(w, "# TYPE gph_cache_hits_total counter\n")
	fmt.Fprintf(w, "gph_cache_hits_total %d\n", cache.Hits)
	fmt.Fprintf(w, "# HELP gph_cache_misses_total Result-cache misses.\n")
	fmt.Fprintf(w, "# TYPE gph_cache_misses_total counter\n")
	fmt.Fprintf(w, "gph_cache_misses_total %d\n", cache.Misses)
	fmt.Fprintf(w, "# HELP gph_cache_evictions_total Result-cache LRU evictions.\n")
	fmt.Fprintf(w, "# TYPE gph_cache_evictions_total counter\n")
	fmt.Fprintf(w, "gph_cache_evictions_total %d\n", cache.Evictions)
	fmt.Fprintf(w, "# HELP gph_cache_entries Result-cache resident entries.\n")
	fmt.Fprintf(w, "# TYPE gph_cache_entries gauge\n")
	fmt.Fprintf(w, "gph_cache_entries %d\n", cache.Entries)
	fmt.Fprintf(w, "# HELP gph_cache_bytes Result-cache resident bytes (budget gph_cache_bytes_max).\n")
	fmt.Fprintf(w, "# TYPE gph_cache_bytes gauge\n")
	fmt.Fprintf(w, "gph_cache_bytes %d\n", cache.Bytes)
	fmt.Fprintf(w, "# HELP gph_cache_bytes_max Result-cache byte budget.\n")
	fmt.Fprintf(w, "# TYPE gph_cache_bytes_max gauge\n")
	fmt.Fprintf(w, "gph_cache_bytes_max %d\n", cache.MaxBytes)

	fmt.Fprintf(w, "# HELP gph_shard_delta Unindexed inserts pending compaction, by shard.\n")
	fmt.Fprintf(w, "# TYPE gph_shard_delta gauge\n")
	stats := s.index.ShardStats()
	for i, sh := range stats {
		fmt.Fprintf(w, "gph_shard_delta{shard=\"%d\"} %d\n", i, sh.Delta)
	}
	fmt.Fprintf(w, "# HELP gph_shard_tombstones Deletes pending compaction, by shard.\n")
	fmt.Fprintf(w, "# TYPE gph_shard_tombstones gauge\n")
	for i, sh := range stats {
		fmt.Fprintf(w, "gph_shard_tombstones{shard=\"%d\"} %d\n", i, sh.Tombstones)
	}
	fmt.Fprintf(w, "# HELP gph_shard_epoch Snapshot epoch (swaps since construction), by shard.\n")
	fmt.Fprintf(w, "# TYPE gph_shard_epoch gauge\n")
	for i, sh := range stats {
		fmt.Fprintf(w, "gph_shard_epoch{shard=\"%d\"} %d\n", i, sh.Epoch)
	}
	fmt.Fprintf(w, "# HELP gph_epoch Index-wide snapshot epoch (cache-invalidation counter).\n")
	fmt.Fprintf(w, "# TYPE gph_epoch counter\n")
	fmt.Fprintf(w, "gph_epoch %d\n", s.index.Epoch())
	cs := s.index.CompactionStatus()
	fmt.Fprintf(w, "# HELP gph_compactions_total Completed compaction runs.\n")
	fmt.Fprintf(w, "# TYPE gph_compactions_total counter\n")
	fmt.Fprintf(w, "gph_compactions_total %d\n", cs.Runs)
	fmt.Fprintf(w, "# HELP gph_compaction_running Whether a compaction is in flight.\n")
	fmt.Fprintf(w, "# TYPE gph_compaction_running gauge\n")
	fmt.Fprintf(w, "gph_compaction_running %d\n", boolGauge(cs.Running))
	fmt.Fprintf(w, "# HELP gph_compaction_last_millis Duration of the last compaction run.\n")
	fmt.Fprintf(w, "# TYPE gph_compaction_last_millis gauge\n")
	fmt.Fprintf(w, "gph_compaction_last_millis %d\n", cs.LastMillis)
	fmt.Fprintf(w, "# HELP gph_wal_bytes Write-ahead log size (0 when no WAL is attached).\n")
	fmt.Fprintf(w, "# TYPE gph_wal_bytes gauge\n")
	fmt.Fprintf(w, "gph_wal_bytes %d\n", s.index.WALSizeBytes())
}

func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}
