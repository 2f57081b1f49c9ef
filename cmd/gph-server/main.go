// Command gph-server exposes any registered search engine over HTTP
// with a minimal JSON API (net/http only):
//
//	GET  /healthz                           → {"status":"ok", ...}
//	GET  /search?q=0101...&tau=3            → results for one query
//	GET  /search/stream?q=0101...&tau=3     → results streamed as NDJSON lines
//	POST /search {"queries":[...],"tau":3}  → batch results
//	GET  /knn?q=0101...&k=10                → k nearest neighbours
//	GET  /stats                             → index, shard and compaction statistics
//	GET  /metrics                           → Prometheus text-format metrics
//	POST /insert {"vector":"0101..."}       → insert one vector
//	POST /delete {"id":123}                 → delete one vector
//	POST /compact                           → start background compaction, 202
//	POST /save                              → checkpoint to -snapshot, truncate WAL
//
// Usage:
//
//	gph-server -data corpus.ds -addr :8080
//	gph-server -gen uqvideo -n 20000 -engine mih -addr :8080
//	gph-server -gen uqvideo -n 20000 -shards 4 -wal /var/lib/gph/index.wal -addr :8080
//	gph-server -index corpus.gph -mmap -addr :8080
//
// There is one serving mode: every request is answered by a sharded,
// updatable index (gph.ShardedIndex), and -shards (default 1) only
// says how many shards a build hash-partitions the collection across.
// One shard with empty update buffers is the plain single index.
// -engine selects the engine every shard is built as (gph by default;
// mih, hmsearch, partalloc, linscan, lsh) — every engine serves the
// same API, with query-validation failures (wrong dimensionality,
// negative or out-of-bound τ) answered 400 uniformly. Queries fan out
// across shards concurrently; /search reports the candidates the
// engines actually verified, summed over shards.
//
// The index comes from one of three places. -data/-gen build it.
// -index serves a saved file instead: an engine's own Save output
// (dispatched on its magic bytes and adopted as one shard) or a
// sharded container. -snapshot PATH, when the file exists, wins over
// both — it is the checkpoint a previous run left. -mmap opens
// -index/-snapshot files through a read-only memory mapping: start-up
// is O(1) in arena bytes and O(n) in ids (the id maps are rebuilt),
// vectors page in from the kernel page cache on demand, and resident
// memory tracks the pages queries touch rather than the whole index
// (out-of-core serving; see DESIGN.md §14). The active mode and
// mapping size surface as open_mode / mapped_bytes / resident_bytes in
// /stats and gph_open_mode / gph_mapped_bytes / gph_resident_bytes in
// /metrics.
//
// Every index takes live updates through /insert and /delete, however
// it was obtained. Searches never stall on maintenance: POST /compact
// starts a background fold and returns 202 immediately (poll /stats
// for completion), and -auto-compact N folds a shard automatically
// once it buffers N pending updates. With -wal every acknowledged
// update is appended and fsynced to a write-ahead log before the
// response, and replayed over the index on restart — a kill -9 loses
// no acknowledged write. -snapshot PATH bounds the log: POST /save
// (and graceful shutdown) atomically checkpoints the index there and
// truncates the WAL. Every exact engine decides scan-or-index itself;
// -cache-size bounds the result cache that answers repeated queries
// without re-searching, and its counters surface in /stats and
// /metrics. The server carries read/write timeouts, caps
// POST batch sizes (-max-batch, oversize → 413), and shuts down
// gracefully on SIGINT or SIGTERM, draining in-flight requests,
// checkpointing and syncing the WAL.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"gph"
	"gph/datagen"
	"gph/internal/mmapio"
)

// server answers every request from one backend, whichever way it was
// obtained (built, -index, -snapshot). The HTTP layer is
// engine-agnostic: it speaks the sharded index's contract.
type server struct {
	index    *gph.ShardedIndex
	maxBatch int
	snapPath string // -snapshot: POST /save checkpoints here; "" disables
	metrics  *metrics
}

// handlerNames fixes the /metrics label set (and its rendering
// order); every routed endpoint is instrumented under one of these.
var handlerNames = []string{"healthz", "search", "stream", "knn", "stats", "insert", "delete", "compact", "save"}

// openModeLabel is "mmap" when the index actually serves from a live
// file mapping, "heap" otherwise — including when -mmap was requested
// but the platform fell back to a heap read.
func (s *server) openModeLabel() string {
	if s.index.Mapped() {
		return "mmap"
	}
	return "heap"
}

type searchResponse struct {
	Results    []int32 `json:"results"`
	Distances  []int   `json:"distances"`
	Candidates int     `json:"candidates"`
	Micros     int64   `json:"micros"`
}

type batchRequest struct {
	Queries []string `json:"queries"`
	Tau     int      `json:"tau"`
}

func main() {
	var (
		dataPath = flag.String("data", "", "dataset file (from gph-datagen)")
		idxPath  = flag.String("index", "", "serve a saved index file (any engine's Save output, or a sharded container) instead of building from -data/-gen")
		useMmap  = flag.Bool("mmap", false, "open index files (-index, -snapshot) through a read-only memory mapping: open O(1) in arena bytes, on-demand paging, shared pages across processes")
		gen      = flag.String("gen", "", "generate a dataset instead: sift|gist|pubchem|fasttext|uqvideo")
		n        = flag.Int("n", 10000, "vectors to generate with -gen")
		seed     = flag.Int64("seed", 42, "seed")
		m        = flag.Int("m", 0, "partition count (0 = auto)")
		addr     = flag.String("addr", ":8080", "listen address")
		buildPar = flag.Int("build-parallelism", 0, "index-build worker count (0 = GOMAXPROCS)")
		maxBatch = flag.Int("max-batch", 1024, "maximum queries per POST /search batch")
		shards   = flag.Int("shards", 1, "shard count a build hash-partitions the collection across (ignored when an -index/-snapshot file is served)")
		engName  = flag.String("engine", "gph", fmt.Sprintf("search engine to serve %v", gph.Engines()))
		maxTau   = flag.Int("max-tau", 0, "largest query threshold τ-bounded engines build for (0 = default 64)")
		walPath  = flag.String("wal", "", "write-ahead log path: replay on start, fsync every update")
		autoComp = flag.Int("auto-compact", 0, "fold a shard automatically once it buffers this many pending updates; 0 = explicit /compact only")
		snapPath = flag.String("snapshot", "", "snapshot path: loaded on start if present (instead of rebuilding from -data/-gen), written by POST /save and on graceful shutdown; checkpointing truncates the WAL")
		cacheMB  = flag.Int("cache-size", 64, "result-cache budget in MiB; 0 disables caching")
	)
	flag.Parse()
	cacheBytes := int64(*cacheMB) << 20
	openMode := gph.OpenHeap
	if *useMmap {
		openMode = gph.OpenMMap
	}

	start := time.Now()
	// An existing -snapshot is the checkpoint a previous run left, so
	// it wins over -index, which wins over building.
	openPath := *idxPath
	if *snapPath != "" {
		if _, err := os.Stat(*snapPath); err == nil {
			openPath = *snapPath
		} else if !os.IsNotExist(err) {
			log.Fatalf("gph-server: snapshot: %v", err)
		}
	}
	var index *gph.ShardedIndex
	var err error
	if openPath != "" {
		index, err = gph.OpenShardedFile(openPath, openMode)
		if err != nil {
			log.Fatalf("gph-server: opening %s: %v", openPath, err)
		}
		// Lifecycle and cache policy are runtime configuration, not
		// persisted state: apply the flags to the opened index.
		index.SetAutoCompact(*autoComp)
		_ = index.ConfigurePlan("", cacheBytes) // the empty mode is never refused
		log.Printf("opened %s; -data/-gen ignored", openPath)
	} else {
		ds, derr := loadOrGenerate(*dataPath, *gen, *n, *seed)
		if derr != nil {
			log.Fatalf("gph-server: %v", derr)
		}
		index, err = gph.BuildShardedEngine(*engName, ds.Vectors, *shards, gph.Options{
			NumPartitions: *m, MaxTau: *maxTau, Seed: *seed, BuildParallelism: *buildPar,
			AutoCompactDelta: *autoComp, CacheBytes: cacheBytes,
		})
		if err != nil {
			log.Fatalf("gph-server: building index: %v", err)
		}
	}
	if *walPath != "" {
		replayed, err := index.OpenWAL(*walPath)
		if err != nil {
			log.Fatalf("gph-server: opening wal: %v", err)
		}
		if replayed > 0 {
			log.Printf("replayed %d wal records from %s", replayed, *walPath)
		}
	}
	s := &server{index: index, maxBatch: *maxBatch, snapPath: *snapPath, metrics: newMetrics(handlerNames...)}
	log.Printf("%s index ready (shards=%d, %s): %d vectors × %d dims in %v (%.2f MB)",
		index.Engine(), index.NumShards(), s.openModeLabel(), index.Len(), index.Dims(),
		time.Since(start).Round(time.Millisecond), float64(index.SizeBytes())/(1<<20))

	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.metrics.instrument("healthz", s.handleHealth))
	mux.HandleFunc("/search", s.metrics.instrument("search", s.handleSearch))
	mux.HandleFunc("/search/stream", s.metrics.instrument("stream", s.handleSearchStream))
	mux.HandleFunc("/knn", s.metrics.instrument("knn", s.handleKNN))
	mux.HandleFunc("/stats", s.metrics.instrument("stats", s.handleStats))
	mux.HandleFunc("/insert", s.metrics.instrument("insert", s.handleInsert))
	mux.HandleFunc("/delete", s.metrics.instrument("delete", s.handleDelete))
	mux.HandleFunc("/compact", s.metrics.instrument("compact", s.handleCompact))
	mux.HandleFunc("/save", s.metrics.instrument("save", s.handleSave))
	mux.HandleFunc("/metrics", s.handleMetrics)

	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadTimeout:       30 * time.Second,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", *addr)
		errCh <- srv.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		log.Fatalf("gph-server: %v", err)
	case <-ctx.Done():
		log.Printf("signal received; draining connections")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Fatalf("gph-server: shutdown: %v", err)
		}
		// Every in-flight request has drained. Checkpoint if configured
		// (snapshot replaced atomically, WAL truncated — the next start
		// loads the snapshot instead of rebuilding and replaying), then
		// release the index: waits out any background compaction and
		// syncs and closes the WAL, so the log ends on a record
		// boundary either way.
		if s.snapPath != "" {
			if err := s.index.SaveFile(s.snapPath); err != nil {
				log.Printf("gph-server: checkpoint on shutdown: %v", err)
			} else {
				log.Printf("checkpointed to %s", s.snapPath)
			}
		}
		if err := s.index.Close(); err != nil {
			log.Fatalf("gph-server: closing index: %v", err)
		}
		log.Printf("shutdown complete")
	}
}

func loadOrGenerate(dataPath, gen string, n int, seed int64) (*datagen.Dataset, error) {
	if dataPath != "" {
		f, err := os.Open(dataPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return datagen.Load(f)
	}
	if gen == "" {
		return nil, fmt.Errorf("need -data or -gen")
	}
	return datagen.ByName(gen, n, seed)
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":  "ok",
		"engine":  s.index.Engine(),
		"vectors": s.index.Len(),
		"dims":    s.index.Dims(),
	})
}

// handleStats reports index occupancy with the per-shard breakdown
// (indexed vectors, pending delta inserts, tombstones, resident
// size), which is how operators decide when to /compact.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	resp := map[string]interface{}{
		"engine":         s.index.Engine(),
		"vectors":        s.index.Len(),
		"dims":           s.index.Dims(),
		"size_bytes":     s.index.SizeBytes(),
		"open_mode":      s.openModeLabel(),
		"mapped_bytes":   s.index.MappedBytes(),
		"resident_bytes": mmapio.ProcessResidentBytes(),
		"num_shards":     s.index.NumShards(),
		"shards":         s.index.ShardStats(),
		"compaction":     s.index.CompactionStatus(),
		"wal_bytes":      s.index.WALSizeBytes(),
		"epoch":          s.index.Epoch(),
		"planner":        s.index.PlanStats(),
	}
	writeJSON(w, http.StatusOK, resp)
}

type insertRequest struct {
	Vector string `json:"vector"`
}

// handleInsert adds one vector to the index; it lands in the
// owning shard's delta buffer, visible to searches immediately.
func (s *server) handleInsert(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	// An empty index has no dimensionality yet — the first insert
	// defines it — so fall back to a generous fixed cap there.
	maxBody := int64(s.index.Dims()) + 4096
	if s.index.Dims() == 0 {
		maxBody = 1 << 20
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	var req insertRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooLarge.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "bad body: %v", err)
		return
	}
	v, err := gph.VectorFromString(req.Vector)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad vector: %v", err)
		return
	}
	id, err := s.index.Insert(v)
	if err != nil {
		// Dimension mismatches wrap gph.ErrInvalidQuery (→ 400);
		// anything else — a WAL append failure, say — is a server
		// fault and must not masquerade as a client error.
		httpError(w, searchStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"id": id})
}

// handleCompact starts folding every shard's delta buffer and
// tombstones into its built index, in the background: the rebuild
// never blocks searches or updates, so the response is 202 Accepted
// immediately. Poll GET /stats ("compaction": running, runs,
// last_millis, last_error) for completion. A request while a run is
// already pending is answered 202 too, without starting another —
// the pending run folds those updates as well.
func (s *server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	status := "started"
	if !s.index.CompactAsync() {
		status = "already_running"
	}
	writeJSON(w, http.StatusAccepted, map[string]interface{}{
		"status": status,
		"poll":   "/stats",
	})
}

// handleSave checkpoints the index to the -snapshot path:
// the container is atomically replaced and the WAL truncated, so the
// log stops growing and the next start loads the snapshot instead of
// rebuilding and replaying history. Updates wait while the snapshot
// serializes; searches do not.
func (s *server) handleSave(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.snapPath == "" {
		httpError(w, http.StatusNotImplemented, "no snapshot path configured: restart with -snapshot")
		return
	}
	start := time.Now()
	if err := s.index.SaveFile(s.snapPath); err != nil {
		httpError(w, http.StatusInternalServerError, "checkpoint: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"path":      s.snapPath,
		"millis":    time.Since(start).Milliseconds(),
		"wal_bytes": s.index.WALSizeBytes(),
	})
}

type deleteRequest struct {
	ID int32 `json:"id"`
}

// handleDelete removes one vector by global id:
// tombstoned immediately (invisible to every subsequent search),
// physically dropped by the next compaction. Deleting an id that is
// not live answers 404.
func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, 4096)
	var req deleteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad body: %v", err)
		return
	}
	if err := s.index.Delete(req.ID); err != nil {
		if errors.Is(err, gph.ErrNotFound) {
			httpError(w, http.StatusNotFound, "%v", err)
			return
		}
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"deleted": req.ID})
}

func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.searchOne(w, r)
	case http.MethodPost:
		s.searchBatch(w, r)
	default:
		httpError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

// searchStatus distinguishes client mistakes (gph.ErrInvalidQuery:
// wrong dimensionality, negative threshold → 400) from internal
// search failures (→ 500). The classification lives in core, so the
// edge cannot drift from what the library actually validates. A
// joined batch error is a client error only when every failure is —
// a 400 must not mask a concurrent internal failure.
func searchStatus(err error) int {
	if allInvalidQuery(err) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func allInvalidQuery(err error) bool {
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		for _, e := range joined.Unwrap() {
			if !allInvalidQuery(e) {
				return false
			}
		}
		return true
	}
	return errors.Is(err, gph.ErrInvalidQuery)
}

func (s *server) searchOne(w http.ResponseWriter, r *http.Request) {
	q, err := gph.VectorFromString(r.URL.Query().Get("q"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad q: %v", err)
		return
	}
	tauStr := r.URL.Query().Get("tau")
	if tauStr == "" {
		httpError(w, http.StatusBadRequest, "missing required parameter: tau")
		return
	}
	tau, err := strconv.Atoi(tauStr)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad tau: %v", err)
		return
	}
	start := time.Now()
	ids, stats, err := s.index.SearchStats(q, tau)
	if err != nil {
		httpError(w, searchStatus(err), "%v", err)
		return
	}
	resp := searchResponse{
		Results:    ids,
		Distances:  make([]int, len(ids)),
		Candidates: stats.Candidates,
		Micros:     time.Since(start).Microseconds(),
	}
	for i, id := range ids {
		if v, ok := s.index.Vector(id); ok {
			resp.Distances[i] = gph.Hamming(q, v)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// streamResult is one NDJSON line of a /search/stream response.
type streamResult struct {
	ID       int32 `json:"id"`
	Distance int   `json:"distance"`
}

// handleSearchStream answers GET /search/stream?q=...&tau=N with
// newline-delimited JSON: one {"id":N,"distance":D} object per line,
// in ascending id order, flushed as each result is verified — a
// client reads its first neighbour while the index is still probing,
// rather than after the full result set is assembled. Framing: the
// body is `application/x-ndjson`; every line is a streamResult except
// possibly the last, which is {"error":"..."} if the search failed
// after results were already on the wire (the 200 status line cannot
// be taken back, so mid-stream failures are reported in-band). A
// query rejected before any result is answered with a plain JSON
// error and the usual status (400 for invalid queries).
func (s *server) handleSearchStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	q, err := gph.VectorFromString(r.URL.Query().Get("q"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad q: %v", err)
		return
	}
	tauStr := r.URL.Query().Get("tau")
	if tauStr == "" {
		httpError(w, http.StatusBadRequest, "missing required parameter: tau")
		return
	}
	tau, err := strconv.Atoi(tauStr)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad tau: %v", err)
		return
	}
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	started := false
	for nb, err := range s.index.SearchIter(q, tau) {
		if err != nil {
			if !started {
				httpError(w, searchStatus(err), "%v", err)
				return
			}
			enc.Encode(map[string]string{"error": err.Error()})
			return
		}
		if !started {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			started = true
		}
		if err := enc.Encode(streamResult{ID: nb.ID, Distance: nb.Distance}); err != nil {
			// Client went away; returning cancels the per-shard streams.
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	if !started {
		// Empty result set: a well-formed, zero-line NDJSON body.
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
	}
}

// handleKNN answers GET /knn?q=...&k=N with the k nearest neighbours
// of q, ordered by (distance, id). τ-bounded engines answer
// best-effort within their build threshold and may return fewer than
// k neighbours; approximate engines may miss true neighbours.
func (s *server) handleKNN(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	q, err := gph.VectorFromString(r.URL.Query().Get("q"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad q: %v", err)
		return
	}
	kStr := r.URL.Query().Get("k")
	if kStr == "" {
		httpError(w, http.StatusBadRequest, "missing required parameter: k")
		return
	}
	k, err := strconv.Atoi(kStr)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad k: %v", err)
		return
	}
	start := time.Now()
	nns, err := s.index.SearchKNN(q, k)
	if err != nil {
		httpError(w, searchStatus(err), "%v", err)
		return
	}
	resp := searchResponse{
		Results:   make([]int32, len(nns)),
		Distances: make([]int, len(nns)),
		Micros:    time.Since(start).Microseconds(),
	}
	for i, n := range nns {
		resp.Results[i] = n.ID
		resp.Distances[i] = n.Distance
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) searchBatch(w http.ResponseWriter, r *http.Request) {
	if s.maxBatch > 0 {
		// A '0'/'1' query string costs Dims bytes plus JSON quoting
		// and separators; anything past this bound cannot be a legal
		// batch, so cut the read off early.
		maxBody := int64(s.maxBatch)*int64(s.index.Dims()+16) + 4096
		r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	}
	var req batchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooLarge.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "bad body: %v", err)
		return
	}
	if s.maxBatch > 0 && len(req.Queries) > s.maxBatch {
		httpError(w, http.StatusRequestEntityTooLarge,
			"batch of %d queries exceeds limit %d", len(req.Queries), s.maxBatch)
		return
	}
	queries := make([]gph.Vector, len(req.Queries))
	for i, qs := range req.Queries {
		q, err := gph.VectorFromString(qs)
		if err != nil {
			httpError(w, http.StatusBadRequest, "query %d: %v", i, err)
			return
		}
		queries[i] = q
	}
	start := time.Now()
	results, err := s.index.SearchBatch(queries, req.Tau, 0)
	if err != nil {
		// SearchBatch joins per-query errors ("query %d: ...") and
		// keeps sibling results; report the failures with a status
		// matching their kind.
		httpError(w, searchStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"results": results,
		"micros":  time.Since(start).Microseconds(),
	})
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("gph-server: encoding response: %v", err)
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
