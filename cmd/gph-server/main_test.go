package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"gph"
	"gph/datagen"
	"gph/internal/engine/enginetest"
)

// testOpts keeps test builds fast: small partitioning sample and
// surrogate workload, modest MaxTau.
var testOpts = gph.Options{NumPartitions: 6, MaxTau: 16, Seed: 1, SampleSize: 200, WorkloadSize: 8}

// testServer serves 800 uqvideo-like vectors from a gph index built
// over the given number of shards; 1 is the default-flags server.
func testServer(t *testing.T, shards int) *server {
	t.Helper()
	return serverOver(t, datagen.UQVideoLike(800, 1).Vectors, shards)
}

// serverOver serves data from a gph index built over shards shards.
func serverOver(t *testing.T, data []gph.Vector, shards int) *server {
	t.Helper()
	index, err := gph.BuildSharded(data, shards, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { index.Close() })
	return &server{index: index}
}

// vectorString returns the '0'/'1' form of the live vector id.
func vectorString(t *testing.T, s *server, id int32) string {
	t.Helper()
	v, ok := s.index.Vector(id)
	if !ok {
		t.Fatalf("vector %d not live", id)
	}
	return v.String()
}

func TestHealthz(t *testing.T) {
	s := testServer(t, 1)
	rec := httptest.NewRecorder()
	s.handleHealth(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var body map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" || body["dims"].(float64) != 256 {
		t.Fatalf("body %v", body)
	}
}

func TestSearchGet(t *testing.T) {
	s := testServer(t, 1)
	q := vectorString(t, s, 0)
	rec := httptest.NewRecorder()
	s.handleSearch(rec, httptest.NewRequest(http.MethodGet, "/search?q="+q+"&tau=8", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp searchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) < 1 {
		t.Fatal("indexed vector not found")
	}
	for _, d := range resp.Distances {
		if d > 8 {
			t.Fatalf("distance %d beyond tau", d)
		}
	}
}

func TestSearchGetErrors(t *testing.T) {
	s := testServer(t, 1)
	cases := []string{
		"/search?q=01xy&tau=3",      // bad bits
		"/search?q=0101&tau=potato", // bad tau
		"/search?q=0101&tau=3",      // wrong dimensionality
	}
	for _, url := range cases {
		rec := httptest.NewRecorder()
		s.handleSearch(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s → %d", url, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	s.handleSearch(rec, httptest.NewRequest(http.MethodDelete, "/search", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE → %d", rec.Code)
	}
}

// TestMissingParams pins the 400s for absent required query
// parameters: the response must name the parameter rather than
// surface strconv.Atoi's parse of the empty string.
func TestMissingParams(t *testing.T) {
	s := testServer(t, 1)
	q := vectorString(t, s, 0)
	cases := []struct {
		url     string
		handler func(http.ResponseWriter, *http.Request)
		param   string
	}{
		{"/search?q=" + q, s.handleSearch, "tau"},
		{"/knn?q=" + q, s.handleKNN, "k"},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		c.handler(rec, httptest.NewRequest(http.MethodGet, c.url, nil))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s → %d, want 400", c.url, rec.Code)
		}
		if body := rec.Body.String(); !strings.Contains(body, "missing required parameter: "+c.param) {
			t.Fatalf("%s error %q does not name parameter %q", c.url, body, c.param)
		}
	}
}

func TestSearchBatchPost(t *testing.T) {
	s := testServer(t, 1)
	req := batchRequest{
		Queries: []string{vectorString(t, s, 1), vectorString(t, s, 2)},
		Tau:     6,
	}
	body, _ := json.Marshal(req)
	rec := httptest.NewRecorder()
	s.handleSearch(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Results [][]int32 `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 || len(resp.Results[0]) < 1 {
		t.Fatalf("batch results %v", resp.Results)
	}
}

func TestSearchBatchTooLarge(t *testing.T) {
	s := testServer(t, 1)
	s.maxBatch = 2
	req := batchRequest{
		Queries: []string{
			vectorString(t, s, 0),
			vectorString(t, s, 1),
			vectorString(t, s, 2),
		},
		Tau: 6,
	}
	body, _ := json.Marshal(req)
	rec := httptest.NewRecorder()
	s.handleSearch(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize batch → %d, want 413", rec.Code)
	}
}

func TestSearchBatchBadQueryDims(t *testing.T) {
	s := testServer(t, 1)
	s.maxBatch = 16
	req := batchRequest{
		Queries: []string{vectorString(t, s, 0), "0101"},
		Tau:     6,
	}
	body, _ := json.Marshal(req)
	rec := httptest.NewRecorder()
	s.handleSearch(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("wrong-dimension query → %d, want 400", rec.Code)
	}
}

func TestSearchBatchPostBadBody(t *testing.T) {
	s := testServer(t, 1)
	rec := httptest.NewRecorder()
	s.handleSearch(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader([]byte("{nope"))))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad body → %d", rec.Code)
	}
}

func TestSearchBatchBodyTooLarge(t *testing.T) {
	s := testServer(t, 1)
	s.maxBatch = 2
	// Any body past maxBatch*(dims+16)+4096 bytes trips the
	// MaxBytesReader before JSON decoding completes.
	huge := bytes.Repeat([]byte("0"), 64<<10)
	body := append([]byte(`{"queries":["`), huge...)
	rec := httptest.NewRecorder()
	s.handleSearch(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body → %d, want 413", rec.Code)
	}
}

// TestShardedSearchMatchesSingle: S = 1 is the degenerate sharded
// index, not a second path — the same query answered over one shard
// and over three returns the same ids and distances, and on a cache
// miss "candidates" is what the engines verified, not the result
// count: at S = 1 exactly the bare engine's own SearchStats count. The
// count is an index plan's — 5 000 rows a shard at τ = 0 — because a
// scanned shard's is its row count whatever the layers above it do. (The
// 800 rows every other test here serves are scanned at every τ; a hundred
// are scanned without a query being bound on any host, which is said
// once, here.)
func TestShardedSearchMatchesSingle(t *testing.T) {
	data := datagen.UQVideoLike(15000, 1).Vectors
	bare, err := gph.Build(data, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	q := data[7]
	wantIDs, wantStats, err := bare.SearchStats(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	small := serverOver(t, data[:100], 1)
	enginetest.FreeScan(t, small.index, q, 8)
	for _, shards := range []int{1, 3} {
		s := serverOver(t, data, shards) // testOpts: the engines' own route, nothing cached
		enginetest.OnIndex(t, s.index, q, 0)
		rec := httptest.NewRecorder()
		s.handleSearch(rec, httptest.NewRequest(http.MethodGet, "/search?q="+q.String()+"&tau=0", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("S=%d: status %d: %s", shards, rec.Code, rec.Body.String())
		}
		var resp searchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(resp.Results, wantIDs) {
			t.Fatalf("S=%d: results %v, bare engine %v", shards, resp.Results, wantIDs)
		}
		for i, id := range resp.Results {
			if d := gph.Hamming(q, data[id]); resp.Distances[i] != d {
				t.Fatalf("S=%d: id %d reported at distance %d, is %d", shards, id, resp.Distances[i], d)
			}
		}
		if shards == 1 && resp.Candidates != wantStats.Candidates {
			t.Fatalf("S=1: candidates %d, engine's SearchStats %d", resp.Candidates, wantStats.Candidates)
		}
		if resp.Candidates < len(resp.Results) {
			t.Fatalf("S=%d: %d candidates for %d results", shards, resp.Candidates, len(resp.Results))
		}
	}
}

// TestInsertCompactStats drives the update lifecycle over HTTP on a
// default-flags (one-shard) server: insert → visible to search and
// /stats → compact → buffers folded.
func TestInsertCompactStats(t *testing.T) {
	s := testServer(t, 1)
	before := s.index.Len()

	v, _ := s.index.Vector(0)
	q := v.Clone()
	q.Flip(1)
	body, _ := json.Marshal(insertRequest{Vector: q.String()})
	rec := httptest.NewRecorder()
	s.handleInsert(rec, httptest.NewRequest(http.MethodPost, "/insert", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("insert → %d: %s", rec.Code, rec.Body.String())
	}
	var ins struct {
		ID int32 `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ins); err != nil {
		t.Fatal(err)
	}
	if int(ins.ID) != before {
		t.Fatalf("assigned id %d, want %d", ins.ID, before)
	}

	// The insert is searchable pre-compact.
	rec = httptest.NewRecorder()
	s.handleSearch(rec, httptest.NewRequest(http.MethodGet, "/search?q="+q.String()+"&tau=0", nil))
	var sr searchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range sr.Results {
		if id == ins.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("inserted vector not found at tau=0: %v", sr.Results)
	}

	// /stats reports the pending delta entry, then compaction clears it.
	statsDelta := func() int {
		rec := httptest.NewRecorder()
		s.handleStats(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("stats → %d", rec.Code)
		}
		var resp struct {
			Vectors int `json:"vectors"`
			Shards  []struct {
				Delta int `json:"delta"`
			} `json:"shards"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Vectors != before+1 {
			t.Fatalf("stats vectors %d, want %d", resp.Vectors, before+1)
		}
		total := 0
		for _, sh := range resp.Shards {
			total += sh.Delta
		}
		return total
	}
	if d := statsDelta(); d != 1 {
		t.Fatalf("pending delta %d, want 1", d)
	}
	// Compaction is asynchronous: 202 immediately, completion via the
	// /stats compaction block.
	rec = httptest.NewRecorder()
	s.handleCompact(rec, httptest.NewRequest(http.MethodPost, "/compact", nil))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("compact → %d, want 202: %s", rec.Code, rec.Body.String())
	}
	// The fold is visible (delta 0) a moment before the run is booked
	// (Runs), so wait for both.
	deadline := time.Now().Add(30 * time.Second)
	for statsDelta() != 0 || s.index.CompactionStatus().Running {
		if time.Now().After(deadline) {
			t.Fatalf("background compaction never folded the delta")
		}
		time.Sleep(5 * time.Millisecond)
	}
	status := s.index.CompactionStatus()
	if status.Runs == 0 || status.LastError != "" {
		t.Fatalf("compaction status after fold: %+v", status)
	}
}

// TestDelete drives the delete lifecycle over HTTP: a deleted vector
// vanishes from searches immediately, a second delete of the same id
// answers 404.
func TestDelete(t *testing.T) {
	s := testServer(t, 3)
	v, _ := s.index.Vector(3)
	q := v.Clone()

	del := func() *httptest.ResponseRecorder {
		body, _ := json.Marshal(deleteRequest{ID: 3})
		rec := httptest.NewRecorder()
		s.handleDelete(rec, httptest.NewRequest(http.MethodPost, "/delete", bytes.NewReader(body)))
		return rec
	}
	if rec := del(); rec.Code != http.StatusOK {
		t.Fatalf("delete → %d: %s", rec.Code, rec.Body.String())
	}
	rec := httptest.NewRecorder()
	s.handleSearch(rec, httptest.NewRequest(http.MethodGet, "/search?q="+q.String()+"&tau=0", nil))
	var sr searchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	for _, id := range sr.Results {
		if id == 3 {
			t.Fatal("deleted vector still searchable")
		}
	}
	if rec := del(); rec.Code != http.StatusNotFound {
		t.Fatalf("double delete → %d, want 404", rec.Code)
	}
	// Method errors.
	rec = httptest.NewRecorder()
	s.handleDelete(rec, httptest.NewRequest(http.MethodGet, "/delete", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /delete → %d, want 405", rec.Code)
	}
}

// TestMetrics: the Prometheus endpoint exposes request counters,
// latency histograms and the sharded lifecycle gauges, and the
// instrumentation wrapper actually feeds them.
func TestMetrics(t *testing.T) {
	s := testServer(t, 3)
	s.metrics = newMetrics(handlerNames...)
	search := s.metrics.instrument("search", s.handleSearch)

	v, _ := s.index.Vector(0)
	rec := httptest.NewRecorder()
	search(rec, httptest.NewRequest(http.MethodGet, "/search?q="+v.String()+"&tau=2", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("search → %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	search(rec, httptest.NewRequest(http.MethodGet, "/search?q=01&tau=2", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad search → %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	s.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics → %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`gph_requests_total{handler="search"} 2`,
		`gph_request_errors_total{handler="search"} 1`,
		`gph_request_duration_seconds_count{handler="search"} 2`,
		`gph_request_duration_seconds_bucket{handler="search",le="+Inf"} 2`,
		"gph_vectors 800",
		`gph_shard_delta{shard="0"}`,
		"gph_compactions_total 0",
		"gph_compaction_running 0",
		"gph_wal_bytes 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}
	rec = httptest.NewRecorder()
	s.handleMetrics(rec, httptest.NewRequest(http.MethodPost, "/metrics", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics → %d, want 405", rec.Code)
	}
}

// TestSave: POST /save checkpoints to the configured snapshot path
// and truncates the WAL; without -snapshot it answers 501.
func TestSave(t *testing.T) {
	s := testServer(t, 1)
	dir := t.TempDir()
	s.snapPath = filepath.Join(dir, "index.gph")
	if _, err := s.index.OpenWAL(filepath.Join(dir, "index.wal")); err != nil {
		t.Fatal(err)
	}
	v, _ := s.index.Vector(0)
	q := v.Clone()
	q.Flip(2)
	body, _ := json.Marshal(insertRequest{Vector: q.String()})
	rec := httptest.NewRecorder()
	s.handleInsert(rec, httptest.NewRequest(http.MethodPost, "/insert", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("insert → %d", rec.Code)
	}
	if s.index.WALSizeBytes() <= 8 {
		t.Fatal("wal empty after acknowledged insert")
	}
	rec = httptest.NewRecorder()
	s.handleSave(rec, httptest.NewRequest(http.MethodPost, "/save", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("save → %d: %s", rec.Code, rec.Body.String())
	}
	if got := s.index.WALSizeBytes(); got != 8 {
		t.Fatalf("wal %d bytes after checkpoint, want header only", got)
	}
	if _, err := os.Stat(s.snapPath); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	// No snapshot path configured → 501.
	s.snapPath = ""
	rec = httptest.NewRecorder()
	s.handleSave(rec, httptest.NewRequest(http.MethodPost, "/save", nil))
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("save without -snapshot → %d, want 501", rec.Code)
	}
}

// TestUpdatesRequireShardedMode pins /insert's request validation —
// non-POST methods 405, malformed vectors 400. (Its name predates the
// single serving path: updates no longer require any mode, and the
// default server accepting them is TestInsertCompactStats's and
// TestSave's job.)
func TestUpdatesRequireShardedMode(t *testing.T) {
	s := testServer(t, 1)
	rec := httptest.NewRecorder()
	s.handleInsert(rec, httptest.NewRequest(http.MethodGet, "/insert", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /insert → %d, want 405", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.handleInsert(rec, httptest.NewRequest(http.MethodPost, "/insert", bytes.NewReader([]byte(`{"vector":"01x"}`))))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad vector → %d, want 400", rec.Code)
	}
}
