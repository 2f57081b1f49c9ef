package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gph"
	"gph/datagen"
)

func testServer(t *testing.T) *server {
	t.Helper()
	ds := datagen.UQVideoLike(800, 1)
	index, err := gph.Build(ds.Vectors, gph.Options{
		NumPartitions: 6, MaxTau: 16, Seed: 1, SampleSize: 200, WorkloadSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &server{engine: index}
}

func TestHealthz(t *testing.T) {
	s := testServer(t)
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
	s := testServer(t)
	q := s.engine.Vector(0)
	rec := httptest.NewRecorder()
	s.handleSearch(rec, httptest.NewRequest(http.MethodGet, "/search?q="+q.String()+"&tau=8", nil))
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
	s := testServer(t)
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
	s := testServer(t)
	q := s.engine.Vector(0).String()
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
	s := testServer(t)
	req := batchRequest{
		Queries: []string{s.engine.Vector(1).String(), s.engine.Vector(2).String()},
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
	s := testServer(t)
	s.maxBatch = 2
	req := batchRequest{
		Queries: []string{
			s.engine.Vector(0).String(),
			s.engine.Vector(1).String(),
			s.engine.Vector(2).String(),
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
	s := testServer(t)
	s.maxBatch = 16
	req := batchRequest{
		Queries: []string{s.engine.Vector(0).String(), "0101"},
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
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.handleSearch(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader([]byte("{nope"))))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad body → %d", rec.Code)
	}
}

func TestSearchBatchBodyTooLarge(t *testing.T) {
	s := testServer(t)
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

// testShardedServer mirrors testServer in -shards mode.
func testShardedServer(t *testing.T) *server {
	t.Helper()
	ds := datagen.UQVideoLike(800, 1)
	sharded, err := gph.BuildSharded(ds.Vectors, 3, gph.Options{
		NumPartitions: 6, MaxTau: 16, Seed: 1, SampleSize: 200, WorkloadSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &server{sharded: sharded}
}

// TestShardedSearchMatchesSingle: the HTTP layer must be
// backend-agnostic — the same query answered by both backends
// returns the same id set.
func TestShardedSearchMatchesSingle(t *testing.T) {
	single := testServer(t)
	sharded := testShardedServer(t)
	q := single.engine.Vector(7).String()
	var bodies []searchResponse
	for _, s := range []*server{single, sharded} {
		rec := httptest.NewRecorder()
		s.handleSearch(rec, httptest.NewRequest(http.MethodGet, "/search?q="+q+"&tau=8", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		var resp searchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, resp)
	}
	if len(bodies[0].Results) != len(bodies[1].Results) {
		t.Fatalf("backends disagree: %v vs %v", bodies[0].Results, bodies[1].Results)
	}
	for i := range bodies[0].Results {
		if bodies[0].Results[i] != bodies[1].Results[i] || bodies[0].Distances[i] != bodies[1].Distances[i] {
			t.Fatalf("backends disagree at %d: %v/%v vs %v/%v", i,
				bodies[0].Results[i], bodies[0].Distances[i], bodies[1].Results[i], bodies[1].Distances[i])
		}
	}
}

// TestInsertCompactStats drives the update lifecycle over HTTP:
// insert → visible to search and /stats → compact → buffers folded.
func TestInsertCompactStats(t *testing.T) {
	s := testShardedServer(t)
	before := s.vectors()

	v, _ := s.sharded.Vector(0)
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
	for statsDelta() != 0 || s.sharded.CompactionStatus().Running {
		if time.Now().After(deadline) {
			t.Fatalf("background compaction never folded the delta")
		}
		time.Sleep(5 * time.Millisecond)
	}
	status := s.sharded.CompactionStatus()
	if status.Runs == 0 || status.LastError != "" {
		t.Fatalf("compaction status after fold: %+v", status)
	}
}

// TestDelete drives the delete lifecycle over HTTP: a deleted vector
// vanishes from searches immediately, a second delete of the same id
// answers 404, and single-index mode answers 501.
func TestDelete(t *testing.T) {
	s := testShardedServer(t)
	v, _ := s.sharded.Vector(3)
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
	// Method and mode errors.
	rec = httptest.NewRecorder()
	s.handleDelete(rec, httptest.NewRequest(http.MethodGet, "/delete", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /delete → %d, want 405", rec.Code)
	}
	single := testServer(t)
	rec = httptest.NewRecorder()
	single.handleDelete(rec, httptest.NewRequest(http.MethodPost, "/delete", bytes.NewReader([]byte(`{"id":1}`))))
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("delete on single index → %d, want 501", rec.Code)
	}
}

// TestMetrics: the Prometheus endpoint exposes request counters,
// latency histograms and the sharded lifecycle gauges, and the
// instrumentation wrapper actually feeds them.
func TestMetrics(t *testing.T) {
	s := testShardedServer(t)
	s.metrics = newMetrics(handlerNames...)
	search := s.metrics.instrument("search", s.handleSearch)

	v, _ := s.sharded.Vector(0)
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
// and truncates the WAL; without -snapshot (or without -shards) it
// answers 501.
func TestSave(t *testing.T) {
	s := testShardedServer(t)
	dir := t.TempDir()
	s.snapPath = filepath.Join(dir, "index.gph")
	if _, err := s.sharded.OpenWAL(filepath.Join(dir, "index.wal")); err != nil {
		t.Fatal(err)
	}
	v, _ := s.sharded.Vector(0)
	q := v.Clone()
	q.Flip(2)
	body, _ := json.Marshal(insertRequest{Vector: q.String()})
	rec := httptest.NewRecorder()
	s.handleInsert(rec, httptest.NewRequest(http.MethodPost, "/insert", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("insert → %d", rec.Code)
	}
	if s.sharded.WALSizeBytes() <= 8 {
		t.Fatal("wal empty after acknowledged insert")
	}
	rec = httptest.NewRecorder()
	s.handleSave(rec, httptest.NewRequest(http.MethodPost, "/save", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("save → %d: %s", rec.Code, rec.Body.String())
	}
	if got := s.sharded.WALSizeBytes(); got != 8 {
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
	single := testServer(t)
	rec = httptest.NewRecorder()
	single.handleSave(rec, httptest.NewRequest(http.MethodPost, "/save", nil))
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("save on single index → %d, want 501", rec.Code)
	}
}

// TestUpdatesRequireShardedMode: /insert and /compact on a single
// immutable index answer 501, and non-POST methods 405.
func TestUpdatesRequireShardedMode(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.handleInsert(rec, httptest.NewRequest(http.MethodPost, "/insert", bytes.NewReader([]byte(`{"vector":"01"}`))))
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("insert on single index → %d, want 501", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.handleCompact(rec, httptest.NewRequest(http.MethodPost, "/compact", nil))
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("compact on single index → %d, want 501", rec.Code)
	}
	sh := testShardedServer(t)
	rec = httptest.NewRecorder()
	sh.handleInsert(rec, httptest.NewRequest(http.MethodGet, "/insert", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /insert → %d, want 405", rec.Code)
	}
	rec = httptest.NewRecorder()
	sh.handleInsert(rec, httptest.NewRequest(http.MethodPost, "/insert", bytes.NewReader([]byte(`{"vector":"01x"}`))))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad vector → %d, want 400", rec.Code)
	}
}
