package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// decodeNDJSON parses a /search/stream body: one streamResult per
// line, failing on anything else.
func decodeNDJSON(t *testing.T, body []byte) []streamResult {
	t.Helper()
	var out []streamResult
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		var res streamResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// streamGet drives the handler and checks the framing headers.
func streamGet(t *testing.T, s *server, url string) []streamResult {
	t.Helper()
	rec := httptest.NewRecorder()
	s.handleSearchStream(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s → %d: %s", url, rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("%s content type %q", url, ct)
	}
	return decodeNDJSON(t, rec.Body.Bytes())
}

// TestSearchStream pins the streamed lines against GET /search on
// both sides of S = 1: same ids in the same order, same distances,
// and an empty stream is a well-formed zero-line 200.
func TestSearchStream(t *testing.T) {
	for name, s := range map[string]*server{
		"single":  testServer(t, 1),
		"sharded": testServer(t, 3),
	} {
		t.Run(name, func(t *testing.T) {
			q := vectorString(t, s, 5)
			rec := httptest.NewRecorder()
			s.handleSearch(rec, httptest.NewRequest(http.MethodGet, "/search?q="+q+"&tau=8", nil))
			var want searchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &want); err != nil {
				t.Fatal(err)
			}
			got := streamGet(t, s, "/search/stream?q="+q+"&tau=8")
			if len(got) != len(want.Results) {
				t.Fatalf("streamed %d results, search returned %d", len(got), len(want.Results))
			}
			for i, res := range got {
				if res.ID != want.Results[i] || res.Distance != want.Distances[i] {
					t.Fatalf("line %d: {%d,%d}, want {%d,%d}",
						i, res.ID, res.Distance, want.Results[i], want.Distances[i])
				}
			}
			// Far query: zero lines, still a 200 with NDJSON framing.
			far := strings.Repeat("1", s.index.Dims())
			if got := streamGet(t, s, "/search/stream?q="+far+"&tau=0"); len(got) != 0 {
				t.Fatalf("far query streamed %d results", len(got))
			}
		})
	}
}

// TestSearchStreamUpdates: streamed results track live updates —
// inserts appear, deletes vanish.
func TestSearchStreamUpdates(t *testing.T) {
	s := testServer(t, 3)
	v, _ := s.index.Vector(0)
	q := v.Clone()
	q.Flip(3)
	id, err := s.index.Insert(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.index.Delete(0); err != nil {
		t.Fatal(err)
	}
	got := streamGet(t, s, "/search/stream?q="+q.String()+"&tau=1")
	foundInsert := false
	for _, res := range got {
		if res.ID == 0 {
			t.Fatal("deleted vector streamed")
		}
		if res.ID == id {
			foundInsert = true
			if res.Distance != 0 {
				t.Fatalf("inserted vector at distance %d, want 0", res.Distance)
			}
		}
	}
	if !foundInsert {
		t.Fatalf("inserted vector %d not streamed: %+v", id, got)
	}
}

// TestSearchStreamErrors: pre-stream failures use plain JSON errors
// with the usual status codes — invalid queries 400, bad method 405.
func TestSearchStreamErrors(t *testing.T) {
	s := testServer(t, 1)
	q := vectorString(t, s, 0)
	for _, c := range []struct {
		url  string
		code int
	}{
		{"/search/stream?q=01xy&tau=3", http.StatusBadRequest}, // bad bits
		{"/search/stream?q=" + q, http.StatusBadRequest},       // missing tau
		{"/search/stream?q=" + q + "&tau=x", http.StatusBadRequest},
		{"/search/stream?q=0101&tau=3", http.StatusBadRequest}, // wrong dims
		{"/search/stream?q=" + q + "&tau=-1", http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		s.handleSearchStream(rec, httptest.NewRequest(http.MethodGet, c.url, nil))
		if rec.Code != c.code {
			t.Fatalf("%s → %d, want %d: %s", c.url, rec.Code, c.code, rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s error content type %q", c.url, ct)
		}
	}
	rec := httptest.NewRecorder()
	s.handleSearchStream(rec, httptest.NewRequest(http.MethodPost, "/search/stream", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST → %d, want 405", rec.Code)
	}
}
