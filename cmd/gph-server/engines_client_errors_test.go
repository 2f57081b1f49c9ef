package main

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"gph"
	"gph/datagen"
	"gph/internal/engine"
)

// TestAlternateEngineClientErrors pins the 400-vs-500 edge for every
// engine: a query the caller got wrong (wrong dimensionality, negative
// τ, k = 0, τ beyond a τ-bounded engine's build threshold) must answer
// 400 on /search, /knn and /search/stream whatever -engine the server
// runs, because every engine's validation errors wrap
// gph.ErrInvalidQuery.
func TestAlternateEngineClientErrors(t *testing.T) {
	const maxTau = 8
	ds := datagen.UQVideoLike(400, 1)
	for _, info := range gph.Engines() {
		eng, err := gph.BuildShardedEngine(info.Name, ds.Vectors, 1, gph.Options{MaxTau: maxTau, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		s := &server{index: eng}
		q := "q=" + strings.Repeat("0", eng.Dims())
		// τ one past the build threshold: an engine whose structure
		// depends on it refuses, as a client error; the others answer.
		over := http.StatusOK
		if reg, _ := engine.Lookup(info.Name); reg.TauBounded {
			over = http.StatusBadRequest
		}
		overTau := "&tau=" + strconv.Itoa(maxTau+1)
		cases := []struct {
			handle http.HandlerFunc
			url    string
			want   int
		}{
			{s.handleSearch, "/search?q=0101&tau=3", http.StatusBadRequest},
			{s.handleSearch, "/search?" + q + "&tau=-1", http.StatusBadRequest},
			{s.handleSearch, "/search?" + q + overTau, over},
			{s.handleSearch, "/search?" + q + "&tau=2", http.StatusOK},
			{s.handleKNN, "/knn?q=0101&k=3", http.StatusBadRequest},
			{s.handleKNN, "/knn?" + q + "&k=0", http.StatusBadRequest},
			{s.handleKNN, "/knn?" + q + "&k=3", http.StatusOK},
			{s.handleSearchStream, "/search/stream?q=0101&tau=3", http.StatusBadRequest},
			{s.handleSearchStream, "/search/stream?" + q + "&tau=-1", http.StatusBadRequest},
			{s.handleSearchStream, "/search/stream?" + q + overTau, over},
			{s.handleSearchStream, "/search/stream?" + q + "&tau=2", http.StatusOK},
		}
		for _, c := range cases {
			rec := httptest.NewRecorder()
			c.handle(rec, httptest.NewRequest(http.MethodGet, c.url, nil))
			if rec.Code != c.want {
				t.Errorf("%s %s → %d, want %d (%s)", info.Name, c.url, rec.Code, c.want, rec.Body.String())
			}
		}
	}
}

// TestShardedInsertDimMismatch400 pins that inserting a vector whose
// dimensionality disagrees with a sharded index answers 400: the
// shard layer wraps gph.ErrInvalidQuery, and handleInsert classifies
// through the same sentinel as search.
func TestShardedInsertDimMismatch400(t *testing.T) {
	ds := datagen.UQVideoLike(200, 1)
	for _, name := range []string{"mih", "hmsearch"} {
		sharded, err := gph.BuildShardedEngine(name, ds.Vectors, 2, gph.Options{MaxTau: 8, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := &server{index: sharded}
		body := strings.NewReader(`{"vector":"0101"}`)
		rec := httptest.NewRecorder()
		s.handleInsert(rec, httptest.NewRequest(http.MethodPost, "/insert", body))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: dim-mismatched insert → %d, want 400 (%s)", name, rec.Code, rec.Body.String())
		}
	}
}
