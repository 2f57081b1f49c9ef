package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gph"
	"gph/datagen"
)

// TestAlternateEngineClientErrors pins the 400-vs-500 edge for the
// non-default engines: a query the caller got wrong (wrong
// dimensionality, negative τ, τ beyond a τ-bounded engine's build
// threshold) must answer 400 whatever -engine the server runs,
// because every engine's validation errors wrap gph.ErrInvalidQuery.
// This is the server-visible face of the errsentinel invariant.
func TestAlternateEngineClientErrors(t *testing.T) {
	ds := datagen.UQVideoLike(400, 1)
	for _, name := range []string{"mih", "hmsearch"} {
		eng, err := gph.BuildShardedEngine(name, ds.Vectors, 1, gph.Options{MaxTau: 8, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := &server{index: eng}
		cases := []struct {
			url  string
			want int
		}{
			{"/search?q=0101&tau=3", http.StatusBadRequest},                                     // wrong dimensionality
			{"/search?q=" + strings.Repeat("0", eng.Dims()) + "&tau=-1", http.StatusBadRequest}, // negative τ
			{"/search?q=" + strings.Repeat("0", eng.Dims()) + "&tau=2", http.StatusOK},
		}
		if name == "hmsearch" {
			// τ beyond the build threshold: the partitioning depends
			// on it, so the engine refuses — as a client error.
			cases = append(cases, struct {
				url  string
				want int
			}{"/search?q=" + strings.Repeat("0", eng.Dims()) + "&tau=200", http.StatusBadRequest})
		}
		for _, c := range cases {
			rec := httptest.NewRecorder()
			s.handleSearch(rec, httptest.NewRequest(http.MethodGet, c.url, nil))
			if rec.Code != c.want {
				t.Errorf("%s %s → %d, want %d (%s)", name, c.url, rec.Code, c.want, rec.Body.String())
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
