package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"gph"
	"gph/datagen"
)

// engineServer builds a default-flags (one-shard) server over the
// named engine.
func engineServer(t *testing.T, name string) *server {
	t.Helper()
	ds := datagen.UQVideoLike(500, 1)
	index, err := gph.BuildShardedEngine(name, ds.Vectors, 1, gph.Options{
		NumPartitions: 6, MaxTau: 16, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { index.Close() })
	return &server{index: index}
}

// TestEngineModes drives /search and /knn through every registered
// engine: the HTTP layer must be fully engine-agnostic.
func TestEngineModes(t *testing.T) {
	for _, info := range gph.Engines() {
		t.Run(info.Name, func(t *testing.T) {
			s := engineServer(t, info.Name)
			q := vectorString(t, s, 3)

			rec := httptest.NewRecorder()
			s.handleSearch(rec, httptest.NewRequest(http.MethodGet, "/search?q="+q+"&tau=8", nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("search → %d: %s", rec.Code, rec.Body.String())
			}
			var sr searchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
				t.Fatal(err)
			}
			// Every engine must find the indexed vector itself (LSH's
			// exact-signature probe always matches the identical vector).
			found := false
			for i, id := range sr.Results {
				if id == 3 && sr.Distances[i] == 0 {
					found = true
				}
				if sr.Distances[i] > 8 {
					t.Fatalf("distance %d beyond tau", sr.Distances[i])
				}
			}
			if !found {
				t.Fatalf("self query missing id 3: %v", sr.Results)
			}

			rec = httptest.NewRecorder()
			s.handleKNN(rec, httptest.NewRequest(http.MethodGet, "/knn?q="+q+"&k=5", nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("knn → %d: %s", rec.Code, rec.Body.String())
			}
			var kr searchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &kr); err != nil {
				t.Fatal(err)
			}
			if len(kr.Results) == 0 || kr.Results[0] != 3 || kr.Distances[0] != 0 {
				t.Fatalf("knn self query: ids=%v dists=%v", kr.Results, kr.Distances)
			}
			for i := 1; i < len(kr.Distances); i++ {
				if kr.Distances[i] < kr.Distances[i-1] {
					t.Fatalf("knn distances not ascending: %v", kr.Distances)
				}
			}
		})
	}
}

// TestEngineValidationMaps400 checks that the shared sentinels reach
// HTTP as client errors for non-GPH engines too: dimension mismatch,
// and τ beyond a bounded engine's build threshold.
func TestEngineValidationMaps400(t *testing.T) {
	s := engineServer(t, "hmsearch")

	rec := httptest.NewRecorder()
	s.handleSearch(rec, httptest.NewRequest(http.MethodGet, "/search?q=0101&tau=3", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("dim mismatch → %d, want 400", rec.Code)
	}

	q := vectorString(t, s, 0)
	rec = httptest.NewRecorder()
	s.handleSearch(rec, httptest.NewRequest(http.MethodGet, "/search?q="+q+"&tau=17", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("tau beyond build τ → %d, want 400: %s", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	s.handleKNN(rec, httptest.NewRequest(http.MethodGet, "/knn?q="+q+"&k=0", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("k=0 → %d, want 400", rec.Code)
	}
}

// TestHealthzReportsEngine checks /healthz carries the engine name.
func TestHealthzReportsEngine(t *testing.T) {
	s := engineServer(t, "mih")
	rec := httptest.NewRecorder()
	s.handleHealth(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var body map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["engine"] != "mih" {
		t.Fatalf("healthz engine %v, want mih", body["engine"])
	}
}
