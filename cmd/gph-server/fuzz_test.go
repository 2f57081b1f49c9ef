package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"testing"

	"gph"
)

// fuzzDims is the width of the fuzz server's vectors: short enough that
// a mutated query string is often a well-formed one.
const fuzzDims = 32

// FuzzServeBodies sends request bodies and parameters through the
// server's handlers over a small gph index: a POST /search batch, a GET
// /search, a GET /knn and a POST /insert, the endpoint picked by the
// input. Whatever the bytes, no handler panics or answers 5xx, and a
// search answered 200 lists, query by query, the ids a linear scan over
// the live vectors finds. Inserts accumulate over the run; the scan
// reads the vectors the index holds when the search is asked.
func FuzzServeBodies(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	data := make([]gph.Vector, 300)
	centers := []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()}
	for i := range data {
		w := centers[i%len(centers)]
		for range rng.Intn(4) {
			w ^= 1 << rng.Intn(fuzzDims)
		}
		data[i] = gph.NewVector(fuzzDims)
		data[i].Words()[0] = w & (1<<fuzzDims - 1)
	}
	index, err := gph.BuildSharded(data, 2, gph.Options{NumPartitions: 2, MaxTau: 8, Seed: 1, SampleSize: 100, WorkloadSize: 8})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { index.Close() })
	s := &server{index: index, maxBatch: 4}

	q0, q1 := data[0].String(), data[1].String()
	batch := func(tau int, queries ...string) string {
		b, _ := json.Marshal(batchRequest{Queries: queries, Tau: tau})
		return string(b)
	}
	f.Add(uint8(0), batch(3, q0, q1), "", 0)
	f.Add(uint8(0), batch(0, q0), "", 0)
	f.Add(uint8(0), batch(-1, q0), "", 0)
	f.Add(uint8(0), batch(9, q0), "", 0)
	f.Add(uint8(0), batch(2, q0, q0, q0, q0, q0), "", 0)
	f.Add(uint8(0), `{"queries":["01"],"tau":1}`, "", 0)
	f.Add(uint8(0), `{"queries":`, "", 0)
	f.Add(uint8(1), "", q1, 4)
	f.Add(uint8(1), "", q1, 40)
	f.Add(uint8(2), "", q0, 5)
	f.Add(uint8(2), "", q0, -3)
	f.Add(uint8(2), "", q0, 1<<20)
	f.Add(uint8(3), `{"vector":"`+q1+`"}`, "", 0)
	f.Add(uint8(3), `{"vector":"0101"}`, "", 0)
	f.Add(uint8(3), `{"vector":7}`, "", 0)

	f.Fuzz(func(t *testing.T, endpoint uint8, body, q string, n int) {
		rec := httptest.NewRecorder()
		params := "?q=" + url.QueryEscape(q) + "&" + [2]string{"tau", "k"}[endpoint%4/2] + "=" + strconv.Itoa(n)
		var queries []string
		tau := n
		switch endpoint % 4 {
		case 0:
			s.handleSearch(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader([]byte(body))))
			var req batchRequest // read as the handler reads it: the first JSON value
			if json.NewDecoder(bytes.NewReader([]byte(body))).Decode(&req) == nil {
				queries, tau = req.Queries, req.Tau
			}
		case 1:
			s.handleSearch(rec, httptest.NewRequest(http.MethodGet, "/search"+params, nil))
			queries = []string{q}
		case 2:
			s.handleKNN(rec, httptest.NewRequest(http.MethodGet, "/knn"+params, nil))
		case 3:
			s.handleInsert(rec, httptest.NewRequest(http.MethodPost, "/insert", bytes.NewReader([]byte(body))))
		}
		if rec.Code >= 500 {
			t.Fatalf("endpoint %d, body %q, q %q, n %d: %d %s", endpoint%4, body, q, n, rec.Code, rec.Body.String())
		}
		if rec.Code != http.StatusOK || endpoint%4 > 1 {
			return
		}
		var got [][]int32
		if endpoint%4 == 0 {
			var resp struct {
				Results [][]int32 `json:"results"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("a 200 batch answer that is not JSON: %v", err)
			}
			got = resp.Results
		} else {
			var resp searchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("a 200 search answer that is not JSON: %v", err)
			}
			got = [][]int32{resp.Results}
		}
		live := make([]gph.Vector, s.index.Len())
		for id := range live {
			live[id], _ = s.index.Vector(int32(id))
		}
		scan, err := gph.BuildEngine("linscan", live, gph.EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(queries) {
			t.Fatalf("%d answers to %d queries", len(got), len(queries))
		}
		for i, qs := range queries {
			v, err := gph.VectorFromString(qs)
			if err != nil {
				t.Fatalf("query %q answered 200: %v", qs, err)
			}
			want, err := scan.Search(v, tau)
			if err != nil {
				t.Fatalf("query %q, tau %d answered 200, linscan says %v", qs, tau, err)
			}
			if !slices.Equal(got[i], want) && len(got[i])+len(want) > 0 {
				t.Fatalf("query %q, tau %d: the server answers %v, linscan %v", qs, tau, got[i], want)
			}
		}
	})
}
