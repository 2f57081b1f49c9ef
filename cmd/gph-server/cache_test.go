package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gph"
	"gph/datagen"
	"gph/internal/bitvec"
	"gph/internal/engine"
	"gph/internal/plan"
)

// cachedServer serves index through a 1 MiB result cache.
func cachedServer(index *gph.ShardedIndex) *server {
	return &server{index: index, cache: plan.NewCache(1 << 20), metrics: newMetrics(handlerNames...)}
}

// serve runs one request through s's handler for its path and returns
// the status and body.
func serve(t *testing.T, s *server, method, url string, body []byte) (int, []byte) {
	t.Helper()
	handler := s.handleSearch
	if strings.HasPrefix(url, "/knn") {
		handler = s.handleKNN
	}
	rec := httptest.NewRecorder()
	handler(rec, httptest.NewRequest(method, url, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// micros matches the one field two answers to the same request may
// differ in, and candidates the one a hit reports differently; tests
// zero them.
var (
	micros     = regexp.MustCompile(`"micros":[0-9]+`)
	candidates = regexp.MustCompile(`"candidates":[0-9]+`)
)

// cacheCounters reads /stats' planner object.
func cacheCounters(t *testing.T, s *server) plan.CacheStats {
	t.Helper()
	rec := httptest.NewRecorder()
	s.handleStats(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st struct {
		Planner struct {
			Cache plan.CacheStats `json:"cache"`
		} `json:"planner"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st.Planner.Cache
}

// TestCacheConformance holds the server's result cache to the uncached
// answer, for every exact engine with a packed arena over two shards:
// GET /search, POST /search and /knn answer a cold pass through the cache,
// a warm pass (every request a hit) and a server with no cache byte for
// byte, micros aside, and a hit's candidates is its result count. GET
// /search is also held to a linear scan. /stats counts every cold request
// a miss and every warm one a hit, and /metrics reports the same counts.
func TestCacheConformance(t *testing.T) {
	data := datagen.UQVideoLike(2000, 3).Vectors
	queries := make([]gph.Vector, 8)
	for i := range queries {
		queries[i] = data[i*97].Clone()
		for b := 0; b < 4; b++ {
			queries[i].Flip((i*31 + b*67) % queries[i].Dims())
		}
	}
	// POST /search asks at thresholds of its own, so that its cold pass
	// misses too (a GET and a POST query share one entry).
	taus, postTaus := []int{0, 2, 32}, []int{1, 4, 24}
	type request struct {
		method, url string
		body        []byte
		tau         int // the GET /search threshold, -1 otherwise
		q           gph.Vector
	}
	var requests []request
	for i, tau := range taus {
		batch := batchRequest{Tau: postTaus[i]}
		for _, q := range queries {
			requests = append(requests, request{http.MethodGet, fmt.Sprintf("/search?q=%s&tau=%d", q, tau), nil, tau, q})
			batch.Queries = append(batch.Queries, q.String())
		}
		body, _ := json.Marshal(batch)
		requests = append(requests, request{http.MethodPost, "/search", body, -1, gph.Vector{}})
	}
	for _, q := range queries {
		requests = append(requests, request{http.MethodGet, "/knn?q=" + q.String() + "&k=7", nil, -1, q})
	}
	opts := testOpts
	opts.MaxTau = 32
	for _, name := range []string{"gph", "mih", "hmsearch", "linscan"} {
		t.Run(name, func(t *testing.T) {
			index, err := gph.BuildShardedEngine(name, data, 2, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer index.Close()
			cached, uncached := cachedServer(index), &server{index: index}
			cold := make([][]byte, len(requests))
			for pass := 0; pass < 2; pass++ {
				for i, r := range requests {
					code, body := serve(t, cached, r.method, r.url, r.body)
					if code != http.StatusOK {
						t.Fatalf("pass %d %s %s: %d %s", pass, r.method, r.url, code, body)
					}
					body = micros.ReplaceAll(body, []byte(`"micros":0`))
					if pass == 1 {
						if r.tau >= 0 {
							var resp searchResponse
							if err := json.Unmarshal(body, &resp); err != nil {
								t.Fatal(err)
							}
							if resp.Candidates != len(resp.Results) {
								t.Fatalf("warm %s: a hit reports %d candidates for %d results", r.url, resp.Candidates, len(resp.Results))
							}
							body = candidates.ReplaceAll(body, []byte(`"candidates":0`))
							cold[i] = candidates.ReplaceAll(cold[i], []byte(`"candidates":0`))
						}
						if !bytes.Equal(body, cold[i]) {
							t.Fatalf("%s %s: warm answer\n%s\ncold answer\n%s", r.method, r.url, body, cold[i])
						}
						continue
					}
					cold[i] = body
					_, plain := serve(t, uncached, r.method, r.url, r.body)
					if plain = micros.ReplaceAll(plain, []byte(`"micros":0`)); !bytes.Equal(body, plain) {
						t.Fatalf("%s %s: cached answer\n%s\nuncached answer\n%s", r.method, r.url, body, plain)
					}
					if r.tau >= 0 {
						var resp searchResponse
						if err := json.Unmarshal(body, &resp); err != nil {
							t.Fatal(err)
						}
						var want []int32
						for id, v := range data {
							if gph.Hamming(r.q, v) <= r.tau {
								want = append(want, int32(id))
							}
						}
						if !slices.Equal(resp.Results, want) {
							t.Fatalf("%s: %v, the scan finds %v", r.url, resp.Results, want)
						}
					}
				}
				// A POST is one lookup a query; every lookup of a pass has a
				// key of its own.
				lookups := int64(len(taus)*len(queries)*2 + len(queries))
				want := plan.CacheStats{Misses: lookups, Hits: lookups * int64(pass)}
				if got := cacheCounters(t, cached); got.Hits != want.Hits || got.Misses != want.Misses || got.Entries != lookups {
					t.Fatalf("after pass %d: /stats cache %+v, want %d hits, %d misses and %d entries", pass, got, want.Hits, want.Misses, lookups)
				}
				rec := httptest.NewRecorder()
				cached.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
				for _, line := range []string{fmt.Sprintf("gph_cache_hits_total %d\n", want.Hits), fmt.Sprintf("gph_cache_misses_total %d\n", want.Misses), "gph_cache_bytes_max 1048576\n"} {
					if !strings.Contains(rec.Body.String(), line) {
						t.Fatalf("after pass %d: /metrics lacks %q", pass, line)
					}
				}
			}
			if got := cacheCounters(t, uncached); got != (plan.CacheStats{}) {
				t.Fatalf("a server with no cache reports %+v", got)
			}
		})
	}
}

// TestPoisonedEntry plants a wrong answer in the cache under the index's
// current epoch: it is served verbatim, on GET /search, POST /search and
// /knn alike, because the key is the query, its shape and the epoch read
// before the search. One /insert bumps the epoch, after which the entry
// is unreachable and the real answer returns.
func TestPoisonedEntry(t *testing.T) {
	base := testServer(t, 2)
	s := cachedServer(base.index)
	q, _ := s.index.Vector(5)
	const tau, k = 3, 2
	key := func(tau, k int) plan.Key {
		return plan.Key{Hash: plan.HashWords(q.Words(), uint64(q.Dims())), Epoch: s.index.Epoch(), Tau: int32(tau), K: int32(k)}
	}
	poison := []int32{700, 11}
	s.cache.Put(key(tau, -1), poison, nil)
	s.cache.Put(key(-1, k), poison, []int32{1, 2})

	get := "/search?q=" + q.String() + fmt.Sprintf("&tau=%d", tau)
	post, _ := json.Marshal(batchRequest{Queries: []string{q.String()}, Tau: tau})
	knn := "/knn?q=" + q.String() + fmt.Sprintf("&k=%d", k)
	answers := func() (searchResponse, [][]int32, searchResponse) {
		var one, near searchResponse
		var batch struct {
			Results [][]int32 `json:"results"`
		}
		for _, r := range []struct {
			method, url string
			body        []byte
			into        any
		}{{http.MethodGet, get, nil, &one}, {http.MethodPost, "/search", post, &batch}, {http.MethodGet, knn, nil, &near}} {
			code, body := serve(t, s, r.method, r.url, r.body)
			if code != http.StatusOK {
				t.Fatalf("%s %s: %d %s", r.method, r.url, code, body)
			}
			if err := json.Unmarshal(body, r.into); err != nil {
				t.Fatal(err)
			}
		}
		return one, batch.Results, near
	}

	one, batch, near := answers()
	v700, _ := s.index.Vector(700)
	v11, _ := s.index.Vector(11)
	if !slices.Equal(one.Results, poison) || one.Candidates != 2 || !slices.Equal(one.Distances, []int{gph.Hamming(q, v700), gph.Hamming(q, v11)}) {
		t.Fatalf("GET /search did not serve the planted entry: %+v", one)
	}
	if len(batch) != 1 || !slices.Equal(batch[0], poison) {
		t.Fatalf("POST /search did not serve the planted entry: %v", batch)
	}
	if !slices.Equal(near.Results, poison) || !slices.Equal(near.Distances, []int{1, 2}) {
		t.Fatalf("/knn did not serve the planted entry: %+v", near)
	}

	rec := httptest.NewRecorder()
	s.handleInsert(rec, httptest.NewRequest(http.MethodPost, "/insert", strings.NewReader(`{"vector":"`+vectorString(t, s, 0)+`"}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("insert → %d: %s", rec.Code, rec.Body.String())
	}
	wantIDs, err := s.index.Search(q, tau)
	if err != nil {
		t.Fatal(err)
	}
	wantNN, err := s.index.SearchKNN(q, k)
	if err != nil {
		t.Fatal(err)
	}
	one, batch, near = answers()
	if !slices.Equal(one.Results, wantIDs) || len(batch) != 1 || !slices.Equal(batch[0], wantIDs) {
		t.Fatalf("after an insert: GET %v, POST %v, the index answers %v", one.Results, batch, wantIDs)
	}
	if len(near.Results) != k || near.Results[0] != wantNN[0].ID || near.Results[1] != wantNN[1].ID {
		t.Fatalf("after an insert: /knn %+v, the index answers %v", near, wantNN)
	}
}

// midSearch, when set, runs once inside the next swappingEngine search.
var midSearch atomic.Pointer[func()]

// swappingEngine is linscan with midSearch run inside its range
// searches, registered under a name and magic of its own.
type swappingEngine struct{ engine.Engine }

const swappingName, swappingMagic = "servertest-swapping", "SVTSWP01"

func (e swappingEngine) Name() string { return swappingName }

func (e swappingEngine) Search(q bitvec.Vector, tau int) ([]int32, error) {
	if f := midSearch.Swap(nil); f != nil {
		(*f)()
	}
	return e.Engine.Search(q, tau)
}

func (e swappingEngine) SearchStats(q bitvec.Vector, tau int) ([]int32, *engine.Stats, error) {
	if f := midSearch.Swap(nil); f != nil {
		(*f)()
	}
	return e.Engine.SearchStats(q, tau)
}

func (e swappingEngine) Save(w io.Writer) error {
	if _, err := io.WriteString(w, swappingMagic); err != nil {
		return err
	}
	return e.Engine.Save(w)
}

func init() {
	engine.Register(engine.Registration{
		Name:  swappingName,
		Exact: true,
		Magic: swappingMagic,
		Build: func(data []bitvec.Vector, opts engine.BuildOptions) (engine.Engine, error) {
			e, err := engine.Build("linscan", data, opts)
			return swappingEngine{e}, err
		},
		Load: func(r io.Reader) (engine.Engine, error) {
			if _, err := io.ReadFull(r, make([]byte, len(swappingMagic))); err != nil {
				return nil, err
			}
			e, err := engine.LoadAny(r)
			return swappingEngine{e}, err
		},
	})
}

// TestSwapDuringSearch publishes an insert while a GET or POST /search
// is under way, after the search loaded its snapshot: the answer
// predates the insert, so it must not be cached under the epoch the
// insert made. The next request misses and finds the inserted copy: the
// epoch the key carries is read before the search.
func TestSwapDuringSearch(t *testing.T) {
	data := datagen.UQVideoLike(300, 5).Vectors
	index, err := gph.BuildShardedEngine(swappingName, data, 1, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer index.Close()
	s := cachedServer(index)
	q := data[9]
	// Each method asks at a τ of its own, so that the other's entry does
	// not answer it.
	for tau, method := range []string{http.MethodGet, http.MethodPost} {
		url, body := fmt.Sprintf("/search?q=%s&tau=%d", q, tau), []byte(nil)
		if method == http.MethodPost {
			url = "/search"
			body, _ = json.Marshal(batchRequest{Queries: []string{q.String()}, Tau: tau})
		}
		results := func() []int32 {
			code, out := serve(t, s, method, url, body)
			var resp struct {
				Results json.RawMessage `json:"results"`
			}
			if err := json.Unmarshal(out, &resp); code != http.StatusOK || err != nil {
				t.Fatalf("%s %s: %d %s", method, url, code, out)
			}
			var ids []int32
			if method == http.MethodPost {
				var batch [][]int32
				json.Unmarshal(resp.Results, &batch)
				ids = batch[0]
			} else {
				json.Unmarshal(resp.Results, &ids)
			}
			return ids
		}
		before, _ := index.Search(q, tau)
		var inserted int32
		insert := func() {
			if inserted, err = index.Insert(q.Clone()); err != nil {
				t.Error(err)
			}
		}
		midSearch.Store(&insert)
		if got := results(); !slices.Equal(got, before) {
			t.Fatalf("%s: the search under way answered %v, its snapshot holds %v", method, got, before)
		}
		if midSearch.Load() != nil {
			t.Fatalf("%s: the engine was not searched", method)
		}
		if got, want := results(), append(slices.Clone(before), inserted); !slices.Equal(got, want) {
			t.Fatalf("%s: after the insert %v, want %v (the pre-insert answer was cached?)", method, got, want)
		}
	}
}

// TestCacheKeyHoldsTheWholeShape: a τ or k beyond the key's 32 bits is
// answered, never matched to the entry of the value it truncates to.
func TestCacheKeyHoldsTheWholeShape(t *testing.T) {
	base := testServer(t, 1)
	s := cachedServer(base.index)
	q := vectorString(t, s, 0)
	for _, r := range []struct{ small, large string }{
		{"/search?q=" + q + "&tau=3", "/search?q=" + q + "&tau=4294967299"},
		{"/knn?q=" + q + "&k=7", "/knn?q=" + q + "&k=4294967303"},
	} {
		if code, body := serve(t, s, http.MethodGet, r.small, nil); code != http.StatusOK {
			t.Fatalf("%s: %d %s", r.small, code, body)
		}
		code, body := serve(t, s, http.MethodGet, r.large, nil)
		var resp searchResponse
		if err := json.Unmarshal(body, &resp); code != http.StatusOK || err != nil {
			t.Fatalf("%s: %d %s", r.large, code, body)
		}
		if len(resp.Results) != s.index.Len() {
			t.Fatalf("%s: %d results, want every one of the %d vectors", r.large, len(resp.Results), s.index.Len())
		}
	}
}

// TestCacheUnderConcurrentChurn races cached GET /search requests
// against /insert, /delete and /compact and holds every answer to the
// live set at some moment of its request: a swap never lets a pre-swap
// cached answer pass as current. Under -race it also checks the
// lock-free epoch and cache coordination.
func TestCacheUnderConcurrentChurn(t *testing.T) {
	data := datagen.UQVideoLike(800, 11).Vectors
	const base, tau = 600, 8
	s := cachedServer(serverOver(t, data[:base], 4).index)
	queries := []gph.Vector{data[3], data[150], data[420], data[599]}

	// The churn set: vectors inserted and deleted concurrently. Answers
	// for ids below base are stable; churned ids may or may not appear.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		post := func(path, body string) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
			switch path {
			case "/insert":
				s.handleInsert(rec, req)
			case "/delete":
				s.handleDelete(rec, req)
			default:
				s.handleCompact(rec, req)
			}
			return rec
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rec := post("/insert", `{"vector":"`+data[base+i%(len(data)-base)].String()+`"}`)
			var ins struct {
				ID int32 `json:"id"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &ins); rec.Code != http.StatusOK || err != nil {
				t.Errorf("insert → %d: %s", rec.Code, rec.Body.String())
				return
			}
			if i%3 == 0 {
				if rec := post("/delete", fmt.Sprintf(`{"id":%d}`, ins.ID)); rec.Code != http.StatusOK {
					t.Errorf("delete → %d: %s", rec.Code, rec.Body.String())
					return
				}
			}
			if i%20 == 0 {
				if rec := post("/compact", ""); rec.Code != http.StatusAccepted {
					t.Errorf("compact → %d: %s", rec.Code, rec.Body.String())
					return
				}
			}
		}
	}()

	stable := make([]map[int32]bool, len(queries))
	for qi, q := range queries {
		stable[qi] = make(map[int32]bool)
		for id := int32(0); id < base; id++ {
			if q.HammingWithin(data[id], tau) {
				stable[qi][id] = true
			}
		}
	}
	searches := 0
	for round := 0; round < 50; round++ {
		for qi, q := range queries {
			code, body := serve(t, s, http.MethodGet, fmt.Sprintf("/search?q=%s&tau=%d", q, tau), nil)
			var resp searchResponse
			if err := json.Unmarshal(body, &resp); code != http.StatusOK || err != nil {
				t.Fatalf("round %d query %d: %d %s", round, qi, code, body)
			}
			searches++
			seen := make(map[int32]bool, len(resp.Results))
			for _, id := range resp.Results {
				seen[id] = true
				if id < base && !stable[qi][id] {
					t.Fatalf("round %d query %d: id %d outside tau returned", round, qi, id)
				}
			}
			for id := range stable[qi] {
				if !seen[id] {
					t.Fatalf("round %d query %d: stable id %d missing (stale cached answer?)", round, qi, id)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
	st := cacheCounters(t, s)
	if st.Hits+st.Misses != int64(searches) {
		t.Fatalf("%d searches counted as %d hits and %d misses", searches, st.Hits, st.Misses)
	}
	t.Logf("%d searches: %d answered by the cache", searches, st.Hits)
}
