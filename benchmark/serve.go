package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"gph"
	"gph/datagen"
)

// serveRun is the state the two serve workloads share: the corpus, a
// snapshot of it on disk, and the gph-server child that serves it.
type serveRun struct {
	ctx  context.Context
	cfg  config
	sp   spec
	res  *result
	data []gph.Vector

	bin      string   // gph-server, built from the checkout
	snapshot string   // sharded container the server opens
	logPath  string   // the child's stdout+stderr
	args     []string // server flags, without -addr
	srv      *server
	cl       *client

	searches, respBytes int64 // answered searches and their summed body sizes
}

// newServeRun generates the corpus, builds the sharded index
// in-process, saves it as the snapshot every server start opens, and
// compiles the server.
func newServeRun(ctx context.Context, cfg config, sp spec) (*serveRun, error) {
	r := &serveRun{ctx: ctx, cfg: cfg, sp: sp, res: newResult(sp.name, cfg.traced),
		snapshot: filepath.Join(cfg.workdir, sp.name+".snapshot"),
		logPath:  filepath.Join(cfg.workdir, sp.name+".server.log"),
	}
	start := time.Now()
	ds, err := datagen.ByName(sp.dataset, sp.n, corpusSeed)
	if err != nil {
		return nil, err
	}
	r.res.set("dataset.gen_s", time.Since(start).Seconds())
	r.data = ds.Vectors
	r.res.Params = map[string]any{"dataset": sp.dataset, "n": sp.n, "dims": r.data[0].Dims(), "tau": sp.tau, "shards": sp.shards}

	start = time.Now()
	idx, err := gph.BuildSharded(r.data, sp.shards, gph.Options{Seed: buildSeed})
	if err != nil {
		return nil, fmt.Errorf("build sharded: %w", err)
	}
	r.res.set("shard.build_s", time.Since(start).Seconds())
	start = time.Now()
	err = idx.SaveFile(r.snapshot)
	r.res.set("persist.save_s", time.Since(start).Seconds())
	if cerr := idx.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("save snapshot: %w", err)
	}
	if fi, err := os.Stat(r.snapshot); err == nil {
		r.res.set("persist.snapshot_mb", float64(fi.Size())/(1<<20))
	}
	r.bin, err = buildServer(ctx, cfg)
	if err != nil {
		return nil, err
	}
	r.args = []string{"-shards", fmt.Sprint(sp.shards), "-snapshot", r.snapshot}
	return r, nil
}

// start (re)starts the server: whatever ran before is killed -9.
func (r *serveRun) start() (time.Duration, error) {
	r.stop()
	srv, took, err := startServer(r.ctx, r.bin, r.logPath, r.args...)
	if err != nil {
		return 0, err
	}
	r.srv, r.cl = srv, newClient(srv.base)
	return took, nil
}

func (r *serveRun) stop() {
	if r.cl != nil {
		r.cl.close()
	}
	r.srv.kill()
	r.srv, r.cl = nil, nil
}

// close stops the server; when the run went wrong the server's log is
// kept next to the trace files, since the work dir is removed.
func (r *serveRun) close(failed bool) {
	r.stop()
	if failed || !r.res.correct() {
		if raw, err := os.ReadFile(r.logPath); err == nil {
			kept := filepath.Join(r.cfg.outDir, "server-"+r.sp.name+".log")
			if os.WriteFile(kept, raw, 0o644) == nil {
				fmt.Fprintf(os.Stderr, "benchmark: server log kept at %s\n", kept)
			}
		}
	}
}

// timedStarts measures set-up as a user of the server sees it: exec →
// first 200 from /healthz, opening the snapshot (and replaying the WAL
// when there is one). The last server started stays up.
func (r *serveRun) timedStarts() error {
	setups := r.sp.setups
	if r.cfg.traced {
		setups = 1
	}
	var secs []float64
	for range setups {
		took, err := r.start()
		if err != nil {
			return err
		}
		secs = append(secs, took.Seconds())
	}
	r.res.set("setup_s", slices.Min(secs))
	return nil
}

// call sends one workload operation and counts it. ok is false, and
// the failure is recorded, on a transport error or a non-200 status.
func (r *serveRun) call(method, path string, body []byte) (resp []byte, latency time.Duration, ok bool) {
	r.res.Attempted++
	status, resp, latency, err := r.cl.do(method, path, body)
	if err != nil {
		r.res.fail("%s %s: %v", method, truncate(path), err)
		return nil, 0, false
	}
	if status != http.StatusOK {
		r.res.fail("%s %s: status %d: %s", method, truncate(path), status, resp)
		return nil, 0, false
	}
	return resp, latency, true
}

func truncate(path string) string {
	if len(path) > 40 {
		return path[:40] + "..."
	}
	return path
}

// search sends request i of a pass, a GET /search, and compares the
// answer id for id with what the oracle expects. A good answer's
// latency goes to rec (nil in pass 0). With a tracer the request gets
// its spans: request ⊃ http.roundtrip ⊃ server.handler (the answer's
// own micros field), and request ⊃ client.check (decode + oracle).
func (r *serveRun) search(rec *recorder, tr *tracer, i int, path string, want []int32) {
	req := tr.begin("request", i, -1)
	defer tr.end(req)
	rt := tr.begin("http.roundtrip", i, req)
	resp, latency, ok := r.call(http.MethodGet, path, nil)
	tr.end(rt)
	if !ok {
		return
	}
	check := tr.begin("client.check", i, req)
	var ans searchAnswer
	err := json.Unmarshal(resp, &ans)
	good := err == nil && slices.Equal(ans.Results, want)
	tr.end(check)
	if !good {
		r.res.fail("GET %s: err=%v, got ids %v, oracle expects %v", truncate(path), err, head(ans.Results), head(want))
		return
	}
	handler := time.Duration(ans.Micros) * time.Microsecond
	if tr != nil {
		tr.child("server.handler", rt, max(0, (latency-handler).Nanoseconds()/2), handler.Nanoseconds())
	}
	if rec != nil {
		rec.add(i, latency)
		rec.addWire(i, latency-handler)
	}
	r.searches++
	r.respBytes += int64(len(resp))
}

func head(ids []int32) []int32 { return ids[:min(len(ids), 8)] }

func (r *serveRun) insert(v gph.Vector) (id int32, latency time.Duration, ok bool) {
	resp, latency, ok := r.call(http.MethodPost, "/insert", []byte(`{"vector":"`+v.String()+`"}`))
	if !ok {
		return 0, 0, false
	}
	var ans struct {
		ID int32 `json:"id"`
	}
	if err := json.Unmarshal(resp, &ans); err != nil {
		r.res.fail("POST /insert: %v", err)
		return 0, 0, false
	}
	return ans.ID, latency, true
}

func (r *serveRun) delete(id int32) (latency time.Duration, ok bool) {
	_, latency, ok = r.call(http.MethodPost, "/delete", []byte(fmt.Sprintf(`{"id":%d}`, id)))
	return latency, ok
}

func (r *serveRun) stats() (serverStats, error) {
	var st serverStats
	err := r.cl.getJSON("/stats", &st)
	return st, err
}

func searchPath(q gph.Vector, tau int) string {
	return fmt.Sprintf("/search?q=%s&tau=%d", q.String(), tau)
}

// passFunc replays a workload's request list once against the running
// server. rec and tr may be nil (pass 0 records nothing).
type passFunc func(rec *recorder, tr *tracer) error

// measure is the common shape of a serve run once the server is up:
// pass 0 untimed, the timed passes, then — traced runs only — the
// passes with spans. classes maps a per-layer metric to the requests
// whose mean best-of-P latency it reports.
func (r *serveRun) measure(q int, pass passFunc, classes map[string]func(i int) bool) error {
	res := r.res
	// The load generator gets one processor while it replays. With two,
	// the runner's own scheduler (idle Ps spinning for work, goroutine
	// hand-offs inside net/http crossing threads) competes with the
	// server for the box's two vCPUs: in a noisy spell the cache-hit
	// path read 98–114 µs with GOMAXPROCS=2 here and 65–78 µs with 1,
	// which is what it reads in a quiet hour either way.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if err := pass(nil, nil); err != nil {
		return err
	}
	budget := r.cfg.budget
	var host *hostRef
	if r.cfg.traced {
		budget /= 2
		host = newHostRef()
	}
	ticks := readCPUTicks()
	rec := newRecorder(q)
	start := time.Now()
	for rec.more(start, budget) {
		passStart := time.Now()
		if err := pass(rec, nil); err != nil {
			return err
		}
		rec.endPass(time.Since(passStart))
		if host != nil {
			host.sample()
		}
	}
	res.Params["Q"], res.Params["P"] = q, rec.passes
	if !r.cfg.traced {
		p50, p95, qps := rec.filtered()
		res.set("p50_us", p50)
		res.set("p95_us", p95)
		res.set("qps", qps)
		return nil
	}

	for name, match := range classes {
		res.set(name, classMeanUs(rec.best, match))
	}
	res.set("serve.wire_overhead_us", classMeanUs(rec.wire, func(int) bool { return true }))
	res.set("serve.resp_bytes", float64(r.respBytes)/float64(max(r.searches, 1)))

	tr := newTracer(tracedPasses * q * 4)
	traced := newRecorder(q)
	for p := range tracedPasses {
		tr.pass = p
		passStart := time.Now()
		if err := pass(traced, tr); err != nil {
			return err
		}
		traced.endPass(time.Since(passStart))
	}
	reportTraced(res, rec, traced, host, ticks)
	return tr.report(os.Stdout, r.sp.name, filepath.Join(r.cfg.outDir, "trace-"+r.sp.name+".json"))
}

// finish reads what the server reports about itself after the last
// pass: index size and the child's peak RSS.
func (r *serveRun) finish() (serverStats, error) {
	st, err := r.stats()
	if err != nil {
		return st, err
	}
	r.res.set("index_mb", float64(st.SizeBytes)/(1<<20))
	rss, err := peakRSSMiB(r.srv.pid())
	if err != nil {
		return st, err
	}
	r.res.set("rss_mb", rss)
	if total := st.Planner.RoutedIndex + st.Planner.RoutedScan; total > 0 {
		r.res.set("plan.routed_scan_ratio", float64(st.Planner.RoutedScan)/float64(total))
	}
	if total := st.Planner.Cache.Hits + st.Planner.Cache.Misses; total > 0 {
		r.res.set("plan.cache_hit_ratio", float64(st.Planner.Cache.Hits)/float64(total))
	}
	r.res.set("plan.estimate_us", st.Planner.EstimateNanos/1e3)
	r.res.set("plan.scan_ns_per_row", st.Planner.ScanNanosPerRow)
	return st, nil
}

// runServeRead replays GET /search with 80 % repeated queries against
// a server with its default planner and cache.
func runServeRead(ctx context.Context, cfg config, sp spec) (res *result, err error) {
	r, err := newServeRun(ctx, cfg, sp)
	if err != nil {
		return nil, err
	}
	defer func() { r.close(err != nil) }()
	res = r.res

	rng := newRand(cfg.seed)
	queries, _ := sampleQueries(rng, r.data, sp.distinct, sp.flips)
	schedule, first := repeatSchedule(rng, sp.requests, sp.distinct)
	// The vector inserted and deleted before every pass: far from
	// every query, so it never shows up in an answer.
	bump := perturb(rng, r.data[0], r.data[0].Dims()/2)
	paths := make([]string, len(queries))
	expected := make([][]int32, len(queries))
	for i, q := range queries {
		paths[i] = searchPath(q, sp.tau)
		expected[i] = oracleWithin(r.data, q, sp.tau) // no updates stay live: ids are corpus indices
	}
	res.Params["distinct"] = sp.distinct

	if err := r.timedStarts(); err != nil {
		return nil, err
	}

	repeats := int64(sp.requests - sp.distinct)
	pass := func(rec *recorder, tr *tracer) error {
		// One insert and its delete bump the index epoch, which empties
		// the epoch-keyed result cache: request i is then a miss in every
		// pass or a hit in every pass.
		if id, _, ok := r.insert(bump); ok {
			r.delete(id)
		}
		before, err := r.stats()
		if err != nil {
			return err
		}
		for i, qi := range schedule {
			r.search(rec, tr, i, paths[qi], expected[qi])
		}
		after, err := r.stats()
		if err != nil {
			return err
		}
		hits := after.Planner.Cache.Hits - before.Planner.Cache.Hits
		misses := after.Planner.Cache.Misses - before.Planner.Cache.Misses
		if hits != repeats || misses != int64(sp.distinct) {
			res.problemf("self-check: a pass had %d cache hits and %d misses, want %d and %d", hits, misses, repeats, sp.distinct)
		}
		return nil
	}
	err = r.measure(sp.requests, pass, map[string]func(int) bool{
		"serve.hit_us":  func(i int) bool { return !first[i] },
		"serve.miss_us": func(i int) bool { return first[i] },
	})
	if err != nil {
		return nil, err
	}
	st, err := r.finish()
	if err != nil {
		return nil, err
	}
	if delta, dead := st.pending(); st.Vectors != sp.n || delta != 0 || dead != 0 {
		res.problemf("self-check: server ends with %d vectors, %d delta, %d tombstones; want %d, 0, 0", st.Vectors, delta, dead, sp.n)
	}
	if cfg.traced {
		r.stop()
		if err := r.probeServeLayers(queries, expected); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runServeWrite churns a fixed set of stored vectors through
// delete → search → insert → search against a server with a WAL.
func runServeWrite(ctx context.Context, cfg config, sp spec) (res *result, err error) {
	r, err := newServeRun(ctx, cfg, sp)
	if err != nil {
		return nil, err
	}
	defer func() { r.close(err != nil) }()
	res = r.res
	walPath := filepath.Join(cfg.workdir, sp.name+".wal")
	r.args = append(r.args, "-wal", walPath)
	res.Params["wal"] = "fsync per update, in the work dir " + cfg.workdir
	res.Params["W"], res.Params["wal_updates"] = sp.churn, sp.updates

	// The seed picks, among the corpus, the vectors that churn, the
	// ones the WAL deletes, and the ones the WAL's inserts derive from.
	rng := newRand(cfg.seed)
	perm := rng.Perm(sp.n)
	half := sp.updates / 2
	churn, walDeletes, walSources := perm[:sp.churn], perm[sp.churn:sp.churn+half], perm[sp.churn+half:sp.churn+2*half]
	model := newLiveModel(r.data)
	walInserts := make([]int, half) // index in model.vecs of each WAL insert
	for k, j := range walSources {
		model.vecs = append(model.vecs, perturb(rng, r.data[j], r.data[j].Dims()/4))
		model.ids = append(model.ids, -1)
		walInserts[k] = len(model.vecs) - 1
	}
	// Four searches per churned vector, all perturbations of it, so
	// each answer depends on whether the vector is live at that moment.
	const searchesPerChurn = 4
	paths := make([]string, sp.churn*searchesPerChurn)
	near := make([][]int32, len(paths))
	for k, j := range churn {
		for s := range searchesPerChurn {
			q := perturb(rng, r.data[j], sp.flips)
			paths[k*searchesPerChurn+s] = searchPath(q, sp.tau)
			near[k*searchesPerChurn+s] = oracleWithin(model.vecs, q, sp.tau)
		}
	}

	// Prep: acknowledged updates, kill -9, restart. Every acknowledged
	// update must have survived; the timed starts replay this same WAL.
	if _, err := r.start(); err != nil {
		return nil, err
	}
	for k := range half {
		if id, _, ok := r.insert(model.vecs[walInserts[k]]); ok {
			model.ids[walInserts[k]] = id
		}
		if _, ok := r.delete(model.ids[walDeletes[k]]); ok {
			model.ids[walDeletes[k]] = -1
		}
	}
	if err := r.timedStarts(); err != nil {
		return nil, err
	}
	st, err := r.stats()
	if err != nil {
		return nil, err
	}
	if st.Vectors != model.live() {
		res.problemf("durability: %d vectors after kill -9 and restart, model has %d", st.Vectors, model.live())
	}
	for k := range half {
		for _, j := range []int{walInserts[k], walDeletes[k]} {
			v := model.vecs[j]
			r.search(nil, nil, 0, searchPath(v, 0), model.expected(oracleWithin(model.vecs, v, 0)))
		}
	}

	// One pass: per churned vector, delete its current id, 2 searches,
	// insert the same content back (new id, same shard), 2 searches.
	// The first pass moves each churned vector from the built index to
	// the delta buffer (one tombstone, one delta entry); from then on a
	// delete removes a delta entry and the insert adds it back, so the
	// buffers have the same sizes at request i of every later pass.
	const opsPerChurn = 2 + searchesPerChurn
	pass := func(rec *recorder, tr *tracer) error {
		for k, j := range churn {
			i := k * opsPerChurn
			record := func(op int, latency time.Duration, ok bool) {
				if ok && rec != nil {
					rec.add(i+op, latency)
				}
			}
			searches := func(op, from int) {
				for s := from; s < from+searchesPerChurn/2; s++ {
					p := k*searchesPerChurn + s
					r.search(rec, tr, i+op, paths[p], model.expected(near[p]))
					op++
				}
			}
			span := tr.begin("delete", i, -1)
			latency, ok := r.delete(model.ids[j])
			tr.end(span)
			if ok {
				model.ids[j] = -1
			}
			record(0, latency, ok)
			searches(1, 0)
			span = tr.begin("insert", i+3, -1)
			id, latency, ok := r.insert(r.data[j])
			tr.end(span)
			if ok {
				model.ids[j] = id
			}
			record(3, latency, ok)
			searches(4, searchesPerChurn/2)
		}
		return nil
	}
	isSearch := func(i int) bool { return i%opsPerChurn != 0 && i%opsPerChurn != 3 }
	err = r.measure(sp.churn*opsPerChurn, pass, map[string]func(int) bool{
		"serve.delete_us": func(i int) bool { return i%opsPerChurn == 0 },
		"serve.insert_us": func(i int) bool { return i%opsPerChurn == 3 },
		"serve.search_us": isSearch,
	})
	if err != nil {
		return nil, err
	}
	st, err = r.finish()
	if err != nil {
		return nil, err
	}
	pending := half + sp.churn
	if delta, dead := st.pending(); st.Vectors != model.live() || delta != pending || dead != pending {
		res.problemf("self-check: after the passes %d vectors, %d delta, %d tombstones; want %d, %d, %d", st.Vectors, delta, dead, model.live(), pending, pending)
	}

	// Compaction folds everything pending; afterwards the buffers must
	// be empty and every answer unchanged.
	took, err := r.compact(st.Compaction.Runs)
	if err != nil {
		return nil, err
	}
	res.set("shard.compact_s", took.Seconds())
	st, err = r.stats()
	if err != nil {
		return nil, err
	}
	if delta, dead := st.pending(); st.Vectors != model.live() || delta != 0 || dead != 0 {
		res.problemf("self-check: after compaction %d vectors, %d delta, %d tombstones; want %d, 0, 0", st.Vectors, delta, dead, model.live())
	}
	for p, path := range paths {
		r.search(nil, nil, p, path, model.expected(near[p]))
	}
	if cfg.traced {
		r.stop()
		queries := make([]gph.Vector, len(churn))
		expected := make([][]int32, len(churn))
		for k, j := range churn {
			queries[k] = r.data[j]
			expected[k] = oracleWithin(r.data, r.data[j], sp.tau)
		}
		if err := r.probeServeLayers(queries, expected); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// compact starts a compaction and polls /stats until it has finished:
// POST /compact → running=false with the run counter advanced.
func (r *serveRun) compact(runsBefore int64) (time.Duration, error) {
	start := time.Now()
	r.res.Attempted++
	status, body, _, err := r.cl.do(http.MethodPost, "/compact", nil)
	if err != nil || status != http.StatusAccepted {
		r.res.fail("POST /compact: status %d, err %v: %s", status, err, body)
		return 0, nil
	}
	for {
		st, err := r.stats()
		if err != nil {
			return 0, err
		}
		if !st.Compaction.Running && st.Compaction.Runs > runsBefore {
			if st.Compaction.LastError != "" {
				r.res.fail("compaction: %s", st.Compaction.LastError)
			}
			return time.Since(start), nil
		}
		if time.Since(start) > 2*time.Minute {
			return 0, fmt.Errorf("compaction still running after 2 minutes")
		}
		select {
		case <-r.ctx.Done():
			return 0, r.ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// probeServeLayers times, in-process and without HTTP, the layers a
// served request crosses: opening the snapshot both ways, the sharded
// search, and updates with the delta scan they cause. Then the layers
// every workload shares.
func (r *serveRun) probeServeLayers(queries []gph.Vector, expected [][]int32) error {
	res, tau := r.res, r.sp.tau
	nq := float64(len(queries))

	start := time.Now()
	mapped, err := gph.OpenShardedFile(r.snapshot, gph.OpenMMap)
	if err != nil {
		return err
	}
	res.set("persist.open_mmap_s", time.Since(start).Seconds())
	start = time.Now()
	_, err = mapped.Search(queries[0], tau)
	res.set("mmapio.first_query_us", float64(time.Since(start).Nanoseconds())/1e3)
	if cerr := mapped.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	start = time.Now()
	idx, err := gph.OpenShardedFile(r.snapshot, gph.OpenHeap)
	if err != nil {
		return err
	}
	res.set("persist.load_heap_s", time.Since(start).Seconds())
	defer idx.Close()
	if err := idx.ConfigurePlan("adaptive", 0); err != nil { // the server's planner, no cache
		return err
	}
	searchMean := func() float64 {
		var total time.Duration
		for i, q := range queries {
			var ids []int32
			total += bestOf(probeRepeats, func() { ids, err = idx.Search(q, tau) })
			if err != nil || len(ids) != len(expected[i]) {
				res.problemf("in-process search %d: err=%v, %d ids, oracle has %d", i, err, len(ids), len(expected[i]))
			}
		}
		return float64(total.Nanoseconds()) / nq / 1e3
	}
	searchMean() // warm-up: page in the heap-loaded arenas
	clean := searchMean()
	res.set("shard.search_us", clean)

	// Churn stored vectors in-process (no WAL): what a write costs
	// without fsync, and what the pending buffers add to a search.
	churn := min(5000, len(r.data)/4)
	var delNs, insNs time.Duration
	for id := range int32(churn) {
		t0 := time.Now()
		if err := idx.Delete(id); err != nil {
			return err
		}
		delNs += time.Since(t0)
		t0 = time.Now()
		if _, err := idx.Insert(r.data[id]); err != nil {
			return err
		}
		insNs += time.Since(t0)
	}
	res.set("shard.delete_us", float64(delNs.Nanoseconds())/float64(churn)/1e3)
	res.set("shard.insert_us", float64(insNs.Nanoseconds())/float64(churn)/1e3)
	res.set("shard.delta_scan_us", searchMean()-clean) // ids moved, counts did not

	return probeShared(res, r.cfg, r.data, queries, expected, tau, 1000)
}
