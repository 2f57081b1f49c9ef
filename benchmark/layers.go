package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"gph"
	"gph/internal/alloc"
	"gph/internal/hamming"
	"gph/internal/invindex"
	"gph/internal/plan"
	"gph/internal/verify"
	"gph/internal/wal"
)

// probeRepeats is how often a direct layer timing repeats a call; the
// best repeat is kept, like the passes keep each request's best.
const probeRepeats = 3

// bestOf runs fn repeats times and returns the shortest run.
func bestOf(repeats int, fn func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for range repeats {
		start := time.Now()
		fn()
		best = min(best, time.Since(start))
	}
	return best
}

// probeLayers times the layers under the gph engine directly, on the
// workload's own corpus and queries.
func (r *libRun) probeLayers(tot phaseTotals) error {
	res, tau := r.res, r.sp.tau
	ix, ok := r.engine.(*gph.Index)
	if !ok {
		return fmt.Errorf("gph engine is %T, not *gph.Index", r.engine)
	}
	nq := float64(len(r.queries))

	// The allocation phase, split: CN estimation, then the DP on the
	// table it produced.
	parts := ix.Partitioning()
	params := alloc.Params{Tau: tau, Widths: parts.Widths(), EnumBudget: ix.Options().EnumBudget}
	var scratch alloc.Scratch
	var cnNs, dpNs time.Duration
	for _, q := range r.queries {
		var table alloc.Table
		cnNs += bestOf(probeRepeats, func() { table = ix.EstimateTable(q, tau) })
		dpNs += bestOf(probeRepeats, func() { alloc.AllocateScratch(table, params, &scratch) })
	}
	res.set("candest.cn_all_us", float64(cnNs.Nanoseconds())/nq/1e3)
	res.set("alloc.dp_us", float64(dpNs.Nanoseconds())/nq/1e3)

	// Signature enumeration alone, over the thresholds the traced
	// passes were allocated.
	var enum hamming.Enumerator
	var enumNs time.Duration
	sigs, enumSigs := 0, 0
	proj := gph.NewVector(1)
	for i, q := range r.queries {
		for p, ti := range tot.thresholds[i] {
			if ti < 0 {
				continue
			}
			proj = proj.Resized(len(parts.Parts[p]))
			q.ProjectInto(parts.Parts[p], proj)
			enumNs += bestOf(probeRepeats, func() {
				sigs = 0
				_ = enum.Enumerate(proj, ti, 0, func(gph.Vector) bool { sigs++; return true })
			})
			enumSigs += sigs
		}
	}
	res.set("hamming.enum_ns_per_sig", float64(enumNs.Nanoseconds())/float64(max(enumSigs, 1)))

	// Posting probes on one partition the runner freezes itself: keys
	// that are present (projections of stored vectors) and keys that
	// are absent (projections of random vectors, checked).
	dims0 := parts.Parts[0]
	inv := invindex.New()
	proj = proj.Resized(len(dims0))
	var key []byte
	for id, v := range r.data {
		v.ProjectInto(dims0, proj)
		key = proj.AppendKey(key[:0])
		inv.Add(string(key), int32(id))
	}
	frozen := inv.Freeze()
	rng := newRand(r.cfg.seed)
	var hits, misses [][]byte
	for _, j := range rng.Perm(len(r.data))[:min(4096, len(r.data))] {
		r.data[j].ProjectInto(dims0, proj)
		hits = append(hits, proj.AppendKey(nil))
	}
	random := gph.NewVector(r.data[0].Dims())
	for attempts := 0; len(misses) < 4096 && attempts < 1<<16; attempts++ {
		for w := range random.Words() {
			random.Words()[w] = rng.Uint64()
		}
		random.ProjectInto(dims0, proj)
		k := proj.AppendKey(nil)
		if frozen.PostingLenBytes(k) == 0 {
			misses = append(misses, k)
		}
	}
	var dst []int32
	probe := func(keys [][]byte) float64 {
		if len(keys) == 0 {
			return 0
		}
		d := bestOf(probeRepeats, func() {
			for _, k := range keys {
				dst = frozen.AppendPostingsBytes(k, dst[:0])
			}
		})
		return float64(d.Nanoseconds()) / float64(len(keys))
	}
	res.set("invindex.probe_hit_ns", probe(hits))
	res.set("invindex.probe_miss_ns", probe(misses))

	// Reference engines on the same queries: the lines GPH is gated
	// against.
	for _, name := range []string{"mih", "linscan", "hmsearch"} {
		e, err := gph.BuildEngine(name, r.data, gph.EngineOptions{Seed: buildSeed, MaxTau: tau})
		if err != nil {
			return fmt.Errorf("build %s: %w", name, err)
		}
		r.checkAgainstOracle(name, e)
		rec := newRecorder(len(r.queries))
		for range 5 {
			for i, q := range r.queries {
				t0 := time.Now()
				_, err := e.Search(q, tau)
				rec.add(i, time.Since(t0))
				if err != nil {
					res.fail("%s query %d: %v", name, i, err)
				}
			}
		}
		p50, _, _ := rec.filtered()
		res.set(name+".p50_us", p50)
		if name == "mih" {
			var cands int64
			for _, q := range r.queries {
				if _, st, err := e.SearchStats(q, tau); err == nil {
					cands += int64(st.Candidates)
				}
			}
			res.set("mih.candidates", float64(cands)/nq)
		}
	}

	// Parallel batch throughput.
	batch := bestOf(probeRepeats, func() {
		if _, err := r.engine.SearchBatch(r.queries, tau, runtime.NumCPU()); err != nil {
			res.problemf("SearchBatch: %v", err)
		}
	})
	res.set("engine.batch_qps", nq/batch.Seconds())

	// The planner's per-query decision on this engine.
	pl := plan.NewPlanner(plan.ModeAdaptive)
	pl.Calibrate(ix)
	var routeNs time.Duration
	for _, q := range r.queries {
		routeNs += bestOf(probeRepeats, func() { pl.Route(ix, q, tau) })
	}
	res.set("plan.route_ns", float64(routeNs.Nanoseconds())/nq)

	meanCands := int(tot.candidates / int64(tracedPasses*len(r.queries)))
	return probeShared(res, r.cfg, r.data, r.queries, r.expected, tau, meanCands)
}

// probeShared times the layers every workload's requests cross
// whatever the engine: the verification kernels, the result cache and
// the write-ahead log.
func probeShared(res *result, cfg config, data, queries []gph.Vector, expected [][]int32, tau, candidates int) error {
	nq := float64(len(queries))
	codes := verify.Pack(data)
	rows := float64(len(data))

	// Full verified scan: what the planner's scan route and linscan do.
	var scanNs time.Duration
	buf := make([]int32, 0, len(data))
	for i, q := range queries {
		scanNs += bestOf(probeRepeats, func() { buf = codes.AppendWithin(q, tau, buf[:0]) })
		if !slices.Equal(buf, expected[i]) {
			res.problemf("verify.AppendWithin query %d: %d ids, oracle has %d", i, len(buf), len(expected[i]))
		}
	}
	perRow := float64(scanNs.Nanoseconds()) / nq / rows
	res.set("verify.scan_ns_per_row", perRow)
	res.set("verify.scan_gb_s", float64(codes.SizeBytes())/rows/perRow) // computed bytes per ns = GB/s

	// Gathered verification of a candidate list of the size the index
	// produced.
	candidates = max(1, min(candidates, len(data)))
	rng := newRand(cfg.seed)
	ids := make([]int32, candidates)
	for i, j := range rng.Perm(len(data))[:candidates] {
		ids[i] = int32(j)
	}
	slices.Sort(ids)
	work := make([]int32, candidates)
	var filterNs time.Duration
	for _, q := range queries {
		filterNs += bestOf(probeRepeats, func() {
			copy(work, ids)
			codes.FilterWithin(q, tau, work)
		})
	}
	res.set("verify.filter_ns_per_cand", float64(filterNs.Nanoseconds())/nq/float64(candidates))

	// The result cache, directly: a put and a hit per query.
	cache := plan.NewCache(64 << 20)
	keys := make([]plan.Key, len(queries))
	for i, q := range queries {
		keys[i] = plan.Key{Hash: plan.HashWords(q.Words(), uint64(q.Dims())), Epoch: 1, Tau: int32(tau), K: -1}
	}
	start := time.Now()
	for i, k := range keys {
		cache.Put(k, expected[i], nil)
	}
	res.set("plan.cache_put_ns", float64(time.Since(start).Nanoseconds())/nq)
	get := bestOf(probeRepeats, func() {
		for _, k := range keys {
			cache.Get(k)
		}
	})
	res.set("plan.cache_get_ns", float64(get.Nanoseconds())/nq)

	// The write-ahead log, directly, in the work dir: append + fsync
	// per record (the server's policy), then reopen, which replays.
	walPath := filepath.Join(cfg.workdir, "probe.wal")
	defer os.Remove(walPath)
	log, _, err := wal.Open(walPath)
	if err != nil {
		return err
	}
	const records = 64
	start = time.Now()
	for i := range records {
		v := data[i%len(data)]
		if err := log.Append(wal.Record{Op: wal.OpInsert, ID: int32(len(data) + i), Dims: v.Dims(), Words: v.Words()}); err != nil {
			log.Close()
			return err
		}
	}
	res.set("wal.append_us", float64(time.Since(start).Nanoseconds())/records/1e3)
	res.set("wal.bytes_per_update", float64(log.Size())/records)
	if err := log.Close(); err != nil {
		return err
	}
	start = time.Now()
	log, recs, err := wal.Open(walPath)
	if err != nil {
		return err
	}
	res.set("wal.replay_us_per_rec", float64(time.Since(start).Nanoseconds())/records/1e3)
	if len(recs) != records {
		res.problemf("wal probe: replayed %d of %d records", len(recs), records)
	}
	return log.Close()
}
