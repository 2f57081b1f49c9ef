// Command gph-search builds a search engine over a dataset and
// answers Hamming distance queries from the command line.
//
// Usage:
//
//	gph-search -data corpus.ds -tau 8 -q 0110...           # one query
//	gph-search -data corpus.ds -tau 8 -sample 5            # sampled queries
//	gph-search -data corpus.ds -engine mih -tau 8 -q 0...  # another engine
//	gph-search -data corpus.ds -save index.gph             # persist the index
//	gph-search -index index.gph -tau 8 -q 0110...          # load and query
//	gph-search -data corpus.ds -knn 10 -q 0110...          # k nearest
//
// -engine selects any registered backend (gph by default); -index
// loads a previously saved index of any engine, dispatching on the
// file's magic bytes.
//
// A range query prints route=scan|index plan=… scan=…, the prices gph's
// guard compared in key-scan steps (scan= at this -tau). alloc_rounds=0
// route=scan is the free verdict: the index's shape and -tau price every
// plan above the scan, and the query was not bound, probed or allocated.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"gph"
	"gph/datagen"
)

func main() {
	var (
		dataPath  = flag.String("data", "", "dataset file (from gph-datagen)")
		indexPath = flag.String("index", "", "load a previously saved index instead of building")
		savePath  = flag.String("save", "", "write the built index to this file")
		tau       = flag.Int("tau", 8, "Hamming distance threshold")
		knn       = flag.Int("knn", 0, "answer k-nearest-neighbours queries instead of range queries")
		queryStr  = flag.String("q", "", "query as a 0/1 string (dimension 0 first)")
		sample    = flag.Int("sample", 0, "answer this many sampled data vectors as queries")
		m         = flag.Int("m", 0, "partition count (0 = auto)")
		maxTau    = flag.Int("max-tau", 0, "largest query threshold τ-bounded engines build for (0 = default 64)")
		seed      = flag.Int64("seed", 42, "build seed")
		buildPar  = flag.Int("build-parallelism", 0, "index-build worker count (0 = GOMAXPROCS)")
		engName   = flag.String("engine", "gph", fmt.Sprintf("search engine to build %v", gph.Engines()))
	)
	flag.Parse()

	index, data, err := openIndex(*dataPath, *indexPath, *engName, *m, *maxTau, *buildPar, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gph-search: %v\n", err)
		os.Exit(1)
	}

	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gph-search: %v\n", err)
			os.Exit(1)
		}
		if err := index.Save(f); err != nil {
			fmt.Fprintf(os.Stderr, "gph-search: saving index: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "gph-search: saving index: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("saved %s index (%d vectors, %.2f MB) to %s\n",
			index.Name(), index.Len(), float64(index.SizeBytes())/(1<<20), *savePath)
	}

	run := func(q gph.Vector, label string) {
		start := time.Now()
		if *knn > 0 {
			nns, err := index.SearchKNN(q, *knn)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gph-search: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("%s: %d nearest in %v\n", label, len(nns), time.Since(start).Round(time.Microsecond))
			for i, n := range nns {
				if i == 10 {
					fmt.Printf("  … %d more\n", len(nns)-10)
					break
				}
				fmt.Printf("  id=%d distance=%d\n", n.ID, n.Distance)
			}
			return
		}
		ids, stats, err := index.SearchStats(q, *tau)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gph-search: %v\n", err)
			os.Exit(1)
		}
		route := "index"
		if stats.Scanned {
			route = "scan"
		}
		fmt.Printf("%s: %d results in %v (candidates=%d, thresholds=%v, alloc_rounds=%d, cn_scans=%d, route=%s plan=%d scan=%d, signatures=%d, key_scans=%d, keys_scanned=%d)\n",
			label, len(ids), time.Since(start).Round(time.Microsecond),
			stats.Candidates, stats.Thresholds, stats.AllocRounds, stats.CNScans,
			route, stats.PlanCost, stats.ScanCost,
			stats.Signatures, stats.KeyScans, stats.KeysScanned)
		for i, id := range ids {
			if i == 10 {
				fmt.Printf("  … %d more\n", len(ids)-10)
				break
			}
			fmt.Printf("  id=%d distance=%d\n", id, gph.Hamming(q, index.Vector(id)))
		}
	}

	switch {
	case *queryStr != "":
		q, err := gph.VectorFromString(*queryStr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gph-search: %v\n", err)
			os.Exit(1)
		}
		run(q, "query")
	case *sample > 0:
		if data == nil {
			fmt.Fprintln(os.Stderr, "gph-search: -sample needs -data")
			os.Exit(2)
		}
		stride := data.Len() / *sample
		if stride < 1 {
			stride = 1
		}
		for i := 0; i < *sample; i++ {
			run(data.Vectors[(i*stride)%data.Len()], fmt.Sprintf("sample %d", i))
		}
	case *savePath == "":
		fmt.Fprintln(os.Stderr, "gph-search: nothing to do (need -q, -sample, or -save)")
		os.Exit(2)
	}
}

func openIndex(dataPath, indexPath, engName string, m, maxTau, buildPar int, seed int64) (gph.Engine, *datagen.Dataset, error) {
	if indexPath != "" {
		f, err := os.Open(indexPath)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		e, err := gph.LoadAny(f)
		if err != nil {
			return nil, nil, fmt.Errorf("loading index: %w", err)
		}
		fmt.Printf("loaded %s index over %d vectors × %d dims\n", e.Name(), e.Len(), e.Dims())
		return e, nil, nil
	}
	if dataPath == "" {
		return nil, nil, fmt.Errorf("need -data or -index")
	}
	f, err := os.Open(dataPath)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	ds, err := datagen.Load(f)
	if err != nil {
		return nil, nil, fmt.Errorf("loading dataset: %w", err)
	}
	start := time.Now()
	e, err := gph.BuildEngine(engName, ds.Vectors, gph.EngineOptions{
		NumPartitions: m, MaxTau: maxTau, Seed: seed, BuildParallelism: buildPar,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("building index: %w", err)
	}
	fmt.Printf("built %s index over %d vectors × %d dims in %v\n",
		engName, ds.Len(), ds.Dims, time.Since(start).Round(time.Millisecond))
	return e, ds, nil
}
