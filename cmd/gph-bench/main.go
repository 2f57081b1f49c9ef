// Command gph-bench regenerates the tables and figures of the GPH
// paper's evaluation (§VII) on this repository's synthetic stand-ins.
//
// Usage:
//
//	gph-bench -list
//	gph-bench -exp fig7
//	gph-bench -exp all -scale 0.5 -queries 20
package main

import (
	"flag"
	"fmt"
	"os"

	"gph/internal/bench"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id (see -list) or \"all\"")
		scale    = flag.Float64("scale", 1.0, "dataset size multiplier")
		queries  = flag.Int("queries", 30, "queries per measurement point")
		seed     = flag.Int64("seed", 42, "seed for data generation")
		buildPar = flag.Int("build-parallelism", 0, "GPH index-build worker count (0 = GOMAXPROCS)")
		jsonPath = flag.String("json", "", "write the machine-readable report here (experiments that emit one: fig6, fig7)")
		list     = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range bench.Experiments() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	r := bench.NewRunner(bench.Config{
		Scale:            *scale,
		Queries:          *queries,
		Seed:             *seed,
		BuildParallelism: *buildPar,
		Out:              os.Stdout,
		JSONPath:         *jsonPath,
	})
	var err error
	if *exp == "all" {
		err = r.RunAll()
	} else {
		err = r.Run(*exp)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gph-bench: %v\n", err)
		os.Exit(1)
	}
}
