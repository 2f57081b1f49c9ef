// Command benchmark is the repository's regression benchmark: four
// workloads (lib_selective, lib_wide, serve_read, serve_write), each a
// seed-generated request list replayed many times by one closed-loop
// client, reduced to each request's best latency. See README.md.
//
//	bash benchmark/run.sh --workload lib_selective --seed 1 --seconds 20 --trace 0
//	go -C benchmark run . -workload serve_read -trace 1
//	go -C benchmark run . -check
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's environment.
type config struct {
	root    string // repository root: holds cmd/gph-server and BENCHMARK.json
	workdir string // scratch for snapshots, WALs and the server binary; created per run, removed on exit
	outDir  string // benchmark/out: trace files and kept server logs
	seed    int64
	budget  time.Duration // how long the timed passes of one run measure
	traced  bool
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (empty runs all four)")
		seed     = flag.Int64("seed", 1, "seed of the request list")
		seconds  = flag.Float64("seconds", 20, "how long the timed passes measure")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
		workdir  = flag.String("workdir", "", "where to create the scratch directory (default benchmark/out); the scratch directory itself is removed on exit")
		jsonOut  = flag.String("json", "", "also write the metrics and the run's parameters to this file")
		check    = flag.Bool("check", false, "validate BENCHMARK.json against what the runner prints, then exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected arguments %v\n", flag.Args())
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	if *check {
		if err := checkBenchmarkFile(filepath.Join(root, "BENCHMARK.json")); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Println("BENCHMARK.json matches the runner")
		return 0
	}
	names := workloadNames
	if *workload != "" {
		if _, ok := specs[*workload]; !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{*workload}
	}

	cfg := config{
		root:   root,
		outDir: filepath.Join(root, "benchmark", "out"),
		seed:   *seed,
		budget: time.Duration(*seconds * float64(time.Second)),
		traced: *trace != 0,
	}
	if *workdir == "" {
		*workdir = cfg.outDir
	}
	err = os.MkdirAll(cfg.outDir, 0o755)
	if err == nil {
		err = os.MkdirAll(*workdir, 0o755)
	}
	if err == nil {
		cfg.workdir, err = os.MkdirTemp(*workdir, "work-")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	defer os.RemoveAll(cfg.workdir)

	// A signal cancels ctx, which kills the server child (it is started
	// with exec.CommandContext) and lets the deferred cleanup run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	code := 0
	var results []*result
	for _, name := range names {
		res, err := runWorkload(ctx, cfg, specs[name])
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		if err := res.print(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		if !res.correct() {
			code = 1
		}
		results = append(results, res)
	}
	if *jsonOut != "" {
		if err := writeJSONCopy(*jsonOut, cfg, results); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return code
}

// runWorkload dispatches on the workload's kind.
func runWorkload(ctx context.Context, cfg config, sp spec) (*result, error) {
	switch sp.kind {
	case kindLib:
		return runLib(cfg, sp)
	case kindServeRead:
		return runServeRead(ctx, cfg, sp)
	default:
		return runServeWrite(ctx, cfg, sp)
	}
}

// findRoot walks up from the working directory to the repository
// root, recognised by the server's source: the runner works both from
// the root (run.sh) and from benchmark/ (go -C benchmark run .).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "gph-server", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no cmd/gph-server above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

// writeJSONCopy writes the machine-readable copy of a run: every
// printed metric plus the parameters needed to compare two files.
func writeJSONCopy(path string, cfg config, results []*result) error {
	sha := "unknown"
	if out, err := exec.Command("git", "-C", cfg.root, "rev-parse", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	type entry struct {
		Workload  string             `json:"workload"`
		Traced    bool               `json:"traced"`
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Params    map[string]any     `json:"params"`
		Metrics   map[string]float64 `json:"metrics"`
		Problems  []string           `json:"problems,omitempty"`
	}
	doc := map[string]any{
		"git_sha":    sha,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"seed":       cfg.seed,
		"seconds":    cfg.budget.Seconds(),
	}
	var entries []entry
	for _, r := range results {
		metrics := map[string]float64{}
		for _, d := range r.table() {
			metrics[d.Name] = r.Values[d.Name]
		}
		entries = append(entries, entry{r.Workload, r.Traced, r.correct(), r.Attempted, r.Failed, r.Params, metrics, r.Problems})
	}
	doc["runs"] = entries
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
