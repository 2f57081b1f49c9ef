// Package bench is the experiment harness: it regenerates every table
// and figure of the GPH paper's evaluation (§VII) on the repository's
// synthetic stand-ins for the paper's datasets. Each experiment is
// addressable by id ("fig7", "table4", …) from cmd/gph-bench and from
// the testing.B wrappers in bench_test.go; EXPERIMENTS.md records the
// measured outputs against the paper's reported shapes.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"gph/internal/engine"
)

// Config scales the harness. The defaults target a two-core laptop:
// dataset sizes in the tens of thousands rather than the paper's
// millions, which preserves every comparative shape (DESIGN.md §3).
type Config struct {
	// Scale multiplies dataset sizes; 1.0 uses the defaults below.
	Scale float64
	// Queries per measurement point (default 30).
	Queries int
	// Seed drives all data generation and randomized choices.
	Seed int64
	// BuildParallelism bounds the GPH index-build worker pool
	// (core.Options.BuildParallelism); ≤ 0 selects GOMAXPROCS. The
	// build-time tables (Table IV) reflect the setting.
	BuildParallelism int
	// Out receives the rendered tables (default io.Discard).
	Out io.Writer
	// Verbose adds per-query progress.
	Verbose bool
	// JSONPath, when set, is where experiments with machine-readable
	// output ("fig6", "fig7") write their report; empty disables the
	// artifact.
	JSONPath string
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Queries <= 0 {
		c.Queries = 30
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

func (c Config) size(base int) int {
	n := int(float64(base) * c.Scale)
	if n < 200 {
		n = 200
	}
	return n
}

// Experiment is a runnable reproduction of one paper artifact.
type Experiment struct {
	ID    string
	Title string // the paper artifact it regenerates
	Run   func(*Runner) error
}

// Experiments lists all experiments in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig1", "Fig. 1: skewness by dimension per dataset", (*Runner).Fig1},
		{"fig2a", "Fig. 2(a): query time decomposition", (*Runner).Fig2a},
		{"fig2b", "Fig. 2(b): sum of postings vs candidate size (alpha)", (*Runner).Fig2b},
		{"fig3", "Fig. 3: threshold allocation DP vs RR", (*Runner).Fig3},
		{"fig4", "Fig. 4: partitioning methods and initializations", (*Runner).Fig4},
		{"fig5", "Fig. 5: effect of partition count m", (*Runner).Fig5},
		{"fig6", "Fig. 6: index sizes", (*Runner).Fig6},
		{"table4", "Table IV: index construction time (GIST-like)", (*Runner).Table4},
		{"fig7", "Fig. 7: candidates and query time vs competitors", (*Runner).Fig7},
		{"fig8ac", "Fig. 8(a-c): varying number of dimensions", (*Runner).Fig8ac},
		{"fig8d", "Fig. 8(d): varying skewness", (*Runner).Fig8d},
		{"fig8ef", "Fig. 8(e-f): workload-mismatch robustness", (*Runner).Fig8ef},
		{"ablation", "Ablation: each GPH design choice removed in turn", (*Runner).Ablation},
	}
}

// ExperimentIDs returns the ids in order.
func ExperimentIDs() []string {
	exps := Experiments()
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	return ids
}

// Runner executes experiments under one Config, caching generated
// datasets and built engines across experiments.
type Runner struct {
	cfg      Config
	datasets map[string]*cachedDataset
	engCache map[string]engine.Engine
}

// NewRunner builds a runner.
func NewRunner(cfg Config) *Runner {
	return &Runner{cfg: cfg.withDefaults(), datasets: make(map[string]*cachedDataset)}
}

// Run executes the experiment with the given id.
func (r *Runner) Run(id string) error {
	for _, e := range Experiments() {
		if e.ID == id {
			fmt.Fprintf(r.cfg.Out, "== %s — %s ==\n", e.ID, e.Title)
			start := time.Now()
			if err := e.Run(r); err != nil {
				return fmt.Errorf("bench: %s: %w", id, err)
			}
			fmt.Fprintf(r.cfg.Out, "-- %s done in %v --\n\n", e.ID, time.Since(start).Round(time.Millisecond))
			return nil
		}
	}
	known := ExperimentIDs()
	sort.Strings(known)
	return fmt.Errorf("bench: unknown experiment %q (known: %v)", id, known)
}

// writeJSON serializes an experiment's machine-readable report to
// Config.JSONPath; a no-op when no path is configured.
func (r *Runner) writeJSON(rep interface{}) error {
	if r.cfg.JSONPath == "" {
		return nil
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(r.cfg.JSONPath, buf, 0o644); err != nil {
		return fmt.Errorf("bench: writing %s: %w", r.cfg.JSONPath, err)
	}
	fmt.Fprintf(r.cfg.Out, "wrote %s\n", r.cfg.JSONPath)
	return nil
}

// RunAll executes every experiment in order.
func (r *Runner) RunAll() error {
	for _, e := range Experiments() {
		if err := r.Run(e.ID); err != nil {
			return err
		}
	}
	return nil
}
