// Package bench is the reproduction ledger. For each artifact of the GPH
// paper's evaluation (§VII) that this tree keeps, it states the paper's
// claim, measures it on the synthetic stand-ins for the paper's corpora
// (internal/dataset) and decides a verdict from the table by a rule fixed
// per artifact. cmd/gph-bench writes the ledger; REPRODUCTION.md is its
// checked-in output.
package bench

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"time"

	"gph/internal/cpu"
)

const (
	// seed drives every corpus, query set and randomized build.
	seed = 42
	// runs is how often each query is timed; its time is the best run.
	runs = 5
	// budget caps a per-τ baseline's index above the first size: one is
	// built at n only if its size at Config.Sizes[0], scaled linearly to
	// n, stays under it.
	budget = 256 << 20
	// tie: a time within tie times another counts as no slower than it.
	tie = 1.1
)

// Config sizes a ledger; the zero Config is the one REPRODUCTION.md holds.
type Config struct {
	// Sizes are the collection sizes, ascending, of the artifacts with an
	// n axis (Fig. 6, Table IV, Fig. 7); default 2·10⁴, 2·10⁵ and 10⁶.
	Sizes []int
	// N is the collection size of every other artifact; default 2·10⁵.
	N int
	// Queries per measured cell; default 30.
	Queries int
}

func (c Config) withDefaults() Config {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{20_000, 200_000, 1_000_000}
	}
	if c.N == 0 {
		c.N = 200_000
	}
	if c.Queries == 0 {
		c.Queries = 30
	}
	return c
}

// ledger carries one run's configuration and its measurements shared
// between sections.
type ledger struct {
	cfg      Config
	clock    time.Duration      // the timer's own floor, taken off every time
	fixtures map[string]fixture // Figs. 2–5's corpora, by name
	swept    []point            // Fig. 6, Table IV and Fig. 7's measurements
}

// artifacts lists what the ledger keeps, in the paper's order.
var artifacts = []func(*ledger) ([]section, error){
	(*ledger).fig2, (*ledger).fig3, (*ledger).fig4, (*ledger).fig5,
	(*ledger).fig6, (*ledger).table4, (*ledger).fig7,
	(*ledger).fig8d, (*ledger).fig8ef,
}

// Ledger measures every artifact under cfg and writes the ledger to w. It
// fails if an exact engine's ids differ from linscan's for any query of
// any cell, or if a GPH index answers differently after Save and Load.
func Ledger(w io.Writer, cfg Config) error {
	start := time.Now()
	l := &ledger{cfg: cfg.withDefaults(), clock: clockFloor()}
	var body strings.Builder
	for _, art := range artifacts {
		secs, err := art(l)
		if err != nil {
			return err
		}
		for _, s := range secs {
			s.write(&body)
		}
	}
	l.header(w, time.Since(start))
	_, err := io.WriteString(w, body.String())
	return err
}

func (l *ledger) header(w io.Writer, wall time.Duration) {
	scan, proj := "AVX-512 VPOPCNTDQ assembly", "PEXT"
	if cpu.KernelMissing != "" {
		scan = "portable loops (missing " + cpu.KernelMissing + ")"
	}
	if cpu.PEXTMissing != "" {
		proj = "gather (missing " + cpu.PEXTMissing + ")"
	}
	limit := "none"
	if b := debug.SetMemoryLimit(-1); b < math.MaxInt64 {
		limit = gib(b)
	}
	sizes := make([]string, len(l.cfg.Sizes))
	for i, n := range l.cfg.Sizes {
		sizes[i] = count(n)
	}
	fmt.Fprintf(w, `# Reproduction ledger: GPH, Similarity Search in Hamming Space

Each section states one claim of the paper's evaluation (§VII), this tree's
table, and a verdict the table decides by the rule beside it: *holds*,
*holds from n ≥ …*, or *does not hold here, because …*. The corpora are
internal/dataset's synthetic stand-ins. Every query is a stored vector with
4 bits flipped. A cell's time is the median over its queries of each query's
best of %d runs. Its scanned share is the share of its queries that the
engine's guard answered by the verified scan instead of the index. A time
within %.0f %% of another counts as no slower. GPH runs with the paper's
defaults (m = d/24, greedy initialisation, refinement, DP allocation). MIH
gets GPH's m, and MIH, HmSearch and PartAlloc get HmSearch's OS
rearrangement, the competitors' strongest configuration in the paper. Each
exact engine's ids are checked against linscan's for every query of every
cell; a difference fails the run.

| setting | value |
|---|---|
| command | `+"`go run ./cmd/gph-bench > REPRODUCTION.md`"+` |
| GOMAXPROCS | %d |
| scan kernel | %s |
| projector | %s |
| queries | %d a cell, each timed as its best of %d runs |
| seed | %d |
| sizes | n ∈ {%s} for Fig. 6, Table IV and Fig. 7; n = %s for the rest |
| per-τ budget | %s: HmSearch, PartAlloc and LSH run at n only if their size at n = %s, scaled to n, stays under it |
| wall time | %s |
| peak heap | %s (soft memory limit: %s) |

The peak heap is every heap byte the runtime mapped (runtime/metrics,
/memory/classes/heap/*). The runtime never unmaps heap memory, so this
bounds the peak from above.

`, runs, (tie-1)*100, runtime.GOMAXPROCS(0), scan, proj, l.cfg.Queries, runs, seed,
		strings.Join(sizes, ", "), count(l.cfg.N), gib(budget), count(l.cfg.Sizes[0]),
		wall.Round(time.Second), gib(heapMapped()), limit)
}

// heapMapped sums runtime/metrics' heap classes: every heap byte mapped.
func heapMapped() int64 {
	var samples []metrics.Sample
	for _, d := range metrics.All() {
		if strings.HasPrefix(d.Name, "/memory/classes/heap/") {
			samples = append(samples, metrics.Sample{Name: d.Name})
		}
	}
	metrics.Read(samples)
	var sum int64
	for _, s := range samples {
		sum += int64(s.Value.Uint64())
	}
	return sum
}

// clockFloor is the least a time.Now pair reads, as internal/core's
// reportStage takes it off its stage times.
func clockFloor() time.Duration {
	floor := time.Duration(math.MaxInt64)
	for range 1000 {
		t0 := time.Now()
		floor = min(floor, time.Since(t0))
	}
	return floor
}

// section is one artifact's page: the claim, the rule that decides it,
// the table and the verdict.
type section struct {
	title, claim, rule string
	tab                table
	verdict            string
}

func (s *section) write(w io.Writer) {
	fmt.Fprintf(w, "## %s\n\n**Claim.** %s\n\n**Rule.** %s\n\n", s.title, s.claim, s.rule)
	s.tab.write(w)
	fmt.Fprintf(w, "\n**Verdict:** %s.\n\n", s.verdict)
}

// table is a markdown table.
type table struct {
	head []string
	rows [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) {
	line := func(cells []string) { fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | ")) }
	line(t.head)
	fmt.Fprintf(w, "|%s\n", strings.Repeat("---|", len(t.head)))
	for _, r := range t.rows {
		line(r)
	}
}

// Verdict prefixes: the ledger's whole vocabulary.
const (
	holds     = "holds"
	holdsFrom = "holds from n ≥ "
	holdsNot  = "does not hold here, because "
)

// verdict folds a rule's findings at ascending sizes into the vocabulary:
// why[i] is empty where the claim held at sizes[i] and says how it broke
// otherwise.
func verdict(sizes []int, why []string) string {
	k := len(why)
	for k > 0 && why[k-1] == "" {
		k--
	}
	switch {
	case k == 0:
		return holds
	case k < len(why):
		return holdsFrom + count(sizes[k])
	case len(why) > 1:
		return holdsNot + "at n = " + count(sizes[k-1]) + ", " + why[k-1]
	}
	return holdsNot + why[0]
}

// tally counts the cells a rule judged and the ones that broke it.
type tally struct {
	cells, broken int
	first         string
}

// check judges one cell: where names it, and what says how it broke.
func (t *tally) check(ok bool, where, what string) {
	t.cells++
	if !ok {
		if t.broken == 0 {
			t.first = where + ": " + what
		}
		t.broken++
	}
}

// why is "" if every judged cell held, and otherwise says how many broke
// and how the first did.
func (t *tally) why() string {
	switch {
	case t.cells == 0:
		return "no cell could be judged"
	case t.broken == 0:
		return ""
	}
	return fmt.Sprintf("%d of %d cells break it, the first at %s", t.broken, t.cells, t.first)
}

// count renders a collection size, in powers of ten where it is one.
func count(n int) string {
	sup := []rune("⁰¹²³⁴⁵⁶⁷⁸⁹")
	for k := 9; k >= 4; k-- {
		p := int(math.Pow10(k))
		if n%p != 0 || n/p > 9 {
			continue
		}
		if n == p {
			return "10" + string(sup[k])
		}
		return fmt.Sprintf("%d·10%c", n/p, sup[k])
	}
	return fmt.Sprint(n)
}

// us renders a duration in µs, to three significant figures or whole.
func us(d time.Duration) string {
	v := float64(d) / 1e3
	switch {
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

func secs(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()) }
func mib(b int64) string          { return fmt.Sprintf("%.2f", float64(b)/(1<<20)) }
func gib(b int64) string          { return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30)) }
func pct(f float64) string        { return fmt.Sprintf("%.0f %%", 100*f) }
