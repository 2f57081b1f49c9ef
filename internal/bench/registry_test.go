package bench

import (
	"slices"
	"strings"
	"testing"
	"time"

	"gph/internal/dataset"
)

// TestExperimentRegistry checks the ledger's registries: nine artifact
// writers, five systems with distinct names, and the per-τ baselines of the
// sweep's tables naming exactly the per-τ systems, in systems' order.
func TestExperimentRegistry(t *testing.T) {
	if len(artifacts) != 9 {
		t.Fatalf("%d artifact writers, want 9", len(artifacts))
	}
	var names, perTau []string
	for _, s := range systems {
		if slices.Contains(names, s.name) {
			t.Fatalf("duplicate system %s", s.name)
		}
		names = append(names, s.name)
		if s.perTau {
			perTau = append(perTau, s.name)
		}
	}
	if want := []string{"GPH", "MIH", "HmSearch", "PartAlloc", "LSH"}; !slices.Equal(names, want) {
		t.Fatalf("systems %q, want %q", names, want)
	}
	if !slices.Equal(perTau, baselines) {
		t.Fatalf("per-τ systems %q, baselines %q", perTau, baselines)
	}
}

// TestTablePrinting checks the markdown a section writes and the unit
// helpers its cells use.
func TestTablePrinting(t *testing.T) {
	s := section{title: "T", claim: "C", rule: "R", tab: table{head: []string{"a", "b"}}, verdict: holds}
	s.tab.add("1", "2.5")
	s.tab.add("x", "y")
	var out strings.Builder
	s.write(&out)
	want := "## T\n\n**Claim.** C\n\n**Rule.** R\n\n| a | b |\n|---|---|\n| 1 | 2.5 |\n| x | y |\n\n**Verdict:** holds.\n\n"
	if out.String() != want {
		t.Fatalf("section wrote\n%q\nwant\n%q", out.String(), want)
	}
	for _, c := range []struct{ got, want string }{
		{us(1500 * time.Nanosecond), "1.50"},
		{us(15 * time.Microsecond), "15.0"},
		{us(150 * time.Microsecond), "150"},
		{secs(1500 * time.Millisecond), "1.50"},
		{mib(1 << 20), "1.00"},
		{gib(1 << 30), "1.00 GiB"},
		{pct(0.25), "25 %"},
		{count(2000), "2000"},
		{count(20_000), "2·10⁴"},
		{count(1_000_000), "10⁶"},
	} {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
}

// TestSpecs checks the ledger's corpus specs: each names a generator,
// sweeps a non-empty ascending τ below its dimensionality, and Figs. 2–5
// run on sift, gist and pubchem. An unknown corpus name is rejected.
func TestSpecs(t *testing.T) {
	for _, c := range corpora {
		ds, err := dataset.ByName(c.name, 10, seed)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(c.taus) == 0 || !slices.IsSorted(c.taus) || c.taus[0] <= 0 || slices.Max(c.taus) >= ds.Dims {
			t.Errorf("%s: bad τ %v for d = %d", c.name, c.taus, ds.Dims)
		}
	}
	var paper []string
	for _, c := range paperCorpora {
		paper = append(paper, c.name)
	}
	if want := []string{"sift", "gist", "pubchem"}; !slices.Equal(paper, want) {
		t.Errorf("Figs. 2–5 corpora %q, want %q", paper, want)
	}
	if _, err := dataset.ByName("nope", 10, seed); err == nil {
		t.Error("unknown corpus name accepted")
	}
}
