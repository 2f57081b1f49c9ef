package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestExperimentRegistry(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 13 {
		t.Fatalf("expected 13 experiments, have %d", len(ids))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate experiment id %s", id)
		}
		seen[id] = true
	}
	for _, want := range []string{"fig1", "fig7", "table4", "fig8ef", "ablation"} {
		if !seen[want] {
			t.Fatalf("missing experiment %s", want)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	r := NewRunner(Config{})
	if err := r.Run("fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFig1Smoke(t *testing.T) {
	var buf bytes.Buffer
	r := NewRunner(Config{Scale: 0.02, Queries: 3, Out: &buf})
	if err := r.Run("fig1"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{"sift", "gist", "pubchem", "fasttext", "uqvideo"} {
		if !strings.Contains(out, name) {
			t.Fatalf("fig1 output missing %s:\n%s", name, out)
		}
	}
}

func TestTablePrinting(t *testing.T) {
	var buf bytes.Buffer
	tb := newTable(&buf, "a", "b")
	tb.row(1, 2.5)
	tb.row("x", "y")
	tb.flush()
	out := buf.String()
	if !strings.Contains(out, "a") || !strings.Contains(out, "2.5") {
		t.Fatalf("table output wrong:\n%s", out)
	}
	if ms(1500000) != "1.500" {
		t.Fatalf("ms = %s", ms(1500000))
	}
	if mb(1<<20) != "1.00" {
		t.Fatalf("mb = %s", mb(1<<20))
	}
}

func TestSpecs(t *testing.T) {
	for _, s := range specs() {
		if len(s.taus) == 0 || s.m < 2 || s.baseSize <= 0 {
			t.Fatalf("bad spec %+v", s)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown spec name accepted")
		}
	}()
	specByName("nope")
}
