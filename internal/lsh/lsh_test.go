package lsh

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"gph/internal/dataset"
	"gph/internal/engine/enginetest"
	"gph/internal/invindex"
	"gph/internal/linscan"
)

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, 4, Options{}); err == nil {
		t.Fatal("empty data accepted")
	}
	ds := dataset.Synthetic(10, 16, 0.2, 1)
	if _, err := Build(ds.Vectors, -1, Options{}); err == nil {
		t.Fatal("negative tau accepted")
	}
}

// TestNoFalsePositives: whatever the tables return, verification must
// remove everything beyond τ.
func TestNoFalsePositives(t *testing.T) {
	ds := dataset.UQVideoLike(800, 2)
	ix, err := Build(ds.Vectors, 12, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	queries := dataset.PerturbQueries(ds, 15, 4, 4)
	for _, q := range queries {
		got, err := ix.Search(q, 12)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range got {
			if q.Hamming(ds.Vectors[id]) > 12 {
				t.Fatalf("false positive at distance %d", q.Hamming(ds.Vectors[id]))
			}
		}
	}
}

// TestSearchReturnsScratch: a warm query allocates its result and
// nothing more (enginetest.ScratchReturned); the query's set dimensions
// are listed once into the scratch, not once a table.
func TestSearchReturnsScratch(t *testing.T) {
	ds := dataset.UQVideoLike(800, 2)
	ix, err := Build(ds.Vectors, 12, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	enginetest.ScratchReturned(t, ix, ds.Vectors[5], 12)
}

// TestRecallOnDesignRange: on clustered data at its design threshold
// the index must find a healthy share of the true results.
func TestRecallOnDesignRange(t *testing.T) {
	ds := dataset.UQVideoLike(1500, 5)
	oracle, _ := linscan.New(ds.Vectors)
	ix, err := Build(ds.Vectors, 16, Options{Seed: 6, Recall: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	queries := dataset.PerturbQueries(ds, 20, 4, 7)
	var want, got int
	for _, q := range queries {
		w, _ := oracle.Search(q, 16)
		g, _ := ix.Search(q, 16)
		want += len(w)
		got += len(g)
	}
	if want == 0 {
		t.Skip("no true results at this threshold")
	}
	recall := float64(got) / float64(want)
	if recall < 0.7 {
		t.Fatalf("recall %.2f below sanity floor (tables=%d, t=%.2f)", recall, ix.Tables(), ix.JaccardThreshold())
	}
}

func TestDeterminism(t *testing.T) {
	ds := dataset.Synthetic(300, 64, 0.2, 8)
	a, _ := Build(ds.Vectors, 8, Options{Seed: 9})
	b, _ := Build(ds.Vectors, 8, Options{Seed: 9})
	q := ds.Vectors[0]
	ra, _ := a.Search(q, 8)
	rb, _ := b.Search(q, 8)
	if len(ra) != len(rb) {
		t.Fatal("LSH not deterministic under fixed seed")
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatal("LSH not deterministic under fixed seed")
		}
	}
}

func TestEmptyVectors(t *testing.T) {
	// All-zero vectors have empty one-sets; the sentinel hashing must
	// keep them colliding with each other only.
	ds := dataset.Synthetic(50, 32, 0.0, 10)
	for i := range ds.Vectors[:10] {
		ds.Vectors[i] = ds.Vectors[0] // a block of identical vectors
	}
	ix, err := Build(ds.Vectors, 4, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.Search(ds.Vectors[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 1 {
		t.Fatal("identical vectors not found")
	}
}

func TestTableCountScalesWithTau(t *testing.T) {
	ds := dataset.Synthetic(500, 64, 0.1, 12)
	small, _ := Build(ds.Vectors, 2, Options{Seed: 1})
	large, _ := Build(ds.Vectors, 24, Options{Seed: 1})
	if small.Tables() > large.Tables() {
		t.Fatalf("l should not shrink as τ grows: %d vs %d", small.Tables(), large.Tables())
	}
	if small.SizeBytes() <= 0 || small.Tau() != 2 || small.Len() != 500 {
		t.Fatal("accessors")
	}
}

// TestLoadRefusesTableCap: a file's options decide how many tables Load
// rebuilds, so a cap past maxTables is refused — by Build and so by Load —
// before a table is drawn: band size 10, recall 1 − 10⁻⁹ and τ = 20 on
// 24-bit rows ask for millions, and a cap of 2²⁰ would let them through.
func TestLoadRefusesTableCap(t *testing.T) {
	ds := dataset.Synthetic(120, 24, 0.3, 5)
	if _, err := Build(ds.Vectors, 3, Options{MaxTables: maxTables + 1}); err == nil {
		t.Fatal("Build took a cap past maxTables")
	}
	ix, err := Build(ds.Vectors, 3, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// After the magic: τ, band size, recall, table cap.
	b := buf.Bytes()
	binary.LittleEndian.PutUint64(b[8:], 20)
	binary.LittleEndian.PutUint64(b[16:], 10)
	binary.LittleEndian.PutUint64(b[24:], math.Float64bits(1-1e-9))
	binary.LittleEndian.PutUint64(b[32:], 1<<20)
	if _, err := Load(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "tables, more than") {
		t.Fatalf("a file capping tables at 2²⁰: %v", err)
	}
	binary.LittleEndian.PutUint64(b[32:], maxTables)
	big, err := Load(bytes.NewReader(b))
	if err != nil || len(big.tables) != maxTables {
		t.Fatalf("a file capping tables at maxTables: %v", err)
	}
}

// TestScratchComesBackClean: no query clears the collector's bitmap on
// the way in, so every way out leaves the pooled one all zero — a query
// answered from fewer candidates than bitmap words, so that IDSet.Reset
// clears by its members, and a query refused.
func TestScratchComesBackClean(t *testing.T) {
	ds := dataset.Synthetic(8000, 128, 0.5, 2)
	ix, err := Build(ds.Vectors, 8, Options{Seed: 3, K: 8})
	if err != nil {
		t.Fatal(err)
	}
	// From the last stored vector back: its own id comes late in its
	// lists, after candidates verification drops, which compacting first
	// would lose the bits of.
	q := len(ds.Vectors) - 1
	for ; q >= 0; q-- {
		if _, st, err := ix.SearchStats(ds.Vectors[q], 8); err == nil && st.Candidates > st.Results && st.Candidates < ix.Len()/64 {
			break
		}
	}
	if q < 0 {
		t.Fatal("no stored vector is answered from fewer candidates than bitmap words, some verified away")
	}
	enginetest.PoolComesBackClean(t, &ix.scratch, func(s *searchScratch) *invindex.IDSet { return &s.col.Set }, slices.Concat(
		enginetest.SearchExits("answered", ix, ds.Vectors[q], 8, true),
		enginetest.SearchExits("τ past the build's", ix, ds.Vectors[q], 9, false),
	))
}
