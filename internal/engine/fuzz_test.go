package engine_test

import (
	"bytes"
	"slices"
	"testing"

	"gph/internal/bitvec"
	"gph/internal/dataset"
	"gph/internal/engine"
	"gph/internal/linscan"
)

// FuzzLoadAny hammers every registered loader through the one entry
// point that dispatches on the magic: starting from a small saved file of
// each engine, whatever the bytes, LoadAny never panics, and a file it
// accepts is a fixed point of saving — Save, LoadAny and Save again write
// the same bytes — and answers a search for one of its own vectors as a
// linear scan over its vectors does: at τ = 0 every engine, the
// approximate one included, finds every copy of the vector. A GPH file
// whose postings disagree with its rows is accepted (the content tier
// checks that postings are well formed, not what they index), so where
// GPH answered from its index rather than a scan, its answer need only
// lie within the scan's.
func FuzzLoadAny(f *testing.F) {
	data := dataset.Synthetic(120, 24, 0.3, 5).Vectors
	for _, name := range engine.Names() {
		e, err := engine.Build(name, data, engine.BuildOptions{NumPartitions: 3, MaxTau: 3, Seed: 5})
		if err != nil {
			f.Fatalf("building %s: %v", name, err)
		}
		f.Add(saved(f, e))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		e, err := engine.LoadAny(bytes.NewReader(raw))
		if err != nil {
			return
		}
		first := saved(t, e)
		again, err := engine.LoadAny(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("%s: the saved form of an accepted file is rejected: %v", e.Name(), err)
		}
		if !bytes.Equal(saved(t, again), first) {
			t.Fatalf("%s: Save → LoadAny → Save writes other bytes", e.Name())
		}
		if e.Len() == 0 {
			return
		}
		vectors := make([]bitvec.Vector, e.Len())
		for id := range vectors {
			vectors[id] = e.Vector(int32(id))
		}
		oracle, err := linscan.New(vectors)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		q := vectors[len(vectors)/2]
		want, err := oracle.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := e.SearchStats(q, 0)
		if err != nil {
			t.Fatalf("%s: searching for a stored vector: %v", e.Name(), err)
		}
		fromPostings := e.Name() == "gph" && !st.Scanned
		if !slices.Equal(got, want) && !(fromPostings && isSubset(got, want)) {
			t.Fatalf("%s: a search for vector %d answers %v, a linear scan %v", e.Name(), len(vectors)/2, got, want)
		}
	})
}

// saved is e's saved form.
func saved(t testing.TB, e engine.Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatalf("saving %s: %v", e.Name(), err)
	}
	return buf.Bytes()
}

// isSubset reports whether every id of the ascending sub is in the
// ascending set.
func isSubset(sub, set []int32) bool {
	for _, id := range sub {
		if _, ok := slices.BinarySearch(set, id); !ok {
			return false
		}
	}
	return true
}
