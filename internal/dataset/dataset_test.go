package dataset

import (
	"bytes"
	"testing"
)

func TestGeneratorShapes(t *testing.T) {
	cases := []struct {
		name string
		dims int
	}{
		{"sift", 128}, {"gist", 256}, {"pubchem", 881}, {"fasttext", 128}, {"uqvideo", 256},
	}
	for _, c := range cases {
		ds, err := ByName(c.name, 500, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ds.Len() != 500 || ds.Dims != c.dims {
			t.Fatalf("%s: n=%d dims=%d", c.name, ds.Len(), ds.Dims)
		}
		for _, v := range ds.Vectors {
			if v.Dims() != c.dims {
				t.Fatalf("%s: inconsistent dims", c.name)
			}
		}
	}
	if _, err := ByName("nope", 10, 1); err == nil {
		t.Fatal("unknown generator accepted")
	}
}

func TestDeterminism(t *testing.T) {
	a := GISTLike(100, 7)
	b := GISTLike(100, 7)
	for i := range a.Vectors {
		if !a.Vectors[i].Equal(b.Vectors[i]) {
			t.Fatal("generator not deterministic under fixed seed")
		}
	}
	c := GISTLike(100, 8)
	same := true
	for i := range a.Vectors {
		if !a.Vectors[i].Equal(c.Vectors[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

// TestSkewnessOrdering checks the Fig. 1 property the generators must
// reproduce: PubChem/FastText ≫ GIST/UQVideo ≫ SIFT.
func TestSkewnessOrdering(t *testing.T) {
	sift := SIFTLike(2000, 1).MeanSkewness()
	gist := GISTLike(2000, 1).MeanSkewness()
	pub := PubChemLike(2000, 1).MeanSkewness()
	fast := FastTextLike(2000, 1).MeanSkewness()
	if !(sift < 0.1) {
		t.Fatalf("SIFT skew %v should be near zero", sift)
	}
	if !(gist > sift && pub > gist && fast > gist) {
		t.Fatalf("skew ordering violated: sift=%.2f gist=%.2f pubchem=%.2f fasttext=%.2f",
			sift, gist, pub, fast)
	}
	if pub < 0.3 {
		t.Fatalf("PubChem-like skew %v too low for the paper's regime", pub)
	}
}

// TestSyntheticGamma checks the mean skewness tracks γ.
func TestSyntheticGamma(t *testing.T) {
	for _, gamma := range []float64{0.1, 0.3, 0.5} {
		ds := Synthetic(3000, 128, gamma, 1)
		got := ds.MeanSkewness()
		if got < gamma*0.6 || got > gamma*1.4+0.05 {
			t.Fatalf("gamma=%.1f: mean skewness %.3f out of band", gamma, got)
		}
	}
}

func TestSyntheticGammaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("gamma out of range accepted")
		}
	}()
	Synthetic(10, 8, 0.9, 1)
}

func TestUQVideoClusters(t *testing.T) {
	ds := UQVideoLike(400, 3)
	// Near-duplicate bursts: some pair must be within small distance.
	found := false
	for i := 0; i < 100 && !found; i++ {
		for j := i + 1; j < 200; j++ {
			if ds.Vectors[i].Hamming(ds.Vectors[j]) <= 40 {
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("UQVideo-like data has no near-duplicate structure")
	}
}

func TestSplit(t *testing.T) {
	ds := SIFTLike(100, 1)
	rest, queries := ds.Split(10)
	if len(queries) != 10 || rest.Len() != 90 {
		t.Fatalf("split sizes %d/%d", len(queries), rest.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad split count accepted")
		}
	}()
	ds.Split(1000)
}

func TestPerturbQueries(t *testing.T) {
	ds := SIFTLike(200, 1)
	qs := PerturbQueries(ds, 20, 3, 2)
	if len(qs) != 20 {
		t.Fatalf("query count %d", len(qs))
	}
	for _, q := range qs {
		if q.Dims() != ds.Dims {
			t.Fatal("query dims mismatch")
		}
	}
}

func TestPersistRoundTrip(t *testing.T) {
	ds := PubChemLike(60, 5)
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != ds.Name || got.Dims != ds.Dims || got.Len() != ds.Len() {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range ds.Vectors {
		if !got.Vectors[i].Equal(ds.Vectors[i]) {
			t.Fatalf("vector %d differs after round trip", i)
		}
	}
}

func TestLoadCorrupt(t *testing.T) {
	ds := SIFTLike(10, 1)
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Bad magic.
	bad := append([]byte("XXXXXXXX"), raw[8:]...)
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Truncated body.
	if _, err := Load(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Fatal("truncated dataset accepted")
	}
}

func TestSkewnessEmpty(t *testing.T) {
	ds := &Dataset{Name: "empty", Dims: 4}
	sk := ds.Skewness()
	if len(sk) != 4 {
		t.Fatal("Skewness length")
	}
	if ds.MeanSkewness() != 0 {
		t.Fatal("empty dataset mean skew")
	}
}

// TestStreamMatchesMaterialized pins the streaming contract: for every
// generator, draining the stream through SaveStream produces the exact
// bytes Dataset.Save produces for the same (n, seed) — so corpora
// written out-of-core are interchangeable with materialized ones.
func TestStreamMatchesMaterialized(t *testing.T) {
	const n, seed = 300, 11
	cases := map[string]struct {
		stream func() *Stream
		ds     func() *Dataset
	}{
		"sift":      {func() *Stream { return SIFTStream(n, seed) }, func() *Dataset { return SIFTLike(n, seed) }},
		"gist":      {func() *Stream { return GISTStream(n, seed) }, func() *Dataset { return GISTLike(n, seed) }},
		"pubchem":   {func() *Stream { return PubChemStream(n, seed) }, func() *Dataset { return PubChemLike(n, seed) }},
		"fasttext":  {func() *Stream { return FastTextStream(n, seed) }, func() *Dataset { return FastTextLike(n, seed) }},
		"uqvideo":   {func() *Stream { return UQVideoStream(n, seed) }, func() *Dataset { return UQVideoLike(n, seed) }},
		"synthetic": {func() *Stream { return SyntheticStream(n, 96, 0.25, seed) }, func() *Dataset { return Synthetic(n, 96, 0.25, seed) }},
	}
	for name, tc := range cases {
		var streamed, materialized bytes.Buffer
		if err := SaveStream(&streamed, tc.stream()); err != nil {
			t.Fatalf("%s: SaveStream: %v", name, err)
		}
		if err := tc.ds().Save(&materialized); err != nil {
			t.Fatalf("%s: Save: %v", name, err)
		}
		if !bytes.Equal(streamed.Bytes(), materialized.Bytes()) {
			t.Errorf("%s: streamed output differs from materialized (%d vs %d bytes)",
				name, streamed.Len(), materialized.Len())
		}
		if _, err := Load(bytes.NewReader(streamed.Bytes())); err != nil {
			t.Errorf("%s: streamed output does not load: %v", name, err)
		}
	}
}

// TestStreamExhaustion checks the single-use contract.
func TestStreamExhaustion(t *testing.T) {
	s := SIFTStream(3, 1)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	for i := 0; i < 3; i++ {
		if _, ok := s.Next(); !ok {
			t.Fatalf("Next %d returned false", i)
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("Next after exhaustion returned a vector")
	}
}
