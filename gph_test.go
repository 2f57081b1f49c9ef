package gph_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"gph"
	"gph/datagen"
)

// TestPublicQuickstart exercises the README's quickstart path through
// the public API only.
func TestPublicQuickstart(t *testing.T) {
	ds := datagen.UQVideoLike(2000, 1)
	index, err := gph.Build(ds.Vectors, gph.Options{Seed: 1, MaxTau: 16})
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Vectors[42].Clone()
	q.Flip(0)
	q.Flip(100)
	ids, err := index.Search(q, 8)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range ids {
		if gph.Hamming(q, index.Vector(id)) > 8 {
			t.Fatal("false positive in results")
		}
		if id == 42 {
			found = true
		}
	}
	if !found {
		t.Fatal("perturbed source vector not found at τ=8")
	}
}

func TestPublicVectors(t *testing.T) {
	v := gph.NewVector(10)
	v.Set(3)
	if v.PopCount() != 1 {
		t.Fatal("Set/PopCount")
	}
	s, err := gph.VectorFromString("0101")
	if err != nil {
		t.Fatal(err)
	}
	b := gph.VectorFromBits([]byte{0, 1, 0, 1})
	if gph.Hamming(s, b) != 0 {
		t.Fatal("FromString and FromBits disagree")
	}
	w := gph.VectorFromWords(4, []uint64{0b1010})
	if gph.Hamming(s, w) != 0 {
		t.Fatal("FromWords disagrees")
	}
}

func TestPublicSaveLoad(t *testing.T) {
	ds := datagen.SIFTLike(4000, 2)
	index, err := gph.Build(ds.Vectors, gph.Options{NumPartitions: 4, Seed: 2, MaxTau: 8})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := index.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := gph.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Vectors[0]
	a, _ := index.Search(q, 4)
	b, err := loaded.Search(q, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("loaded index answers differently")
	}
}

func TestPublicBatch(t *testing.T) {
	ds := datagen.FastTextLike(1500, 3)
	index, err := gph.Build(ds.Vectors, gph.Options{Seed: 3, MaxTau: 12})
	if err != nil {
		t.Fatal(err)
	}
	queries := ds.Vectors[:16]
	batch, err := index.SearchBatch(queries, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		single, _ := index.Search(q, 6)
		if len(single) != len(batch[i]) {
			t.Fatalf("batch result %d differs from sequential", i)
		}
	}
}

// TestPublicOpenSharded drives the durable lifecycle end to end
// through the public API: create empty with a WAL, insert, crash
// (abandon without saving), reopen and recover, checkpoint with
// SaveFile, reopen from snapshot + truncated log.
func TestPublicOpenSharded(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "index.gph")
	opts := gph.Options{
		NumPartitions: 4, MaxTau: 12, Seed: 5, SampleSize: 200, WorkloadSize: 8,
		WALPath: filepath.Join(dir, "index.wal"),
	}
	ds := datagen.SIFTLike(60, 9)

	s, err := gph.OpenSharded(snap, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ds.Vectors {
		if _, err := s.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete(5); err != nil {
		t.Fatal(err)
	}
	// Crash: no SaveFile, no Close — acknowledged updates must still
	// be on disk.
	s2, err := gph.OpenSharded(snap, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != len(ds.Vectors)-1 {
		t.Fatalf("recovered %d vectors, want %d", s2.Len(), len(ds.Vectors)-1)
	}
	if _, ok := s2.Vector(5); ok {
		t.Fatal("deleted vector resurrected by replay")
	}
	got, err := s2.Search(ds.Vectors[7], 0)
	if err != nil || len(got) == 0 {
		t.Fatalf("recovered search: %v %v", got, err)
	}
	if err := s2.SaveFile(snap); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen from the checkpoint: snapshot carries everything, log is
	// empty.
	s3, err := gph.OpenSharded(snap, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != len(ds.Vectors)-1 {
		t.Fatalf("checkpoint reopened with %d vectors, want %d", s3.Len(), len(ds.Vectors)-1)
	}
	if s3.Engine() != "gph" || s3.NumShards() != 2 {
		t.Fatalf("checkpoint lost identity: %s/%d", s3.Engine(), s3.NumShards())
	}
}

func TestDatagenRoundTrip(t *testing.T) {
	ds := datagen.Synthetic(100, 64, 0.2, 4)
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := datagen.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 100 || got.Dims != 64 {
		t.Fatal("round trip header")
	}
}
