package linscan

import (
	"testing"

	"gph/internal/bitvec"
)

func TestScanner(t *testing.T) {
	data := []bitvec.Vector{
		bitvec.MustFromString("0000"),
		bitvec.MustFromString("0001"),
		bitvec.MustFromString("0011"),
		bitvec.MustFromString("1111"),
	}
	s, err := New(data)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 || s.Dims() != 4 {
		t.Fatal("accessors")
	}
	got, err := s.Search(bitvec.MustFromString("0000"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Search = %v", got)
	}
	if _, err := s.Search(bitvec.New(5), 1); err == nil {
		t.Fatal("dims mismatch accepted")
	}
	if _, err := s.Search(data[0], -1); err == nil {
		t.Fatal("negative tau accepted")
	}
}

func TestScannerErrors(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("empty data accepted")
	}
	if _, err := New([]bitvec.Vector{bitvec.New(4), bitvec.New(5)}); err == nil {
		t.Fatal("mixed dims accepted")
	}
}

// TestSizeBytesCountsTheColumn: a scanner's resident size is its arena
// until the first search, and the arena plus whatever word-0 column that
// search built after it (8 bytes a vector where verify has its kernels
// and rows are wider than a word; nothing elsewhere).
func TestSizeBytesCountsTheColumn(t *testing.T) {
	data := make([]bitvec.Vector, 100)
	for i := range data {
		data[i] = bitvec.New(128)
		data[i].Set(i)
	}
	s, err := New(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.SizeBytes(); got != 100*16 {
		t.Fatalf("SizeBytes %d before any search, want the arena's %d", got, 100*16)
	}
	if _, err := s.Search(data[0], 3); err != nil {
		t.Fatal(err)
	}
	column := s.codes.SketchBytes()
	if column != 0 && column != 100*8 {
		t.Fatalf("SketchBytes %d after a search, want 0 or %d", column, 100*8)
	}
	if got := s.SizeBytes(); got != 100*16+column {
		t.Fatalf("SizeBytes %d after a search, want arena + column = %d", got, 100*16+column)
	}
}
