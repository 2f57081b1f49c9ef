package binio

import (
	"bytes"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Magic("TEST01\n")
	w.Uint64(0xdeadbeefcafe)
	w.Int(-42)
	w.Int64(1 << 60)
	w.Uint32(77)
	w.String("hello, 世界")
	w.String("")
	w.Int32s([]int32{-1, 0, 7})
	w.Ints([]int{-5, 5})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	r.Magic("TEST01\n")
	if got := r.Uint64(); got != 0xdeadbeefcafe {
		t.Fatalf("Uint64 = %x", got)
	}
	if got := r.Int(); got != -42 {
		t.Fatalf("Int = %d", got)
	}
	if got := r.Int64(); got != 1<<60 {
		t.Fatalf("Int64 = %d", got)
	}
	if got := r.Uint32(); got != 77 {
		t.Fatalf("Uint32 = %d", got)
	}
	if got := r.String(); got != "hello, 世界" {
		t.Fatalf("String = %q", got)
	}
	if got := r.String(); got != "" {
		t.Fatalf("empty String = %q", got)
	}
	if got := r.Int32s(); len(got) != 3 || got[0] != -1 {
		t.Fatalf("Int32s = %v", got)
	}
	if got := r.Ints(); len(got) != 2 || got[0] != -5 {
		t.Fatalf("Ints = %v", got)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestBadMagic(t *testing.T) {
	r := NewReader(strings.NewReader("WRONG!!\n"))
	r.Magic("RIGHT!!\n")
	if r.Err() == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uint64(1)
	w.Flush()
	r := NewReader(bytes.NewReader(buf.Bytes()[:4]))
	r.Uint64()
	if r.Err() == nil {
		t.Fatal("truncated read accepted")
	}
}

func TestErrorSticky(t *testing.T) {
	r := NewReader(strings.NewReader(""))
	_ = r.Uint64() // fails
	first := r.Err()
	_ = r.Int()
	_ = r.String()
	if r.Err() != first {
		t.Fatal("error not sticky")
	}
}

func TestCorruptLength(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Int(-7) // bogus negative length
	w.Flush()
	r := NewReader(&buf)
	if got := r.String(); got != "" || r.Err() == nil {
		t.Fatalf("negative length accepted: %q, %v", got, r.Err())
	}

	buf.Reset()
	w = NewWriter(&buf)
	w.Int(MaxSliceLen + 1)
	w.Flush()
	r = NewReader(&buf)
	r.Int32s()
	if r.Err() == nil {
		t.Fatal("oversized length accepted")
	}
}
