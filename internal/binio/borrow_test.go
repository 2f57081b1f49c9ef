package binio

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/iotest"
)

// encodeAll writes one value of every shape the persistence formats
// use, returning the wire bytes.
func encodeAll(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Magic("TEST01\n\n")
	w.Uint64(0xdeadbeefcafe)
	w.Int(-42)
	w.Uint32(77)
	w.String("hello")
	w.ByteSlice([]byte{9, 8, 7})
	w.Int32s([]int32{-1, 0, 7})
	w.Ints([]int{-5, 5})
	for _, v := range []uint64{111, 222, 333} { // raw section, count in header
		w.Uint64(v)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeAll drains a reader over encodeAll's output and checks every
// value, so streaming and borrow modes are verified byte-identical.
func decodeAll(t *testing.T, r *Reader) {
	t.Helper()
	r.Magic("TEST01\n\n")
	if got := r.Uint64(); got != 0xdeadbeefcafe {
		t.Fatalf("Uint64 = %x", got)
	}
	if got := r.Int(); got != -42 {
		t.Fatalf("Int = %d", got)
	}
	if got := r.Uint32(); got != 77 {
		t.Fatalf("Uint32 = %d", got)
	}
	if got := r.String(); got != "hello" {
		t.Fatalf("String = %q", got)
	}
	if got := r.ByteSlice(); !bytes.Equal(got, []byte{9, 8, 7}) {
		t.Fatalf("ByteSlice = %v", got)
	}
	if got := r.Int32s(); len(got) != 3 || got[0] != -1 {
		t.Fatalf("Int32s = %v", got)
	}
	if got := r.Ints(); len(got) != 2 || got[0] != -5 {
		t.Fatalf("Ints = %v", got)
	}
	if got := r.Uint64Raw(3, "raw"); len(got) != 3 || got[0] != 111 || got[2] != 333 {
		t.Fatalf("Uint64Raw = %v", got)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestBorrowedDecodesIdentically(t *testing.T) {
	wire := encodeAll(t)

	stream := NewReader(bytes.NewReader(wire))
	if stream.Borrowed() {
		t.Fatal("stream reader claims borrow mode")
	}
	decodeAll(t, stream)

	borrow := NewReader(NewSource(wire))
	if !borrow.Borrowed() {
		t.Fatal("source reader not in borrow mode")
	}
	decodeAll(t, borrow)
}

func TestBorrowAliasesSource(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.ByteSlice([]byte{1, 2, 3, 4})
	w.Uint64(5)
	w.Uint64(6)
	w.Flush()
	wire := buf.Bytes()

	r := NewReader(NewSource(wire))
	bs := r.ByteSlice()
	u64s := r.Uint64Raw(2, "words")
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	// The byte slice must view the wire bytes, not copy them.
	if &bs[0] != &wire[8] {
		t.Fatal("ByteSlice copied in borrow mode")
	}
	if cap(bs) != len(bs) {
		t.Fatalf("borrowed slice capacity %d exceeds length %d", cap(bs), len(bs))
	}
	// ByteSlice consumed 8+4 bytes, so the words start at offset 12 —
	// misaligned for 8-byte words — and must have been copy-decoded
	// rather than aliased.
	if u64s[0] != 5 || u64s[1] != 6 {
		t.Fatalf("Uint64Raw = %v", u64s)
	}

	// Aligned words alias the wire bytes on a little-endian host.
	buf.Reset()
	w = NewWriter(&buf)
	w.Uint64(7)
	w.Uint64(8)
	w.Flush()
	wire = buf.Bytes()
	r = NewReader(NewSource(wire))
	u64s = r.Uint64Raw(2, "words")
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if hostLittleEndian && aliasableAs(wire, 8) {
		wire[0] = 0xff // mutate the wire; an alias must observe it
		if u64s[0]&0xff != 0xff {
			t.Fatal("aligned Uint64Raw did not alias the source")
		}
	}
}

func TestBorrowTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Int32s([]int32{1, 2, 3})
	w.Flush()
	wire := buf.Bytes()

	for cut := 0; cut < len(wire); cut++ {
		r := NewReader(NewSource(wire[:cut]))
		r.Int32s()
		if r.Err() == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}

	r := NewReader(NewSource(wire[:12]))
	r.Uint64Raw(5, "raw")
	if r.Err() == nil {
		t.Fatal("short raw section accepted")
	}
}

func TestUint64RawStreamChunks(t *testing.T) {
	// Cross the allocChunk boundary to exercise the chunked bulk read.
	n := allocChunk/8 + 100
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < n; i++ {
		w.Uint64(uint64(i) * 3)
	}
	w.Flush()

	for _, mode := range []string{"stream", "borrow"} {
		var r *Reader
		if mode == "stream" {
			r = NewReader(bytes.NewReader(buf.Bytes()))
		} else {
			r = NewReader(NewSource(buf.Bytes()))
		}
		got := r.Uint64Raw(n, "raw")
		if r.Err() != nil {
			t.Fatalf("%s: %v", mode, r.Err())
		}
		if len(got) != n || got[0] != 0 || got[n-1] != uint64(n-1)*3 {
			t.Fatalf("%s: bad raw decode (len %d)", mode, len(got))
		}
	}
}

func TestUint64RawRejectsBadCounts(t *testing.T) {
	r := NewReader(NewSource(nil))
	r.Uint64Raw(-1, "raw")
	if r.Err() == nil {
		t.Fatal("negative raw count accepted")
	}
	r = NewReader(NewSource(nil))
	r.Uint64Raw(1<<61, "raw")
	if r.Err() == nil {
		t.Fatal("overflowing raw count accepted")
	}
}

func TestSourcePeekRead(t *testing.T) {
	s := NewSource([]byte{1, 2, 3, 4})
	if b, err := s.Peek(2); err != nil || b[0] != 1 {
		t.Fatalf("Peek = %v, %v", b, err)
	}
	if s.Offset() != 0 {
		t.Fatal("Peek consumed bytes")
	}
	var dst [3]byte
	if n, err := s.Read(dst[:]); err != nil || n != 3 {
		t.Fatalf("Read = %d, %v", n, err)
	}
	if s.Remaining() != 1 {
		t.Fatalf("Remaining = %d", s.Remaining())
	}
	if _, err := s.Peek(2); err == nil {
		t.Fatal("short Peek succeeded")
	}
}

// TestSourceOf: a Source passes through; any other reader is read out
// whole — into a buffer of its own size plus the spare byte when it can
// say that size (a file from wherever it stands, a bytes.Reader), by
// doubling when it cannot — and a stream with an unknown magic comes
// back as that magic alone, the rest unread.
func TestSourceOf(t *testing.T) {
	const magic = "TEST01\n\n"
	known := func(m string) bool { return m == magic }
	body := append([]byte(magic), bytes.Repeat([]byte{0xAB}, 5000)...)

	if src := NewSource(body); mustSource(t, src, known) != src {
		t.Fatal("a Source did not come back as itself")
	}

	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, append([]byte("skip"), body...), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Seek(4, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]io.Reader{
		"file":            f,
		"bytes.Reader":    bytes.NewReader(body),
		"unsized":         io.MultiReader(bytes.NewReader(body[:100]), bytes.NewReader(body[100:])),
		"one byte a read": iotest.OneByteReader(bytes.NewReader(body)),
	} {
		src := mustSource(t, r, known)
		if !bytes.Equal(src.data, body) {
			t.Fatalf("%s: read out %d bytes, want the %d written", name, len(src.data), len(body))
		}
		if sized := name == "file" || name == "bytes.Reader"; sized && cap(src.data) != len(body)+1 {
			t.Fatalf("%s: a %d-byte stream sits in a buffer of %d", name, len(body), cap(src.data))
		}
	}

	rest := bytes.NewReader(append([]byte("BOGUS99\n"), body...))
	if src := mustSource(t, rest, known); string(src.data) != "BOGUS99\n" || rest.Len() != len(body) {
		t.Fatalf("unknown magic: got %q back and left %d of %d bytes unread", src.data, rest.Len(), len(body))
	}
	if src := mustSource(t, bytes.NewReader([]byte("TES")), known); string(src.data) != "TES" {
		t.Fatalf("a stream shorter than a magic came back as %q", src.data)
	}
	if _, err := SourceOf(iotest.ErrReader(io.ErrClosedPipe), len(magic), known); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("a failing reader: %v", err)
	}
	if _, err := SourceOf(io.MultiReader(bytes.NewReader(body), iotest.ErrReader(io.ErrClosedPipe)), len(magic), known); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("a reader failing past its magic: %v", err)
	}
}

func mustSource(t *testing.T, r io.Reader, known func(string) bool) *Source {
	t.Helper()
	src, err := SourceOf(r, 8, known)
	if err != nil {
		t.Fatal(err)
	}
	return src
}
