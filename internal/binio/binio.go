// Package binio implements the little-endian binary codec shared by
// the repository's persistence formats (datasets and indexes). Writers
// and readers are error-sticky: after the first failure every
// subsequent call is a no-op and Err returns the original error, so
// encode/decode sequences read linearly without per-call checks.
//
// A Reader has two backends behind one API. Wrapping an ordinary
// io.Reader gives the streaming mode: bytes are copied out of a
// buffered stream into owned slices. Wrapping a *Source — an in-memory
// byte region, typically a read-only file mapping from mmapio — gives
// the borrow mode: ByteSlice and the bulk word reads return subslices
// of (or aliases into) the source instead of copies, so opening an
// index over a mapping decodes headers but never materializes the
// arenas. Borrowed slices are read-only (writing to a mapped page
// faults) and share the source's lifetime; Borrowed reports which mode
// a Reader is in so loaders can copy when they need ownership. The index
// loaders decode in borrow mode only — a reader that is not a Source is
// read out into one first (SourceOf); the streaming mode serves the
// small sequential formats (datasets, the baselines' own files read
// from a plain stream).
package binio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"io/fs"
	"math"
	"slices"
	"unsafe"
)

// MaxSliceLen bounds decoded slice lengths; a corrupt length field
// must fail cleanly instead of attempting a multi-gigabyte allocation.
const MaxSliceLen = 1 << 31

// allocChunk caps how much a reader allocates ahead of the bytes it
// has actually consumed. A length prefix is untrusted input — a
// corrupt file can claim MaxSliceLen elements in 8 bytes — so slice
// buffers grow chunk by chunk as data arrives and a lying prefix
// fails at EOF after at most one chunk, instead of reserving
// gigabytes up front.
const allocChunk = 1 << 20

// hostLittleEndian reports whether this machine's native byte order
// matches the on-disk (little-endian) encoding, the precondition for
// aliasing mapped bytes as word slices instead of decoding them.
var hostLittleEndian = func() bool {
	var buf [2]byte
	binary.LittleEndian.PutUint16(buf[:], 0x0102)
	return binary.NativeEndian.Uint16(buf[:]) == 0x0102
}()

// Writer serializes fixed-width little-endian values.
type Writer struct {
	w   *bufio.Writer
	n   int64 // bytes written, for Align8
	err error
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Err returns the first error encountered.
func (w *Writer) Err() error { return w.err }

// Flush flushes buffered output and returns the first error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.w.Flush()
	return w.err
}

// Magic writes a fixed-length format tag.
func (w *Writer) Magic(tag string) { w.Bytes([]byte(tag)) }

// Bytes writes raw bytes without a length prefix.
func (w *Writer) Bytes(b []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(b)
	w.n += int64(len(b))
}

// Uint64 writes a fixed 8-byte value.
func (w *Writer) Uint64(v uint64) {
	if w.err != nil {
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	_, w.err = w.w.Write(buf[:])
	w.n += 8
}

// Int writes an int as 8 bytes.
func (w *Writer) Int(v int) { w.Uint64(uint64(int64(v))) }

// Int64 writes an int64 as 8 bytes.
func (w *Writer) Int64(v int64) { w.Uint64(uint64(v)) }

// Uint32 writes a fixed 4-byte value.
func (w *Writer) Uint32(v uint32) {
	if w.err != nil {
		return
	}
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	_, w.err = w.w.Write(buf[:])
	w.n += 4
}

// zeroPad backs Align8's padding writes.
var zeroPad [7]byte

// Align8 pads the stream with zero bytes so the next write starts on
// an 8-byte boundary, counted from the writer's first byte. Formats
// place it before bulk word sections: when the file start itself is
// 8-aligned in memory (a page-aligned mapping, or a nested blob whose
// container aligned it), a borrow-mode reader can then alias those
// sections in place instead of copy-decoding them — see Reader.Align8.
func (w *Writer) Align8() {
	if pad := int(-w.n & 7); pad > 0 {
		w.Bytes(zeroPad[:pad])
	}
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.Int(len(s))
	w.Bytes([]byte(s))
}

// ByteSlice writes a length-prefixed byte slice; the container
// formats use it to embed nested blobs (e.g. a per-shard index inside
// a sharded container) without the inner codec over-reading the
// shared stream.
func (w *Writer) ByteSlice(b []byte) {
	w.Int(len(b))
	w.Bytes(b)
}

// Int32s writes a length-prefixed []int32.
func (w *Writer) Int32s(vs []int32) {
	w.Int(len(vs))
	for _, v := range vs {
		w.Uint32(uint32(v))
	}
}

// Ints writes a length-prefixed []int.
func (w *Writer) Ints(vs []int) {
	w.Int(len(vs))
	for _, v := range vs {
		w.Int(v)
	}
}

// Uint32sRaw writes a []uint32 payload with no length prefix — for
// sections whose element count the caller's header already records.
// Headerless framing is what keeps a borrow-mode open from touching a
// section's pages at all: the reader derives the count, aliases the
// span in place, and never reads an interleaved prefix that would
// fault in the page it sits on.
func (w *Writer) Uint32sRaw(vs []uint32) {
	for _, v := range vs {
		w.Uint32(v)
	}
}

// Uint16sRaw is Uint32sRaw for a []uint16 payload.
func (w *Writer) Uint16sRaw(vs []uint16) {
	if w.err != nil {
		return
	}
	var buf [2]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint16(buf[:], v)
		if _, w.err = w.w.Write(buf[:]); w.err != nil {
			return
		}
	}
	w.n += 2 * int64(len(vs))
}

// Source is an in-memory byte region a Reader can borrow from: pass it
// to NewReader and slice-valued reads return views into the region
// instead of copies. The region is typically a read-only file mapping
// (mmapio.Mapping.Data), so borrowed slices must never be written and
// must not outlive the mapping's last Release. Source also implements
// io.Reader, so codecs that don't know about borrow mode degrade to
// copying instead of failing.
type Source struct {
	data []byte
	off  int
}

// NewSource wraps data, which the returned Source borrows, not copies.
func NewSource(data []byte) *Source { return &Source{data: data} }

// SourceOf returns r as a Source for a loader that decodes in place.
// A *Source comes back as it is. Any other reader is read to its end
// into one buffer the loaded structures then alias — of the size r says
// it has left where r can say (a regular file, a bytes.Reader or
// Buffer), so a file costs its own bytes once, not an append's
// doublings and their slack. The leading magicLen bytes are read and
// shown to known first: a stream it does not know comes back as those
// bytes alone, for the loader's own magic check to reject in its own
// words, and the rest of it is never read. (A Reader over a plain stream
// buffers ahead of what it decodes, so no caller could rely on where a
// loader left r.)
func SourceOf(r io.Reader, magicLen int, known func(magic string) bool) (*Source, error) {
	if src, ok := r.(*Source); ok {
		return src, nil
	}
	head := make([]byte, magicLen)
	n, err := io.ReadFull(r, head)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("binio: reading stream: %w", err)
	}
	if head = head[:n]; !known(string(head)) {
		return NewSource(head), nil
	}
	// os.ReadFile's loop: one spare byte, so a stream of the size it
	// announced ends on a read that finds EOF and not on a regrowth.
	data := append(make([]byte, 0, n+remaining(r)+1), head...)
	for {
		n, err := r.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err == io.EOF {
			return NewSource(data), nil
		}
		if err != nil {
			return nil, fmt.Errorf("binio: reading stream: %w", err)
		}
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
	}
}

// remaining is how many bytes r says it has left, 511 (a first buffer of
// 512) when it cannot say.
func remaining(r io.Reader) int {
	switch r := r.(type) {
	case interface{ Len() int }: // bytes.Reader, bytes.Buffer, strings.Reader
		return r.Len()
	case interface {
		io.Seeker
		Stat() (fs.FileInfo, error)
	}: // *os.File
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			if at, err := r.Seek(0, io.SeekCurrent); err == nil && at <= fi.Size() {
				return int(fi.Size() - at)
			}
		}
	}
	return 511
}

// Peek returns the next n bytes without consuming them; short regions
// return what remains plus io.ErrUnexpectedEOF.
func (s *Source) Peek(n int) ([]byte, error) {
	if len(s.data)-s.off < n {
		return s.data[s.off:], io.ErrUnexpectedEOF
	}
	return s.data[s.off : s.off+n], nil
}

// Read implements io.Reader over the unconsumed region.
func (s *Source) Read(p []byte) (int, error) {
	if s.off >= len(s.data) {
		return 0, io.EOF
	}
	n := copy(p, s.data[s.off:])
	s.off += n
	return n, nil
}

// Offset returns how many bytes have been consumed.
func (s *Source) Offset() int { return s.off }

// Remaining returns how many bytes are left to consume.
func (s *Source) Remaining() int { return len(s.data) - s.off }

// Reader deserializes values written by Writer, either from a buffered
// stream (copying) or from a Source (borrowing); see the package
// comment for the contract difference.
type Reader struct {
	r   *bufio.Reader // streaming mode; nil when src is set
	src *Source       // borrow mode; nil when r is set
	n   int64         // streaming-mode bytes consumed, for Align8
	err error
}

// NewReader wraps r. If r is a *Source the Reader operates in borrow
// mode: slice-valued reads return views into the source.
func NewReader(r io.Reader) *Reader {
	if src, ok := r.(*Source); ok {
		return &Reader{src: src}
	}
	return &Reader{r: bufio.NewReader(r)}
}

// Borrowed reports whether slice-valued reads borrow from a Source
// (true) or return owned copies (false).
func (r *Reader) Borrowed() bool { return r.src != nil }

// Err returns the first error encountered.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// take consumes exactly n bytes from the borrow source and returns
// them as a capacity-capped subslice, so an append by the caller can
// never scribble past the borrowed region into the mapping.
func (r *Reader) take(n int, what string) []byte {
	if rem := r.src.Remaining(); rem < n {
		r.fail(fmt.Errorf("binio: reading %s: need %d bytes, have %d: %w", what, n, rem, io.ErrUnexpectedEOF))
		return nil
	}
	b := r.src.data[r.src.off : r.src.off+n : r.src.off+n]
	r.src.off += n
	return b
}

// Magic consumes and verifies a format tag.
func (r *Reader) Magic(tag string) {
	if r.err != nil {
		return
	}
	var buf []byte
	if r.src != nil {
		if buf = r.take(len(tag), "magic"); r.err != nil {
			return
		}
	} else {
		buf = make([]byte, len(tag))
		if _, err := io.ReadFull(r.r, buf); err != nil {
			r.fail(fmt.Errorf("binio: reading magic: %w", err))
			return
		}
		r.n += int64(len(buf))
	}
	if string(buf) != tag {
		r.fail(fmt.Errorf("binio: bad magic %q, want %q", buf, tag))
	}
}

// Uint64 reads a fixed 8-byte value.
func (r *Reader) Uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.src != nil {
		b := r.take(8, "uint64")
		if r.err != nil {
			return 0
		}
		return binary.LittleEndian.Uint64(b)
	}
	var buf [8]byte
	if _, err := io.ReadFull(r.r, buf[:]); err != nil {
		r.fail(fmt.Errorf("binio: reading uint64: %w", err))
		return 0
	}
	r.n += 8
	return binary.LittleEndian.Uint64(buf[:])
}

// Int reads an int written by Writer.Int.
func (r *Reader) Int() int { return int(int64(r.Uint64())) }

// Int64 reads an int64.
func (r *Reader) Int64() int64 { return int64(r.Uint64()) }

// Uint32 reads a fixed 4-byte value.
func (r *Reader) Uint32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.src != nil {
		b := r.take(4, "uint32")
		if r.err != nil {
			return 0
		}
		return binary.LittleEndian.Uint32(b)
	}
	var buf [4]byte
	if _, err := io.ReadFull(r.r, buf[:]); err != nil {
		r.fail(fmt.Errorf("binio: reading uint32: %w", err))
		return 0
	}
	r.n += 4
	return binary.LittleEndian.Uint32(buf[:])
}

// sliceLen reads and validates a length prefix.
func (r *Reader) sliceLen(what string) int {
	n := r.Int()
	if r.err != nil {
		return 0
	}
	if n < 0 || n > MaxSliceLen {
		r.fail(fmt.Errorf("binio: invalid %s length %d", what, n))
		return 0
	}
	return n
}

// readBytes reads exactly n bytes. Borrow mode returns a view into the
// source; streaming mode copies, growing the buffer as data arrives
// (see allocChunk).
func (r *Reader) readBytes(n int, what string) []byte {
	if r.src != nil {
		return r.take(n, what)
	}
	buf := make([]byte, 0, min(n, allocChunk))
	for len(buf) < n {
		m := min(n-len(buf), allocChunk)
		buf = slices.Grow(buf, m)[:len(buf)+m]
		if _, err := io.ReadFull(r.r, buf[len(buf)-m:]); err != nil {
			r.fail(fmt.Errorf("binio: reading %s body: %w", what, err))
			return nil
		}
		r.n += int64(m)
	}
	return buf
}

// Align8 consumes the zero padding Writer.Align8 wrote: the bytes
// that bring the stream offset, counted from the reader's first byte,
// to an 8-byte boundary. A borrow-mode reader over an 8-aligned
// source (a page-aligned mapping, or a blob its container aligned)
// therefore finds the following bulk section element-aligned and can
// alias it in place. Non-zero padding is corruption.
func (r *Reader) Align8() {
	if r.err != nil {
		return
	}
	off := r.n
	if r.src != nil {
		off = int64(r.src.off)
	}
	pad := int(-off & 7)
	if pad == 0 {
		return
	}
	if r.src != nil {
		// Borrow mode skips the padding without reading it: checking
		// the bytes would fault in the page at every section boundary,
		// and padding is dead bytes — every payload length is explicit,
		// so no accessor can be steered by its content. Verifying zeros
		// is a streaming-mode courtesy, where the bytes are in hand
		// anyway. take still bounds-checks, so truncation fails here.
		r.take(pad, "alignment padding")
		return
	}
	for _, c := range r.readBytes(pad, "alignment padding") {
		if c != 0 {
			r.fail(fmt.Errorf("binio: non-zero alignment padding"))
			return
		}
	}
}

// String reads a length-prefixed string. Strings are always owned —
// the string conversion copies — so they are safe past the source's
// lifetime in either mode.
func (r *Reader) String() string {
	n := r.sliceLen("string")
	if r.err != nil || n == 0 {
		return ""
	}
	return string(r.readBytes(n, "string"))
}

// ByteSlice reads a length-prefixed byte slice written by
// Writer.ByteSlice. Borrow mode returns a view into the source.
func (r *Reader) ByteSlice() []byte {
	n := r.sliceLen("byte slice")
	if r.err != nil {
		return nil
	}
	return r.readBytes(n, "byte slice")
}

// aliasableAs reports whether b can be reinterpreted in place as a
// word slice with the given element alignment: the host must be
// little-endian (matching the wire format) and the first byte must sit
// on an element boundary. Mapped regions start page-aligned, but a
// preceding odd-length arena can leave any later section misaligned,
// so every alias site needs this check with a copy-decode fallback.
func aliasableAs(b []byte, align uintptr) bool {
	return hostLittleEndian && (len(b) == 0 || uintptr(unsafe.Pointer(&b[0]))%align == 0)
}

// Int32s reads a length-prefixed []int32. Borrow mode aliases the
// source bytes in place when host endianness and alignment allow,
// falling back to an owned copy.
func (r *Reader) Int32s() []int32 {
	n := r.sliceLen("int32 slice")
	if r.err != nil {
		return nil
	}
	if r.src != nil {
		b := r.take(4*n, "int32 slice")
		if r.err != nil {
			return nil
		}
		if n == 0 {
			return nil
		}
		if aliasableAs(b, 4) {
			return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
		}
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
		return out
	}
	out := make([]int32, 0, min(n, allocChunk/4))
	for i := 0; i < n; i++ {
		out = append(out, int32(r.Uint32()))
		if r.err != nil {
			return nil
		}
	}
	return out
}

// Ints reads a length-prefixed []int. Always an owned copy: []int is
// the codec's small-metadata type (partition layouts, option fields),
// never a bulk arena, so aliasing buys nothing and would tie trivial
// slices to the mapping's lifetime.
func (r *Reader) Ints() []int {
	n := r.sliceLen("int slice")
	if r.err != nil {
		return nil
	}
	out := make([]int, 0, min(n, allocChunk/8))
	for i := 0; i < n; i++ {
		out = append(out, r.Int())
		if r.err != nil {
			return nil
		}
	}
	return out
}

// Uint64Raw reads n raw (unprefixed) uint64 words — the layout the
// vector arenas use, where the count is part of the
// header rather than the section. Unlike the prefixed reads it is not
// capped at MaxSliceLen: the caller has already validated n against
// its own header bounds, and a 100M-vector arena legitimately exceeds
// 2 GiB. Borrow mode aliases when possible; streaming mode bulk-reads
// in chunks and decodes, which replaces the per-word loop that used to
// dominate heap open time.
func (r *Reader) Uint64Raw(n int, what string) []uint64 {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > math.MaxInt/8 {
		r.fail(fmt.Errorf("binio: invalid %s word count %d", what, n))
		return nil
	}
	if r.src != nil {
		return r.uint64Body(n, what)
	}
	out := make([]uint64, 0, min(n, allocChunk/8))
	chunk := make([]byte, min(8*n, allocChunk))
	for len(out) < n {
		m := min(n-len(out), allocChunk/8)
		buf := chunk[:8*m]
		if _, err := io.ReadFull(r.r, buf); err != nil {
			r.fail(fmt.Errorf("binio: reading %s body: %w", what, err))
			return nil
		}
		r.n += int64(len(buf))
		out = slices.Grow(out, m)
		for i := 0; i < m; i++ {
			out = append(out, binary.LittleEndian.Uint64(buf[8*i:]))
		}
	}
	return out
}

// BytesRaw reads n raw (unprefixed) bytes — sections whose byte length
// the caller's header records. Like Uint64Raw it is not capped at
// MaxSliceLen; the caller has already bounded n. Borrow mode returns a
// view without reading it, so none of the span's pages fault in.
func (r *Reader) BytesRaw(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 {
		r.fail(fmt.Errorf("binio: invalid %s byte count %d", what, n))
		return nil
	}
	return r.readBytes(n, what)
}

// Uint32sRaw reads n raw (unprefixed) uint32 values written by
// Writer.Uint32sRaw. Borrow mode aliases when possible; streaming mode
// bulk-reads in chunks and decodes.
func (r *Reader) Uint32sRaw(n int, what string) []uint32 {
	return rawInts(r, n, what, binary.LittleEndian.Uint32)
}

// Uint16sRaw reads n raw (unprefixed) uint16 values written by
// Writer.Uint16sRaw, as Uint32sRaw reads its values.
func (r *Reader) Uint16sRaw(n int, what string) []uint16 {
	return rawInts(r, n, what, binary.LittleEndian.Uint16)
}

// rawInts is Uint32sRaw and Uint16sRaw: n little-endian values of T,
// each decoded by get from its bytes where it cannot be aliased.
func rawInts[T uint16 | uint32](r *Reader, n int, what string, get func([]byte) T) []T {
	if r.err != nil {
		return nil
	}
	size := int(unsafe.Sizeof(T(0)))
	if n < 0 || n > math.MaxInt/size {
		r.fail(fmt.Errorf("binio: invalid %s element count %d", what, n))
		return nil
	}
	if r.src != nil {
		b := r.take(size*n, what)
		if r.err != nil || n == 0 {
			return nil
		}
		if aliasableAs(b, uintptr(size)) {
			return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
		}
		out := make([]T, n)
		for i := range out {
			out[i] = get(b[size*i:])
		}
		return out
	}
	out := make([]T, 0, min(n, allocChunk/size))
	chunk := make([]byte, min(size*n, allocChunk))
	for len(out) < n {
		m := min(n-len(out), allocChunk/size)
		buf := chunk[:size*m]
		if _, err := io.ReadFull(r.r, buf); err != nil {
			r.fail(fmt.Errorf("binio: reading %s body: %w", what, err))
			return nil
		}
		r.n += int64(len(buf))
		out = slices.Grow(out, m)
		for i := 0; i < m; i++ {
			out = append(out, get(buf[size*i:]))
		}
	}
	return out
}

// uint64Body consumes 8*n source bytes and returns them as []uint64,
// aliased in place when alignment and endianness allow.
func (r *Reader) uint64Body(n int, what string) []uint64 {
	b := r.take(8*n, what)
	if r.err != nil || n == 0 {
		return nil
	}
	if aliasableAs(b, 8) {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out
}
