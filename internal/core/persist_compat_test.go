package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gph/internal/binio"
	"gph/internal/bitvec"
	"gph/internal/engine"
	"gph/internal/invindex"
)

// TestCurrentFixtureBytes pins the on-disk format: the checked-in
// testdata/index-gphix11.bin (120 vectors × 48 dims in four partitions:
// of 17 and 16 bits in the hash layout, so keys of 3 and 2 bytes and
// their pads, and of 7 and 8 bits in the bitmap layout, bitmaps of 8 and
// 32 bytes; MaxTau 16, Seed 7) loads into the heap and borrowed in
// place, answers like a
// linear scan over its own vectors (binding them through the projector's
// gather arm: its partitions' dims are in refinement's order), generates
// candidates that miss none of those answers (Search scans at 120 rows,
// so the index is asked apart: indexCandidates), and is what today's
// writer produces from either, byte for byte.
func TestCurrentFixtureBytes(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "index-gphix11.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if string(want[:8]) != indexMagic {
		t.Fatalf("fixture leads with %q, want %q", want[:8], indexMagic)
	}
	sources := map[string]io.Reader{
		"heap":     bytes.NewReader(want),
		"borrowed": binio.NewSource(want),
	}
	for name, src := range sources {
		ix, err := Load(src)
		if err != nil {
			t.Fatalf("%s: fixture rejected: %v", name, err)
		}
		if ix.Dims() != 48 || ix.Len() != 120 {
			t.Fatalf("%s: fixture decoded as %d dims × %d vectors", name, ix.Dims(), ix.Len())
		}
		var layouts []bool
		for _, inv := range ix.inv {
			layouts = append(layouts, inv.Bitmap())
		}
		if !slices.Equal(layouts, []bool{false, false, true, true}) {
			t.Fatalf("%s: fixture partitions in the bitmap layout: %v, want the last two", name, layouts)
		}
		// Written before builds sorted each partition's dims, the fixture's
		// do not ascend: it binds its queries through the gather.
		if arm := ix.proj.Arm(); arm != "gather" || slices.IsSorted(ix.parts.Parts[0]) {
			t.Fatalf("%s: fixture partition 0 %v projects on the %s arm, want unsorted dims and the gather", name, ix.parts.Parts[0], arm)
		}
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%s: re-saves to %d bytes that differ from the %d-byte fixture", name, buf.Len(), len(want))
		}
		for _, tau := range []int{0, 2, 5, 9, 14} {
			for _, qi := range []int32{0, 7, 63, 119} {
				q := ix.Vector(qi)
				got, err := ix.Search(q, tau)
				if err != nil {
					t.Fatal(err)
				}
				var oracle []int32
				for id := int32(0); id < int32(ix.Len()); id++ {
					if q.HammingWithin(ix.Vector(id), tau) {
						oracle = append(oracle, id)
					}
				}
				if !equalIDs(got, oracle) {
					t.Fatalf("%s tau=%d query %d: fixture answers %v, linear scan %v", name, tau, qi, got, oracle)
				}
				cands := indexCandidates(t, ix, q, tau)
				for _, id := range oracle {
					if _, ok := slices.BinarySearch(cands, id); !ok {
						t.Fatalf("%s tau=%d query %d: the index generates %v, which misses %d of %v", name, tau, qi, cands, id, oracle)
					}
				}
			}
		}
	}
}

// indexCandidates is what the index generates for a range query when it
// is asked whatever the scan guard makes of it — the eager DP's
// thresholds handed to generate — sorted: a fixture is too small for the
// guard to let any plan through. Verification is not the index's, and
// not repeated here.
func indexCandidates(t *testing.T, ix *Index, q bitvec.Vector, tau int) []int32 {
	t.Helper()
	want, _ := eagerAllocate(ix, q, tau)
	if want.Fallback {
		t.Fatalf("tau=%d: no threshold vector fits the enumeration budget", tau)
	}
	s := ix.getScratch()
	ix.bindQuery(q, s)
	if err := ix.generate(want.Thresholds, want.EffectiveBudget, s); err != nil {
		t.Fatal(err)
	}
	out := slices.Clone(s.cand.IDs)
	ix.putScratch(s)
	slices.Sort(out)
	return out
}

// keyArenaOffset finds partition p's key arena in ix's saved bytes: the
// bytes the partition's payload starts with, which occur once in the file.
func keyArenaOffset(t *testing.T, ix *Index, raw []byte, p int) int {
	t.Helper()
	var buf bytes.Buffer
	bw := binio.NewWriter(&buf)
	ix.inv[p].WritePayloadTo(bw)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	keyBytes, _, _, _ := ix.inv[p].ArenaBreakdown()
	arena := buf.Bytes()[:keyBytes]
	off := bytes.Index(raw, arena)
	if off < 0 || bytes.Contains(raw[off+1:], arena) {
		t.Fatalf("partition %d's key arena does not occur exactly once in the file", p)
	}
	return off
}

// TestLoadRejectsHostileKeysAndCounts: the keys and posting counts are
// the only copy of what CN estimation reads, so they are checked. A key with a bit
// beyond its partition's width — which leaves key order, lengths and
// posting framing intact — a nonzero byte in the pad after a key arena,
// and posting counts that do not sum to the collection size are rejected
// by Load, from a stream or from bytes in place alike, and by the first
// query on a deferred load, estimates made before that staying in
// bounds; a posting total that is not the collection size, and a key
// arena whose recorded length leaves out the pad, are rejected at open
// either way. Bitmap partitions are held to their widths as keys are: a
// bitmap whose popcount is not its entry count, one as long as a wider
// partition's, and one with a key in its pad fail a heap open and a
// mapped open's first search, and every search after it, with the same
// error.
func TestLoadRejectsHostileKeysAndCounts(t *testing.T) {
	data := testData(t, 100, 14)
	ix := buildSmall(t, data, Options{NumPartitions: 3, Seed: 1})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// A key's bytes hold its partition's bits and nothing past the next
	// byte boundary: the first bit past the width lies in the key's last
	// byte only where the width is not a whole number of bytes, and a key
	// shorter than a word is followed by a pad.
	p := slices.IndexFunc(ix.parts.Parts, func(dims []int) bool { return len(dims)%8 != 0 && len(dims) < 56 })
	if p < 0 {
		t.Fatal("no partition is narrower than 56 bits and a fraction of a byte wide; the test needs one")
	}
	w, inv := len(ix.parts.Parts[p]), ix.inv[p]
	keyLen, keys := invindex.KeyLen(w), inv.NumKeys()
	keysEnd := keyArenaOffset(t, ix, raw, p) + keyLen*keys

	// Bit w set in one row's key: frozen by the builder, so the keys stay
	// in hash order — an order error would be reported before the key's
	// width — and saved as the partition.
	rows := invindex.ProjectRows(data, ix.parts.Parts[p])
	rows[len(rows)-1] |= 1 << w
	ix.inv[p] = invindex.FreezeRows(len(data), 1, w, rows)
	strayBit := savedBytes(t, ix)
	ix.inv[p] = inv
	padByte := bytes.Clone(raw)
	padByte[keysEnd+8-keyLen-1] = 1
	wrongCount := bytes.Clone(raw)
	wrongCount[len(raw)-4] ^= 1 // the file ends with the last partition's counts
	for _, c := range []struct{ name, hostile, want string }{
		{"key bit beyond width", string(strayBit), "bits set beyond dimension"},
		{"pad byte set", string(padByte), "pad byte"},
		{"counts off by one", string(wrongCount), ""},
	} {
		name, hostile := c.name, []byte(c.hostile)
		if _, err := Load(bytes.NewReader(hostile)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: from a stream: %v", name, err)
		}
		if _, err := Load(binio.NewSource(hostile)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: from bytes in place: %v", name, err)
		}
		borrowed, err := LoadDeferred(binio.NewSource(hostile))
		if err != nil {
			t.Fatalf("%s: a deferred load read the arenas: %v", name, err)
		}
		_ = borrowed.EstimateTable(data[3], 70) // the histogram kernel, before any validation
		if _, err := borrowed.Search(data[3], 4); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: the first query on a deferred load: %v", name, err)
		}
	}

	// Partition 0's posting total: the second field of its frozen header,
	// after magic, dims, count, partition count, the dimension lists and
	// five option fields.
	off := 4 * 8
	for _, part := range ix.parts.Parts {
		off += 8 + 8*len(part)
	}
	off += 5*8 + 8
	wrongTotal := bytes.Clone(raw)
	wrongTotal[off] ^= 1
	// Partition p's key arena length: the sixth field of its header, off
	// by the pad it must count.
	arenaLen := bytes.Clone(raw)
	lenAt := off + 64*p + 32
	binary.LittleEndian.PutUint64(arenaLen[lenAt:], binary.LittleEndian.Uint64(arenaLen[lenAt:])-uint64(8-keyLen))
	for _, c := range []struct{ name, hostile, want string }{
		{"posting total off by one", string(wrongTotal), "postings for"},
		{"key arena length without its pad", string(arenaLen), "and the pad need"},
	} {
		for mode, src := range map[string]io.Reader{"stream": strings.NewReader(c.hostile), "borrowed": binio.NewSource([]byte(c.hostile))} {
			if _, err := LoadDeferred(src); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s, %s: at open: %v", c.name, mode, err)
			}
		}
	}

	// Bitmap partitions, of 5 to 10 bits: a bitmap holding a key more than
	// its partition's entries, one frozen at a width a bit wider than its
	// partition's (the same key bytes, twice the bits), and one whose key
	// with bit w set lands in the pad past a 5-bit bitmap's four bytes.
	ix = buildSmall(t, data, Options{NumPartitions: 8, Seed: 1})
	raw = savedBytes(t, ix)
	widths := ix.parts.Widths()
	widest, narrow, odd := 0, -1, -1
	for i, w := range widths {
		if !ix.inv[i].Bitmap() {
			t.Fatalf("partition %d of %d bits is not a bitmap; the test needs every one to be", i, w)
		}
		if w > widths[widest] {
			widest = i
		}
		if w < 6 {
			narrow = i
		} else if w%8 != 0 && w > 6 {
			odd = i
		}
	}
	if narrow < 0 || odd < 0 {
		t.Fatalf("partition widths %v: the test needs one below 6 bits and one past 6 that is not a whole number of bytes", widths)
	}
	extraKey := bytes.Clone(raw)
	at := keyArenaOffset(t, ix, raw, widest)
	for extraKey[at] == 0xff {
		at++
	}
	extraKey[at] |= ^extraKey[at] & -^extraKey[at] // its lowest clear bit
	refreeze := func(p, width int, rows []uint64) []byte {
		inv := ix.inv[p]
		ix.inv[p] = invindex.FreezeRows(len(data), 1, width, rows)
		defer func() { ix.inv[p] = inv }()
		return savedBytes(t, ix)
	}
	wider := refreeze(odd, widths[odd]+1, invindex.ProjectRows(data, ix.parts.Parts[odd]))
	rows = invindex.ProjectRows(data, ix.parts.Parts[narrow])
	rows[len(rows)-1] |= 1 << widths[narrow]
	padKey := refreeze(narrow, widths[narrow], rows)
	for _, c := range []struct {
		name, want string
		hostile    []byte
	}{
		{"a bitmap key more than its entries", "the section", extraKey},
		{"a bitmap a bit wider than its partition", fmt.Sprintf("a %d-bit partition's takes", widths[odd]), wider},
		{"a bitmap pad byte set", "bitmap pad byte", padKey},
	} {
		if _, err := Load(bytes.NewReader(c.hostile)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: a heap open: %v, want %q", c.name, err, c.want)
		}
		path := filepath.Join(t.TempDir(), "hostile.gph")
		if err := os.WriteFile(path, c.hostile, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := engine.Open(path, engine.OpenHeap); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: engine.Open on the heap: %v, want %q", c.name, err, c.want)
		}
		mapped, err := engine.Open(path, engine.OpenMMap)
		if err != nil {
			t.Fatalf("%s: a mapped open read the payload: %v", c.name, err)
		}
		_, first := mapped.Search(data[3], 4)
		_, second := mapped.Search(data[5], 2)
		mapped.Close()
		if first == nil || !strings.Contains(first.Error(), c.want) || fmt.Sprint(second) != fmt.Sprint(first) {
			t.Fatalf("%s: a mapped open's first search says %v and its second %v, want %q twice", c.name, first, second, c.want)
		}
	}
}

// TestLoadRejectsHostileEntryWidths: a partition's refs and counts are
// as wide as their largest needs, so one index has one file. Refs a byte
// wider, counts of four bytes that all fit one and a nonzero byte in the
// pad after the refs are rejected by Load, from a stream and in place, and
// by the first search of a mapped open; a ref or count width out of range
// by all three at open. Each says what is wrong with the file. The
// hostile widths are the last partition's, whose refs and counts end the
// file.
func TestLoadRejectsHostileEntryWidths(t *testing.T) {
	data := testData(t, 100, 14)
	ix := buildSmall(t, data, Options{NumPartitions: 3, Seed: 1})
	raw := savedBytes(t, ix)
	last := len(ix.parts.Parts) - 1
	// The last partition's frozen header: after magic, dims, count,
	// partition count, the dimension lists, five option fields and the
	// headers before it, eight fields each; its ref and count widths are
	// its fourth and fifth.
	hdr := 4 * 8
	for _, part := range ix.parts.Parts {
		hdr += 8 + 8*len(part)
	}
	hdr += 5*8 + 8*8*last
	field := func(b []byte, i int) int { return int(binary.LittleEndian.Uint64(b[hdr+8*i:])) }
	n, refLen := field(raw, 0), field(raw, 3)
	if field(raw, 4) != 1 || refLen > 2 {
		t.Fatalf("the last partition's refs are %d bytes and its counts %d; the test needs at most 2 and 1", refLen, field(raw, 4))
	}
	refsAt := len(raw) - n - (refLen*n + 4 - refLen)
	refs, counts := raw[refsAt:len(raw)-n], raw[len(raw)-n:]
	// rewrite is raw with the last partition's widths set to rl and cl and
	// its refs and counts written at them.
	rewrite := func(rl, cl int) []byte {
		b := bytes.Clone(raw[:refsAt])
		binary.LittleEndian.PutUint64(b[hdr+24:], uint64(rl))
		binary.LittleEndian.PutUint64(b[hdr+32:], uint64(cl))
		for e := range n {
			var ref [4]byte
			copy(ref[:], refs[refLen*e:refLen*(e+1)])
			b = append(b, ref[:rl]...)
		}
		b = append(b, make([]byte, 4-rl)...)
		if cl == 1 {
			return append(b, counts...)
		}
		b = append(b, make([]byte, -len(b)&7)...)
		for _, c := range counts {
			b = binary.LittleEndian.AppendUint32(b, uint32(c))
		}
		return b
	}
	header := func(i, v int) []byte {
		b := bytes.Clone(raw)
		binary.LittleEndian.PutUint64(b[hdr+8*i:], uint64(v))
		return b
	}
	padSet := bytes.Clone(raw)
	padSet[len(raw)-n-1] = 1
	for _, c := range []struct {
		name, want string
		hostile    []byte
		atOpen     bool
	}{
		{"refs a byte wider", fmt.Sprintf("refs are %d bytes wide", refLen+1), rewrite(refLen+1, 1), false},
		{"4-byte counts that fit a byte", "counts are 4 bytes wide", rewrite(refLen, 4), false},
		{"a nonzero ref pad byte", fmt.Sprintf("ref pad byte %d is 0x1, not 0", 3-refLen), padSet, false},
		{"a ref length of 5", "implausible ref length 5", header(3, 5), true},
		{"a count length of 2", "implausible count length 2", header(4, 2), true},
	} {
		if _, err := Load(bytes.NewReader(c.hostile)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: from a stream: %v, want %q", c.name, err, c.want)
		}
		if _, err := Load(binio.NewSource(c.hostile)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: in place: %v, want %q", c.name, err, c.want)
		}
		path := filepath.Join(t.TempDir(), "hostile.gph")
		if err := os.WriteFile(path, c.hostile, 0o644); err != nil {
			t.Fatal(err)
		}
		mapped, err := engine.Open(path, engine.OpenMMap)
		if err == nil {
			if c.atOpen {
				t.Errorf("%s: a mapped open accepted the file", c.name)
			}
			_, err = mapped.Search(data[3], 4)
			mapped.Close()
		} else if !c.atOpen {
			t.Errorf("%s: a mapped open read the payload: %v", c.name, err)
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: a mapped open and its first search: %v, want %q", c.name, err, c.want)
		}
	}
}

// TestExactEstimatorAddsNoPerKeyState: the index is its frozen arenas —
// there is one copy of each partition's keys, and CN estimation adds
// nothing to it.
func TestExactEstimatorAddsNoPerKeyState(t *testing.T) {
	ix := buildSmall(t, testData(t, 400, 3), Options{NumPartitions: 4, Seed: 2})
	var arenas int64
	for _, inv := range ix.inv {
		arenas += inv.SizeBytes()
	}
	if ix.SizeBytes() != arenas {
		t.Fatalf("SizeBytes %d, the frozen arenas' %d over %d partitions", ix.SizeBytes(), arenas, len(ix.inv))
	}
	// The breakdown fig6 reports is all of it but a fixed struct a partition.
	k, p, o, s := arenaBreakdown(ix)
	if over, m := arenas-(k+p+o+s), int64(len(ix.inv)); over <= 0 || over%m != 0 || over/m > 256 {
		t.Fatalf("the components sum to %d of %d bytes over %d partitions", k+p+o+s, arenas, m)
	}
}
