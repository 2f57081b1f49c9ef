package engine_test

import (
	"bytes"
	"encoding/binary"
	"math/bits"
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
		if name == "gph" {
			for i, hostile := range hostileLists(f, saved(f, e)) {
				if _, err := engine.LoadAny(bytes.NewReader(hostile)); err == nil {
					f.Fatalf("hostile list %d: the file is accepted", i)
				}
				f.Add(hostile)
			}
		}
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

// gphSection is where one partition's frozen section lies in a saved GPH
// file: its posting arena, and its refs, refLen bytes an entry.
type gphSection struct {
	post, postLen, refs, refLen, keys int
}

// gphSections finds every partition's section in the GPH file raw by its
// head: magic, dims, count, the partitions' dimension lists, five option
// fields, then each section's eight header fields — key count, postings,
// width, key length, ref length, key arena length, posting arena length,
// layout — and, after the 8-aligned vector arena, each section's key
// arena, posting arena, refs and their pad, and, 8-aligned, its
// directory or rank array.
func gphSections(raw []byte) []gphSection {
	at := 8
	word := func() int { at += 8; return int(binary.LittleEndian.Uint64(raw[at-8:])) }
	dims, count, parts := word(), word(), word()
	for range parts {
		at += 8 * word()
	}
	at += 5 * 8
	heads := make([][8]int, parts)
	for p := range heads {
		for j := range heads[p] {
			heads[p][j] = word()
		}
	}
	at = (at+7)&^7 + count*8*((dims+63)/64)
	var out []gphSection
	for _, h := range heads {
		n, refLen, keyLen, postLen := h[0], h[4], h[5], h[6]
		s := gphSection{post: at + keyLen, postLen: postLen, refs: at + keyLen + postLen, refLen: refLen, keys: n}
		at = (s.refs + refLen*n + 4 - refLen + 7) &^ 7
		switch {
		case h[7] == 1:
			at += 4 * ((keyLen+63)/64 + 1)
		case n <= 2:
			at += 2 * 2
		case n <= 65535:
			at += 2 * (1<<(bits.Len(uint(n-1))-1) + 1)
		default:
			at += 4 * (1<<(bits.Len(uint(n-1))-1) + 1)
		}
		out = append(out, s)
	}
	if at != len(raw) {
		panic("engine: the GPH file's sections do not end it")
	}
	return out
}

// hostileLists are GPH files made from raw whose lists the content tier
// refuses: a head that claims one id more than its bytes hold, a head of
// five continuation bytes, the first list's ref moved into the one-id
// range (below the collection size) and the last list ending short of
// the arena, its head one id under.
func hostileLists(t testing.TB, raw []byte) [][]byte {
	count := int(binary.LittleEndian.Uint64(raw[16:]))
	var out [][]byte
	edit := func(change func(b []byte)) {
		b := bytes.Clone(raw)
		change(b)
		out = append(out, b)
	}
	for _, s := range gphSections(raw) {
		if s.postLen < 5 {
			continue
		}
		ref := func(b []byte, e int) int {
			var r [4]byte
			copy(r[:], b[s.refs+s.refLen*e:s.refs+s.refLen*(e+1)])
			return int(binary.LittleEndian.Uint32(r[:]))
		}
		first, last := -1, -1
		for e := range s.keys {
			if r := ref(raw, e); r == count {
				first = e
			} else if r > count && (last < 0 || r > ref(raw, last)) {
				last = e
			}
		}
		tail := s.post + ref(raw, last) - count
		if first < 0 || last < 0 || raw[tail] == 0 || raw[tail] >= 0x80 {
			continue
		}
		edit(func(b []byte) { b[s.post]++ })
		edit(func(b []byte) { copy(b[s.post:], []byte{0x80, 0x80, 0x80, 0x80, 0x80}) })
		edit(func(b []byte) { b[s.refs+s.refLen*first] = byte(count - 1) })
		edit(func(b []byte) { b[tail]-- })
		return out
	}
	t.Fatal("no partition holds a first and a last list whose head can be one under")
	return nil
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
