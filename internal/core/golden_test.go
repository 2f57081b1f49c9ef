package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"

	"gph/internal/dataset"
)

// goldenCorpora are the seeded corpora the build goldens build from.
var goldenCorpora = []struct {
	name string
	data func() *dataset.Dataset
}{
	{"sift-like", func() *dataset.Dataset { return dataset.SIFTLike(500, 3) }},
	{"gist-like", func() *dataset.Dataset { return dataset.GISTLike(400, 4) }},
	{"uqvideo-like", func() *dataset.Dataset { return dataset.UQVideoLike(500, 5) }},
}

// goldenBuild is the seeded GPH build of golden corpus i.
func goldenBuild(t *testing.T, i int) *Index {
	t.Helper()
	ix, err := Build(goldenCorpora[i].data().Vectors, Options{MaxTau: 16, WorkloadSize: 12, SampleSize: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestBuildBytesGolden pins what a fresh build writes: seeded GPH builds
// over three small corpora — partitioning (greedy initialization and
// Algorithm 2's refinement over a sample) and the frozen partitions —
// saved and hashed. TestCurrentFixtureBytes re-saves a loaded index, so
// it cannot see a change in how an index is built; this can. A hash that
// moves means every index built from now on differs from the ones built
// before, which a change that only restructures the build must not do.
func TestBuildBytesGolden(t *testing.T) {
	for i, sha := range []string{
		"3ead5f680a0c13d2f5fbaf0a6fd8045c5d645df57b4979fe974e13e5de5c51aa",
		"0ff1ef411fab0b8fa555eb6225af2d0f678c79973354ae5cb487ed23f52be070",
		"28b43cafdf9354b5d6876c3cac3329f4d3dda94d3041054cbc3f94e3654f16b8",
	} {
		ix := goldenBuild(t, i)
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != sha {
			t.Errorf("%s: a fresh build saves %d bytes hashing to %s, want %s (partition widths %v)",
				goldenCorpora[i].name, buf.Len(), got, sha, ix.Partitioning().Widths())
		}
	}
}

// TestBuildContentGolden pins what the same builds index, whatever the
// layout: each partition's keys and the ids listed under them, in key
// order, hashed. A format change moves TestBuildBytesGolden's hashes and
// must leave these; a change to what is indexed moves both. The sizes
// are pinned beside them — SizeBytes and its components (key arena or
// bitmap, posting arena, per-entry arrays, bucket directories or rank
// arrays) — so a layout change says, component by component, what it
// saves.
func TestBuildContentGolden(t *testing.T) {
	type breakdown struct{ keys, posts, entries, dirs int64 }
	for i, want := range []struct {
		sha  string
		size int64
		breakdown
	}{
		{"48c85d8006c46564c0fdef46c1440d78ace2e03dfd864b5912186e2c12ed55e4", 13174, breakdown{6543, 763, 3454, 1550}},
		{"e95d80d2b4e2eefe058c2cec76a630c2a486d869b13ef7728ff5d84444522887", 28228, breakdown{15889, 3425, 5156, 1598}},
		{"9c8d0eed7146841b1aefb24a68121407507f95ecf8e6d7c475c54827e15e855b", 30857, breakdown{18924, 4045, 4130, 1598}},
	} {
		ix := goldenBuild(t, i)
		h := sha256.New()
		var frame [8]byte
		for _, inv := range ix.inv {
			h.Write(binary.LittleEndian.AppendUint64(frame[:0], uint64(inv.NumKeys())))
			inv.Range(func(key []byte, ids []int32) bool {
				h.Write(key)
				h.Write(binary.LittleEndian.AppendUint32(frame[:0], uint32(len(ids))))
				for _, id := range ids {
					h.Write(binary.LittleEndian.AppendUint32(frame[:0], uint32(id)))
				}
				return true
			})
		}
		got := struct {
			sha  string
			size int64
			breakdown
		}{sha: hex.EncodeToString(h.Sum(nil)), size: ix.SizeBytes()}
		got.keys, got.posts, got.entries, got.dirs = arenaBreakdown(ix)
		if got != want {
			t.Errorf("%s: content %s, %d bytes (keys %d, posts %d, entries %d, directories %d); want %s, %d (%d, %d, %d, %d)",
				goldenCorpora[i].name, got.sha, got.size, got.keys, got.posts, got.entries, got.dirs,
				want.sha, want.size, want.keys, want.posts, want.entries, want.dirs)
		}
	}
}

// TestBuildDimsAscend: a build writes every partition's dims ascending,
// whatever order refinement left them in, so that its projector may
// extract them a vector word at a time (bitvec.Projector).
func TestBuildDimsAscend(t *testing.T) {
	for i := range goldenCorpora {
		ix := goldenBuild(t, i)
		for p, part := range ix.Partitioning().Parts {
			if !slices.IsSorted(part) {
				t.Errorf("%s: partition %d's dims %v do not ascend", goldenCorpora[i].name, p, part)
			}
		}
	}
}

// arenaBreakdown is invindex.Frozen.ArenaBreakdown summed over ix's
// partitions: where SizeBytes's bytes are, less each partition's fixed
// struct overhead.
func arenaBreakdown(ix *Index) (keyBytes, postBytes, entryBytes, dirBytes int64) {
	for _, inv := range ix.inv {
		k, p, e, d := inv.ArenaBreakdown()
		keyBytes, postBytes, entryBytes, dirBytes = keyBytes+k, postBytes+p, entryBytes+e, dirBytes+d
	}
	return keyBytes, postBytes, entryBytes, dirBytes
}
