package core

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"gph/internal/binio"
	"gph/internal/bitvec"
)

// TestCurrentFixtureBytes pins the on-disk format: the checked-in
// testdata/index-gphix06.bin (120 vectors × 48 dims, NumPartitions 4,
// MaxTau 16, Seed 7) loads into the heap and borrowed in place, answers like a linear scan over its own vectors, generates
// candidates that miss none of those answers (Search scans at 120 rows,
// so the index is asked apart: indexCandidates), and is what today's
// writer produces from either, byte for byte.
func TestCurrentFixtureBytes(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "index-gphix06.bin"))
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

// keyArenaOffset finds partition p's key arena in ix's saved bytes.
func keyArenaOffset(t *testing.T, ix *Index, raw []byte, p int) int {
	t.Helper()
	var arena []byte
	ix.inv[p].Range(func(key []byte, _ []int32) bool {
		arena = append(arena, key...)
		return true
	})
	off := bytes.Index(raw, arena)
	if off < 0 || bytes.Contains(raw[off+1:], arena) {
		t.Fatalf("partition %d's key arena does not occur exactly once in the file", p)
	}
	return off
}

// TestLoadRejectsHostileKeysAndCounts: the keys and posting counts are
// the only copy of what CN estimation reads, so they are checked. A key with a bit
// beyond its partition's width — which leaves key order, lengths and
// posting framing intact — and posting counts that do not sum to the
// collection size are rejected by Load, from a stream or from bytes in
// place alike, and by the first query on a deferred load, estimates
// made before that staying in bounds; a posting total that is not the
// collection size is rejected at open either way.
func TestLoadRejectsHostileKeysAndCounts(t *testing.T) {
	data := testData(t, 100, 14)
	ix := buildSmall(t, data, Options{NumPartitions: 3, Seed: 1})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if w := len(ix.parts.Parts[0]); w == 0 || w > 56 {
		t.Fatalf("partition 0 is %d bits wide; the test needs a spare high byte in its keys", w)
	}

	strayBit := bytes.Clone(raw)
	strayBit[keyArenaOffset(t, ix, raw, 0)+7] |= 0x80 // first key, bit 63
	wrongCount := bytes.Clone(raw)
	wrongCount[len(raw)-4] ^= 1 // the file ends with the last partition's counts
	for name, hostile := range map[string][]byte{"key bit beyond width": strayBit, "counts off by one": wrongCount} {
		if _, err := Load(bytes.NewReader(hostile)); err == nil {
			t.Fatalf("%s: accepted from a stream", name)
		}
		if _, err := Load(binio.NewSource(hostile)); err == nil {
			t.Fatalf("%s: accepted from bytes in place", name)
		}
		borrowed, err := LoadDeferred(binio.NewSource(hostile))
		if err != nil {
			t.Fatalf("%s: a deferred load read the arenas: %v", name, err)
		}
		_ = borrowed.EstimateTable(data[3], 70) // the histogram kernel, before any validation
		if _, err := borrowed.Search(data[3], 4); err == nil {
			t.Fatalf("%s: accepted by the first query on a deferred load", name)
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
	for name, src := range map[string]io.Reader{"stream": bytes.NewReader(wrongTotal), "borrowed": binio.NewSource(wrongTotal)} {
		if _, err := Load(src); err == nil {
			t.Fatalf("posting total off by one accepted at open (%s)", name)
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
}
