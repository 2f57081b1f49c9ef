package core

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"gph/internal/binio"
	"gph/internal/candest"
	"gph/internal/engine"
)

// loadFixture reads the checked-in GPHIX02 file: a 120×48 index built
// by the pre-arena writer (NumPartitions 4, MaxTau 16, Seed 7, exact
// estimator). It is the one artifact in the repository that the
// current writer can no longer produce — the legacy-load path must
// keep reading it forever.
func loadFixture(t *testing.T) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "index-gphix02.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw[:8]) != legacyIndexMagic {
		t.Fatalf("fixture leads with %q, want %q", raw[:8], legacyIndexMagic)
	}
	return raw
}

// searchAll runs Search at several thresholds and flattens the
// results for comparison.
func searchAll(t *testing.T, ix *Index) [][]int32 {
	t.Helper()
	var out [][]int32
	for _, tau := range []int{0, 2, 5, 9, 14} {
		for _, qi := range []int32{0, 7, 63, 119} {
			ids, err := ix.Search(ix.Vector(qi), tau)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, ids)
		}
	}
	return out
}

func equalResults(a, b [][]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestLegacyFixtureLoads is the backward-compatibility gate: the
// checked-in GPHIX02 file must load through the legacy path, answer
// correctly against a brute-force oracle, and round-trip through the
// current GPHIX03 writer without changing a single answer.
func TestLegacyFixtureLoads(t *testing.T) {
	raw := loadFixture(t)
	ix, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("legacy fixture rejected: %v", err)
	}
	if ix.Dims() != 48 || ix.Len() != 120 {
		t.Fatalf("fixture decoded as %d dims × %d vectors", ix.Dims(), ix.Len())
	}
	// Oracle check: the loaded index must answer exactly like a linear
	// scan over its own vectors.
	for _, tau := range []int{0, 3, 8} {
		q := ix.Vector(5)
		got, err := ix.Search(q, tau)
		if err != nil {
			t.Fatal(err)
		}
		var want []int32
		for id := int32(0); id < int32(ix.Len()); id++ {
			if q.HammingWithin(ix.Vector(id), tau) {
				want = append(want, id)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("tau=%d: fixture answers %d results, oracle %d", tau, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("tau=%d: result %d is %d, oracle %d", tau, i, got[i], want[i])
			}
		}
	}
	// Migration: re-saving writes the current format, and the migrated
	// index answers identically.
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if got := string(buf.Bytes()[:8]); got != indexMagic {
		t.Fatalf("re-save leads with %q, want %q", got, indexMagic)
	}
	ix3, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !equalResults(searchAll(t, ix), searchAll(t, ix3)) {
		t.Fatal("migrated index answers differently")
	}
}

// TestLoadAnyDispatchesLegacyMagic checks the registry half of the
// compatibility story: engine.LoadAny must route the superseded
// GPHIX02 magic to the GPH loader.
func TestLoadAnyDispatchesLegacyMagic(t *testing.T) {
	raw := loadFixture(t)
	e, err := engine.LoadAny(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("LoadAny rejected legacy magic: %v", err)
	}
	if e.Name() != EngineName || e.Len() != 120 {
		t.Fatalf("LoadAny produced %s engine with %d vectors", e.Name(), e.Len())
	}
}

// TestSaveLegacyRoundTrip proves the v2↔v3 equivalence on fresh
// builds: an index written through the retained legacy writer loads
// into the same logical index the arena writer round-trips, for both
// persisted-estimator (exact) and rebuilt-estimator configurations.
func TestSaveLegacyRoundTrip(t *testing.T) {
	data := testData(t, 150, 21)
	for _, est := range []EstimatorKind{EstimatorExact, EstimatorSubPartition} {
		ix := buildSmall(t, data, Options{NumPartitions: 3, Seed: 2, Estimator: est})

		var legacy bytes.Buffer
		if err := ix.SaveLegacy(&legacy); err != nil {
			t.Fatal(err)
		}
		if got := string(legacy.Bytes()[:8]); got != legacyIndexMagic {
			t.Fatalf("SaveLegacy leads with %q", got)
		}
		fromLegacy, err := Load(bytes.NewReader(legacy.Bytes()))
		if err != nil {
			t.Fatal(err)
		}

		var arena bytes.Buffer
		if err := ix.Save(&arena); err != nil {
			t.Fatal(err)
		}
		fromArena, err := Load(bytes.NewReader(arena.Bytes()))
		if err != nil {
			t.Fatal(err)
		}

		want := searchAll(t, ix)
		if !equalResults(want, searchAll(t, fromLegacy)) {
			t.Fatalf("estimator %v: legacy round-trip answers differently", est)
		}
		if !equalResults(want, searchAll(t, fromArena)) {
			t.Fatalf("estimator %v: arena round-trip answers differently", est)
		}
		if fromArena.SizeBytes() != ix.SizeBytes() {
			t.Fatalf("estimator %v: round-trip SizeBytes %d != %d", est, fromArena.SizeBytes(), ix.SizeBytes())
		}
	}
}

// loadPrevFixture reads the checked-in GPHIX03 file: the same
// 120×48 / NumPartitions 4 / MaxTau 16 / Seed 7 build as the GPHIX02
// fixture, written by the interleaved-section arena writer that
// GPHIX04's head-then-payload layout superseded.
func loadPrevFixture(t *testing.T) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "index-gphix03.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw[:8]) != prevIndexMagic {
		t.Fatalf("fixture leads with %q, want %q", raw[:8], prevIndexMagic)
	}
	return raw
}

// TestPrevFixtureLoads pins the GPHIX03 half of the compatibility
// promise: the interleaved-layout file must load (eagerly and in
// borrow mode), answer like a brute-force oracle, and migrate through
// the GPHIX04 writer without changing an answer.
func TestPrevFixtureLoads(t *testing.T) {
	raw := loadPrevFixture(t)
	ix, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("GPHIX03 fixture rejected: %v", err)
	}
	if ix.Dims() != 48 || ix.Len() != 120 {
		t.Fatalf("fixture decoded as %d dims × %d vectors", ix.Dims(), ix.Len())
	}
	borrowed, err := Load(binio.NewSource(raw))
	if err != nil {
		t.Fatalf("GPHIX03 fixture rejected in borrow mode: %v", err)
	}
	for _, tau := range []int{0, 3, 8} {
		q := ix.Vector(5)
		got, err := ix.Search(q, tau)
		if err != nil {
			t.Fatal(err)
		}
		var want []int32
		for id := int32(0); id < int32(ix.Len()); id++ {
			if q.HammingWithin(ix.Vector(id), tau) {
				want = append(want, id)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("tau=%d: fixture answers %d results, oracle %d", tau, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("tau=%d: result %d is %d, oracle %d", tau, i, got[i], want[i])
			}
		}
	}
	if !equalResults(searchAll(t, ix), searchAll(t, borrowed)) {
		t.Fatal("borrow-mode load answers differently")
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if got := string(buf.Bytes()[:8]); got != indexMagic {
		t.Fatalf("re-save leads with %q, want %q", got, indexMagic)
	}
	ix4, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !equalResults(searchAll(t, ix), searchAll(t, ix4)) {
		t.Fatal("migrated index answers differently")
	}
}

// TestCurrentFixtureBytes pins the GPHIX04 bytes across the estimator's
// storage change: testdata/index-gphix04.bin is the GPHIX03 fixture as
// re-saved by the writer that still kept per-projection views, and
// today's writer must produce it byte for byte — from the GPHIX03
// fixture, and from itself loaded into the heap or borrowed in place.
// The estimator state those files carry verbatim is also what NewExact
// builds from their vectors today, order included.
func TestCurrentFixtureBytes(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "index-gphix04.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if string(want[:8]) != indexMagic {
		t.Fatalf("fixture leads with %q, want %q", want[:8], indexMagic)
	}
	sources := map[string]io.Reader{
		"GPHIX03 fixture":          bytes.NewReader(loadPrevFixture(t)),
		"GPHIX04 fixture":          bytes.NewReader(want),
		"GPHIX04 fixture borrowed": binio.NewSource(want),
	}
	for name, src := range sources {
		ix, err := Load(src)
		if err != nil {
			t.Fatalf("%s rejected: %v", name, err)
		}
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%s re-saves to %d bytes that differ from the %d-byte fixture", name, buf.Len(), len(want))
		}
		if err := ix.ensureValidated(); err != nil {
			t.Fatal(err)
		}
		for i, dimsI := range ix.parts.Parts {
			gotArena, gotCounts := ix.ests[i].(*candest.Exact).State()
			wantArena, wantCounts := candest.NewExact(ix.data, dimsI).State()
			if !slices.Equal(gotArena, wantArena) || !slices.Equal(gotCounts, wantCounts) {
				t.Fatalf("%s partition %d: persisted estimator state differs from a rebuild", name, i)
			}
		}
	}
}
