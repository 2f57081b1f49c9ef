package bitvec

import (
	"math/rand"
	"slices"
	"testing"

	"gph/internal/cpu"
)

// eachProjectArm runs body on the arm this host takes and on the
// gather arm forced; on a host without a fast PEXT both are the gather,
// and the log says so.
func eachProjectArm(t *testing.T, body func(t *testing.T)) {
	t.Run("native", func(t *testing.T) {
		if pextMissing != "" {
			t.Logf("PEXT arm NOT exercised: this host lacks %s", pextMissing)
		}
		body(t)
	})
	t.Run("gather", func(t *testing.T) {
		t.Cleanup(cpu.Force(cpu.Setting{Projector: cpu.ProjectorGather}))
		body(t)
	})
}

// checkProjector holds Project against ProjectInto on every part, into
// an arena filled with ones first so that a word left unwritten shows.
func checkProjector(t *testing.T, v Vector, parts [][]int) {
	t.Helper()
	p := NewProjector(v.Dims(), parts)
	arena, views := p.Views()
	for i := range arena {
		arena[i] = ^uint64(0)
	}
	p.Project(v, arena)
	for i, part := range parts {
		want := New(len(part))
		v.ProjectInto(part, want)
		if !views[i].Equal(want) {
			t.Fatalf("%s arm, part %d of %d (%d dims %v…): projects %v, ProjectInto %v",
				p.Arm(), i, len(parts), len(part), part[:min(len(part), 6)], views[i], want)
		}
		if err := views[i].CheckTail(); err != nil {
			t.Fatalf("%s arm, part %d: %v", p.Arm(), i, err)
		}
	}
}

// projectorCases are partitionings of 881 dims: random parts of each
// width in widthsUnderTest, contiguous runs starting off a word (so runs
// in one vector word straddle output words), a single part of every
// dim, and the empty partitioning.
func projectorCases(rng *rand.Rand) map[string][][]int {
	const dims = 881
	cases := map[string][][]int{"empty": nil}
	perm := rng.Perm(dims)
	var scattered [][]int
	for _, w := range widthsUnderTest {
		scattered = append(scattered, perm[:w])
		perm = perm[w:]
	}
	cases["scattered"] = scattered
	var runs [][]int
	for d, w := 0, 0; d < dims; d += w {
		w = min(widthsUnderTest[len(runs)%len(widthsUnderTest)], dims-d)
		var run []int
		for k := range w {
			run = append(run, d+k)
		}
		runs = append(runs, run)
	}
	cases["runs"] = runs
	all := rng.Perm(dims)
	cases["one part"] = [][]int{all}
	return cases
}

var widthsUnderTest = []int{1, 2, 63, 64, 65, 127, 128, 129, 200}

// TestProjectorMatchesProjectInto: both arms write what ProjectInto
// writes, part by part, on dims that ascend and on dims that do not.
func TestProjectorMatchesProjectInto(t *testing.T) {
	eachProjectArm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		for name, parts := range projectorCases(rng) {
			for _, order := range []string{"ascending", "as drawn"} {
				parts := slices.Clone(parts)
				for i := range parts {
					parts[i] = slices.Clone(parts[i])
					if order == "ascending" {
						slices.Sort(parts[i])
					}
				}
				t.Run(name+"/"+order, func(t *testing.T) {
					for range 8 {
						checkProjector(t, randVec(rng, 881), parts)
					}
				})
			}
		}
	})
}

// TestProjectorArm says which arm this host projects on, and pins when
// each is taken: the PEXT arm only where every part ascends and the CPU
// runs PEXT at full speed.
func TestProjectorArm(t *testing.T) {
	ascending := NewProjector(256, [][]int{{0, 3, 70, 200}, {1, 2, 64}})
	shuffled := NewProjector(256, [][]int{{0, 3, 70, 200}, {64, 1, 2}})
	if pextMissing == "" {
		t.Log("Projector: PEXT arm, one extract a (part, vector word), pieces cut at output words")
	} else {
		t.Logf("Projector: gather arm only, PEXT NOT exercised: this host lacks %s", pextMissing)
	}
	want := "gather"
	if pextMissing == "" {
		want = "pext"
	}
	if got := ascending.Arm(); got != want {
		t.Errorf("ascending parts take the %s arm, want %s", got, want)
	}
	if got := shuffled.Arm(); got != "gather" {
		t.Errorf("a part that does not ascend takes the %s arm, want gather", got)
	}
	t.Cleanup(cpu.Force(cpu.Setting{Projector: cpu.ProjectorGather}))
	if got := ascending.Arm(); got != "gather" {
		t.Errorf("forced: ascending parts take the %s arm, want gather", got)
	}
}

// TestProjectorPieces pins how parts are cut: an extract a run of dims
// in one vector word, cut again at every output word, the first piece
// of each output word at its bit 0.
func TestProjectorPieces(t *testing.T) {
	var wide []int
	for d := 30; d < 30+129; d++ {
		wide = append(wide, d)
	}
	p := NewProjector(200, [][]int{{5}, wide})
	want := []pextPiece{
		{mask: 1 << 5, src: 0, at: 0},
		{mask: ^uint64(1<<30 - 1), src: 0, at: 64},  // dims 30–63: bits 0–33
		{mask: 1<<30 - 1, src: 1, at: 64 + 34},      // dims 64–93: bits 34–63
		{mask: ^uint64(1<<30 - 1), src: 1, at: 128}, // dims 94–127: bits 64–97
		{mask: 1<<30 - 1, src: 2, at: 128 + 34},     // dims 128–157: bits 98–127
		{mask: 1 << 30, src: 2, at: 192},            // dim 158: bit 128
	}
	if !slices.Equal(p.pieces, want) {
		t.Fatalf("pieces %+v, want %+v", p.pieces, want)
	}
	if p.Words() != 1+3 {
		t.Fatalf("Words %d, want 4", p.Words())
	}
	if NewProjector(10, nil).Words() != 0 {
		t.Fatal("the empty partitioning needs words")
	}
}

// TestProjectorPanics: a dim outside the space panics at construction,
// a vector or arena of the wrong size on Project.
func TestProjectorPanics(t *testing.T) {
	p := NewProjector(70, [][]int{{1, 69}})
	for name, call := range map[string]func(){
		"a dim past the space": func() { NewProjector(70, [][]int{{1, 70}}) },
		"a negative dim":       func() { NewProjector(70, [][]int{{-1, 3}}) },
		"a vector too short":   func() { p.Project(New(69), make([]uint64, 1)) },
		"an arena too long":    func() { p.Project(New(70), make([]uint64, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			call()
		}()
	}
}

// TestProjectAllocs: Project allocates nothing on either arm.
func TestProjectAllocs(t *testing.T) {
	eachProjectArm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		parts := projectorCases(rng)["runs"]
		p := NewProjector(881, parts)
		arena, _ := p.Views()
		v := randVec(rng, 881)
		if n := testing.AllocsPerRun(100, func() { p.Project(v, arena) }); n != 0 {
			t.Fatalf("%s arm: %v allocations a call", p.Arm(), n)
		}
	})
}

// FuzzProject holds both arms against ProjectInto on partitionings the
// input draws: its first bytes choose the dims, how many parts and
// whether they ascend; the rest seed the vector and the permutation.
func FuzzProject(f *testing.F) {
	f.Add(uint16(256), uint8(10), true, int64(1))
	f.Add(uint16(881), uint8(3), false, int64(2))
	f.Add(uint16(64), uint8(64), true, int64(3))
	f.Add(uint16(129), uint8(1), true, int64(4))
	f.Fuzz(func(t *testing.T, dims uint16, m uint8, ascending bool, seed int64) {
		n := 1 + int(dims)%1024
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(n)
		parts := make([][]int, int(m)%n+1)
		for i, d := range perm { // every part gets one dim, the rest land anywhere
			k := i
			if i >= len(parts) {
				k = rng.Intn(len(parts))
			}
			parts[k] = append(parts[k], d)
		}
		if ascending {
			for _, part := range parts {
				slices.Sort(part)
			}
		}
		v := randVec(rng, n)
		checkProjector(t, v, parts)
		t.Cleanup(cpu.Force(cpu.Setting{Projector: cpu.ProjectorGather}))
		checkProjector(t, v, parts)
	})
}

// BenchmarkProjector is BenchmarkProjectInto's query — one 256-d vector
// onto ten parts of 20–28 scattered dims — through a Projector, the
// dims of each part ascending as a GPH build writes them: on the PEXT
// arm where the host has it, and on the gather arm.
func BenchmarkProjector(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const n = 256
	v := randVec(rng, n)
	perm := rng.Perm(n)
	var parts [][]int
	for _, w := range []int{28, 24, 26, 25, 27, 24, 26, 28, 22, 26} {
		part := slices.Clone(perm[:w])
		slices.Sort(part)
		parts = append(parts, part)
		perm = perm[w:]
	}
	p := NewProjector(n, parts)
	arena, _ := p.Views()
	for _, arm := range []string{"pext", "gather"} {
		b.Run(arm, func(b *testing.B) {
			if arm == "gather" {
				b.Cleanup(cpu.Force(cpu.Setting{Projector: cpu.ProjectorGather}))
			} else if pextMissing != "" {
				b.Skipf("PEXT arm NOT exercised: this host lacks %s", pextMissing)
			}
			for b.Loop() {
				p.Project(v, arena)
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(ns, "ns/query")
			b.ReportMetric(ns/n, "ns/bit")
		})
	}
}
