package invindex_test

import (
	"testing"
	"time"

	"gph/internal/core"
	"gph/internal/cpu"
	"gph/internal/dataset"
	"gph/internal/invindex"
	"gph/internal/verify"
)

// BenchmarkValidate times the content tier's passes one at a time over
// the sections of the regression benchmark's two shapes (n = 20 000,
// Options{Seed: 1}, each partition frozen as a GPH build freezes it),
// under each arm, and reports each pass's ns per entry: keys, refs, and
// lists — the postings pass less its refs. Where a saving lands is a
// pass's number; core's BenchmarkValidate has the tier's wall time. At
// one core, as the passes run in a partition's worker:
//
//	go test -run '^$' -bench Validate -cpu 1 ./internal/invindex
func BenchmarkValidate(b *testing.B) {
	for _, c := range []struct {
		name string
		ds   *dataset.Dataset
	}{
		{"uqvideo", dataset.UQVideoLike(20000, 1)},
		{"sift", dataset.SIFTLike(20000, 1)},
	} {
		ix, err := core.Build(c.ds.Vectors, core.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		codes := verify.Pack(c.ds.Vectors)
		var sections []*invindex.Frozen
		entries := 0
		for _, part := range ix.Partitioning().Parts {
			f := invindex.FreezeRows(ix.Len(), 1, len(part), invindex.ProjectRows(codes, part))
			sections, entries = append(sections, f), entries+f.NumKeys()
		}
		for _, arm := range []cpu.Kernel{cpu.KernelAssembly, cpu.KernelGo, cpu.KernelPortable} {
			b.Run(c.name+"/"+arm.String(), func(b *testing.B) {
				if arm == cpu.KernelAssembly && invindex.KernelMissing != "" {
					b.Skipf("assembly NOT exercised: this host lacks %s", invindex.KernelMissing)
				}
				defer cpu.Force(cpu.Setting{Kernel: arm})()
				var keys, refs, postings time.Duration
				for range b.N {
					for _, f := range sections {
						k, r, p := invindex.Passes(f)
						t0 := time.Now()
						err := k()
						t1 := time.Now()
						_ = r()
						t2 := time.Now()
						if err == nil {
							err = p()
						}
						t3 := time.Now()
						if err != nil {
							b.Fatal(err)
						}
						keys, refs, postings = keys+t1.Sub(t0), refs+t2.Sub(t1), postings+t3.Sub(t2)
					}
				}
				per := float64(b.N) * float64(entries)
				b.ReportMetric(float64(keys.Nanoseconds())/per, "keys-ns/entry")
				b.ReportMetric(float64(refs.Nanoseconds())/per, "refs-ns/entry")
				b.ReportMetric(float64((postings-refs).Nanoseconds())/per, "lists-ns/entry")
			})
		}
	}
}

// TestValidationArm says in the log which arm the content tier runs on
// this host, and holds the forced arms to what they force.
func TestValidationArm(t *testing.T) {
	if invindex.KernelMissing == "" {
		t.Log("validation arm: assembly (the AVX-512 passes)")
	} else {
		t.Logf("validation arm: portable; the AVX-512 passes NOT exercised, this host lacks %s (their Go reference runs under cpu.KernelGo)", invindex.KernelMissing)
	}
	f := invindex.FreezeRows(200, 1, 20, make([]uint64, 200))
	for _, arm := range []cpu.Kernel{cpu.KernelGo, cpu.KernelPortable} {
		restore := cpu.Force(cpu.Setting{Kernel: arm})
		err := f.Validate()
		restore()
		if err != nil {
			t.Errorf("%s arm: %v", arm, err)
		}
	}
}
