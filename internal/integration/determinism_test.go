package integration

import (
	"bytes"
	"testing"

	"gph"
	"gph/internal/dataset"
)

// TestSeededBuildsAreByteIdentical pins build determinism end to end:
// two builds from the same data and options must serialize to
// byte-identical streams. Every random choice in the pipeline —
// partitioning refinement and its sampled workload, LSH's hash draws —
// must come from the seeded generator carried in the options, never
// from the process-global math/rand or the wall clock: this test bans
// both everywhere they would reach the serialized form. A break here
// means saved indexes stop being reproducible artifacts.
func TestSeededBuildsAreByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("build matrix skipped in -short mode")
	}
	ds := dataset.UQVideoLike(600, 7)

	build := func() map[string][]byte {
		out := map[string][]byte{}

		// The GPH core with the options only gph.Build takes.
		ix, err := gph.Build(ds.Vectors, gph.Options{
			NumPartitions: 6, MaxTau: 12, Seed: 42, SampleSize: 150, WorkloadSize: 8,
		})
		if err != nil {
			t.Fatalf("gph: %v", err)
		}
		var core bytes.Buffer
		if err := ix.Save(&core); err != nil {
			t.Fatalf("gph save: %v", err)
		}
		out["gph"] = core.Bytes()

		// Every other registered engine through the uniform contract.
		for _, info := range gph.Engines() {
			if info.Name == "gph" {
				continue
			}
			eng, err := gph.BuildEngine(info.Name, ds.Vectors, gph.EngineOptions{
				NumPartitions: 6, MaxTau: 12, Seed: 42,
			})
			if err != nil {
				t.Fatalf("%s: %v", info.Name, err)
			}
			var buf bytes.Buffer
			if err := eng.Save(&buf); err != nil {
				t.Fatalf("%s save: %v", info.Name, err)
			}
			out[info.Name] = buf.Bytes()
		}

		// A sharded container over the default engine.
		sharded, err := gph.BuildSharded(ds.Vectors, 3, gph.Options{
			NumPartitions: 6, MaxTau: 12, Seed: 42, SampleSize: 150, WorkloadSize: 8,
		})
		if err != nil {
			t.Fatalf("sharded: %v", err)
		}
		var buf bytes.Buffer
		if err := sharded.Save(&buf); err != nil {
			t.Fatalf("sharded save: %v", err)
		}
		out["sharded"] = buf.Bytes()
		return out
	}

	first, second := build(), build()
	if len(first) != len(second) {
		t.Fatalf("build sets differ: %d vs %d", len(first), len(second))
	}
	for name, b1 := range first {
		b2, ok := second[name]
		if !ok {
			t.Errorf("%s: missing from second build", name)
			continue
		}
		if !bytes.Equal(b1, b2) {
			i := 0
			for i < len(b1) && i < len(b2) && b1[i] == b2[i] {
				i++
			}
			t.Errorf("%s: serialized forms differ at byte %d (lens %d, %d)", name, i, len(b1), len(b2))
		}
	}
}
