package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"gph/internal/dataset"
)

// TestBuildBytesGolden pins what a fresh build writes: seeded GPH builds
// over three small corpora — partitioning (greedy initialization and
// Algorithm 2's refinement over a sample) and the frozen partitions —
// saved and hashed. TestCurrentFixtureBytes re-saves a loaded index, so
// it cannot see a change in how an index is built; this can. A hash that
// moves means every index built from now on differs from the ones built
// before, which a change that only restructures the build must not do.
func TestBuildBytesGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		data *dataset.Dataset
		sha  string
	}{
		{"sift-like", dataset.SIFTLike(500, 3), "0c5c9190fe921a3cfe5872eba258c2222ae3f4b71e69ebadab7640740793cdd9"},
		{"gist-like", dataset.GISTLike(400, 4), "6c51454b2dd332d56e832ac03bef29ed0d27a3a11ed7d870dfc52acec2611c02"},
		{"uqvideo-like", dataset.UQVideoLike(500, 5), "5ae3c66af2f415ad699d8f8f5cc3f9778b7ffb6ebc3bab95b0e64c756c1a5d78"},
	} {
		ix, err := Build(c.data.Vectors, Options{MaxTau: 16, WorkloadSize: 12, SampleSize: 300, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.sha {
			t.Errorf("%s: a fresh build saves %d bytes hashing to %s, want %s (partition widths %v)",
				c.name, buf.Len(), got, c.sha, ix.Partitioning().Widths())
		}
	}
}
