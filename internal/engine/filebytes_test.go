package engine_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"gph/internal/dataset"
	"gph/internal/engine"
)

// TestSaveBytesPinned pins, for every registered engine, the sha256 of
// what Save writes for one fixed corpus: 300 rows of 70 dimensions, so
// each row has a tail word. A baseline's file is its parameters and the
// raw rows, and an engine that changes how it holds its rows must
// write the same bytes: a file of one build loads in the other.
func TestSaveBytesPinned(t *testing.T) {
	want := map[string]string{
		"gph":       "840aa0b16fa2c81c9faf1e7c1f8255038de601b4c8308e07c46d25c72fbe58db",
		"hmsearch":  "c2f023fca1630c4ad0294df69434c4a0b4450fa4181ead823269ac6f55a0ba92",
		"linscan":   "0ea00f2d58bdc4da854c7da098cd87083a242e192c6d52224d337b0c64e49ad0",
		"lsh":       "b1fda0b5b11423a322e6663407097211f36cd3309e7044133d5b41c18ab5d0d3",
		"mih":       "17c997ca92030c860f3baa4623ee3b5c939551c8bbca5d8449baa614a5fe6cb4",
		"partalloc": "0e2ef35a7091b3b2a937f2c15ef0c7e0f70a807332eb3f60f6274cac2734b558",
	}
	data := dataset.Synthetic(300, 70, 0.3, confSeed).Vectors
	for _, name := range engine.Names() {
		e, err := engine.Build(name, data, engine.BuildOptions{NumPartitions: 3, MaxTau: 8, Seed: confSeed})
		if err != nil {
			t.Fatalf("building %s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := e.Save(&buf); err != nil {
			t.Fatalf("saving %s: %v", name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: Save writes %d bytes with sha256 %s, pinned %q", name, buf.Len(), got, want[name])
		}
	}
}
