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
		"gph":       "245f221d12b344a16786d83aa4a8807789cb34dac791966aec0dbd2fb2bf6158",
		"hmsearch":  "e07eeb99088b023b113de31cfa05ed1fe013ede02fe0b9ffd83083d90d53c150",
		"linscan":   "0ea00f2d58bdc4da854c7da098cd87083a242e192c6d52224d337b0c64e49ad0",
		"lsh":       "9f5aff03cef90e9cf2eb4e58a7e9f51fa83e9b83a1ee3b7b114cb91650056d17",
		"mih":       "de4d7ce023c0269a9e7e89251bf6d8f45562aa70aed7a8638b98071ef062b917",
		"partalloc": "841c99ba4728055591933789a8b64e8d7a67309c4ea6805f13dd77c7d53a9e77",
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
