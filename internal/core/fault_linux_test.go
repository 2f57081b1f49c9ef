package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gph/internal/dataset"
	"gph/internal/engine"
)

// TestTruncatedMappingFailsItsFirstQuery: an index file cut to its first
// page after a mapped open, before any query, makes the first search fail
// with the content tier's error and every later one repeat it — the
// pages past the file's end fault under the validation pass, which turns
// the fault into its verdict — where the process would otherwise die of
// SIGBUS.
func TestTruncatedMappingFailsItsFirstQuery(t *testing.T) {
	data := dataset.Synthetic(20000, 128, 0.3, 7).Vectors
	ix := buildSmall(t, data, Options{NumPartitions: 4, Seed: 1})
	path := filepath.Join(t.TempDir(), "cut.gph")
	if err := os.WriteFile(path, savedBytes(t, ix), 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, err := engine.Open(path, engine.OpenMMap)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if err := os.Truncate(path, int64(os.Getpagesize())); err != nil {
		t.Fatal(err)
	}
	_, first := mapped.Search(data[5], 4)
	_, second := mapped.Search(data[5], 4)
	if first == nil || !strings.Contains(first.Error(), "the file is shorter than its mapping") || second == nil || second.Error() != first.Error() {
		t.Fatalf("the first search says %v and the second %v, want the same fault twice", first, second)
	}
	t.Log(first)
}
