package integration

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gph/internal/binio"
	"gph/internal/core"
	"gph/internal/dataset"
	"gph/internal/engine"
	"gph/internal/shard"
	"gph/internal/wal"
)

// TestPersistedMagicsDistinct saves one of every artefact the
// repository persists — each registered engine, a shard container, a
// write-ahead log, a dataset — and checks that their leading
// engine.MagicLen bytes are pairwise distinct: LoadAny dispatches on
// them, and a container or log opened as the wrong thing must fail at
// its first eight bytes. (engine.Register already panics at process
// start on two engines claiming one tag; this covers the formats that
// do not register.)
func TestPersistedMagicsDistinct(t *testing.T) {
	ds := dataset.UQVideoLike(200, 3)
	artefacts := map[string][]byte{}

	for _, name := range engine.Names() {
		e, err := engine.Build(name, ds.Vectors, engine.BuildOptions{NumPartitions: 4, MaxTau: 8, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := e.Save(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		artefacts["engine "+name] = buf.Bytes()
	}

	sharded, err := shard.BuildEngine("linscan", ds.Vectors, 2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var container bytes.Buffer
	if err := sharded.Save(&container); err != nil {
		t.Fatal(err)
	}
	artefacts["shard container"] = container.Bytes()

	var data bytes.Buffer
	if err := ds.Save(&data); err != nil {
		t.Fatal(err)
	}
	artefacts["dataset"] = data.Bytes()

	walPath := filepath.Join(t.TempDir(), "log.wal")
	log, _, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if artefacts["wal"], err = os.ReadFile(walPath); err != nil {
		t.Fatal(err)
	}

	owner := map[string]string{}
	for name, raw := range artefacts {
		if len(raw) < engine.MagicLen {
			t.Fatalf("%s is %d bytes, shorter than a magic", name, len(raw))
		}
		magic := string(raw[:engine.MagicLen])
		if prev, dup := owner[magic]; dup {
			t.Fatalf("%s and %s both lead with %q", prev, name, magic)
		}
		owner[magic] = name
	}
}

// TestSupersededMagicsRejected: one on-disk generation is read. A file
// leading with the tag of an earlier index or container format is
// refused by every way of opening a file — an error, never a panic, and
// nothing is built to read it.
func TestSupersededMagicsRejected(t *testing.T) {
	arbitrary := bytes.Repeat([]byte{0x00, 0x01, 0xFE, 0xFF, 0x30, 0x80, 0x7F, 0x08}, 64)
	var superseded []string
	for gen := 1; gen <= 12; gen++ { // the index is at generation 13
		superseded = append(superseded, fmt.Sprintf("GPHIX%02d\n", gen))
	}
	for _, baseline := range []string{"GPHMH", "GPHHM", "GPHPA", "GPHLH"} { // the baselines at 2
		superseded = append(superseded, baseline+"01\n")
	}
	for gen := 1; gen <= 4; gen++ { // the shard container at 5
		superseded = append(superseded, fmt.Sprintf("GPHSH%02d\n", gen))
	}
	for _, magic := range superseded {
		raw := append([]byte(magic), arbitrary...)
		path := filepath.Join(t.TempDir(), "old.gph")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := core.Load(bytes.NewReader(raw)); err == nil {
			t.Errorf("%q: core.Load accepted it", magic)
		}
		if _, err := core.Load(binio.NewSource(raw)); err == nil {
			t.Errorf("%q: core.Load accepted it in borrow mode", magic)
		}
		if _, err := engine.LoadAny(bytes.NewReader(raw)); err == nil {
			t.Errorf("%q: engine.LoadAny accepted it", magic)
		}
		for _, mode := range []engine.OpenMode{engine.OpenHeap, engine.OpenMMap} {
			if e, err := engine.Open(path, mode); err == nil {
				e.Close()
				t.Errorf("%q: engine.Open(%v) accepted it", magic, mode)
			}
			if s, err := shard.OpenFile(path, mode); err == nil {
				s.Close()
				t.Errorf("%q: shard.OpenFile(%v) accepted it", magic, mode)
			}
		}
	}
}
