package shard

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gph/internal/bitvec"
	"gph/internal/dataset"
	"gph/internal/wal"
)

// TestSearchConsistentDuringCompact is the snapshot lifecycle's
// headline guarantee under -race: with a fixed live set, searches
// running concurrently with a full Compact return exactly the ground
// truth at every instant — before, during and after the swap — and
// never block on the rebuild.
func TestSearchConsistentDuringCompact(t *testing.T) {
	ds := dataset.SIFTLike(480, 17)
	s, err := Build(ds.Vectors[:360], 2, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	live := map[int32]bitvec.Vector{}
	for id, v := range ds.Vectors[:360] {
		live[int32(id)] = v
	}
	// Dirty every shard: extra inserts plus a few deletes, then fix
	// the live set for the duration of the test.
	for _, v := range ds.Vectors[360:] {
		id, err := s.Insert(v)
		if err != nil {
			t.Fatal(err)
		}
		live[id] = v
	}
	for id := int32(0); id < 40; id++ {
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(live, id)
	}
	queries := dataset.PerturbQueries(ds, 4, 3, 23)
	truth := make([][]int32, len(queries))
	for i, q := range queries {
		truth[i] = bruteRange(live, q, 6)
	}

	var stop atomic.Bool
	var searches atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for i, q := range queries {
					got, err := s.Search(q, 6)
					if err != nil {
						t.Error(err)
						return
					}
					if !equalIDs(truth[i], got) {
						t.Errorf("query %d diverged during compact: got %v, want %v", i, got, truth[i])
						return
					}
					searches.Add(1)
				}
			}
		}()
	}
	// Two compactions back to back: the first folds the buffers, the
	// second must be a no-op swap — searches keep agreeing throughout.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	wg.Wait()
	if searches.Load() == 0 {
		t.Fatal("no searches completed during compaction")
	}
	for _, st := range s.ShardStats() {
		if st.Delta != 0 || st.Tombstones != 0 {
			t.Fatalf("compact left buffers: %+v", st)
		}
	}
}

// TestCompactAsyncStatus: the async handle starts one background run,
// deduplicates concurrent triggers, and reports completion through
// CompactionStatus.
func TestCompactAsyncStatus(t *testing.T) {
	ds := dataset.SIFTLike(300, 5)
	s, err := Build(ds.Vectors[:200], 2, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, v := range ds.Vectors[200:] {
		if _, err := s.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	if !s.CompactAsync() {
		t.Fatal("CompactAsync did not start")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := s.CompactionStatus()
		if !st.Running && st.Runs >= 1 {
			if st.LastError != "" {
				t.Fatalf("compaction failed: %s", st.LastError)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compaction did not finish: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, st := range s.ShardStats() {
		if st.Delta != 0 {
			t.Fatalf("async compact left delta: %+v", st)
		}
	}
}

// TestAutoCompaction: once a shard's buffer crosses the configured
// threshold, a background compaction folds it without any explicit
// Compact call.
func TestAutoCompaction(t *testing.T) {
	opts := testOpts()
	opts.AutoCompactDelta = 8
	s, err := New(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ds := dataset.SIFTLike(64, 31)
	for _, v := range ds.Vectors {
		if _, err := s.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		pending := 0
		for _, st := range s.ShardStats() {
			pending += st.Delta
		}
		status := s.CompactionStatus()
		if pending < int(opts.AutoCompactDelta) && !status.Running {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-compaction never folded buffers: pending %d, status %+v", pending, status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s.CompactionStatus().Runs == 0 {
		t.Fatal("no automatic compaction ran")
	}
	// Everything stays searchable afterwards.
	got, err := s.Search(ds.Vectors[0], 0)
	if err != nil || len(got) == 0 {
		t.Fatalf("post-auto-compact search: %v %v", got, err)
	}
}

// TestWALTornTailReplay: a WAL cut mid-record (crash mid-append)
// recovers every record before the tear and keeps accepting writes.
func TestWALTornTailReplay(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "torn.wal")
	ds := dataset.SIFTLike(40, 3)

	s, err := New(1, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	for _, v := range ds.Vectors {
		if _, err := s.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Tear the last record: drop 5 bytes from the file tail.
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := New(1, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	replayed, err := s2.OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != len(ds.Vectors)-1 {
		t.Fatalf("replayed %d records after tear, want %d", replayed, len(ds.Vectors)-1)
	}
	if s2.Len() != len(ds.Vectors)-1 {
		t.Fatalf("Len %d after torn replay", s2.Len())
	}
	// The log still accepts appends after truncating the tear.
	if _, err := s2.Insert(ds.Vectors[0].Clone()); err != nil {
		t.Fatal(err)
	}
}

// TestOpenWALTwiceRejected: a second attach must fail and leave the
// first working.
func TestOpenWALTwiceRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := New(1, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.OpenWAL(filepath.Join(dir, "a.wal")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenWAL(filepath.Join(dir, "b.wal")); err == nil {
		t.Fatal("second OpenWAL accepted")
	}
	if _, err := s.Insert(bitvec.New(64)); err != nil {
		t.Fatalf("insert after rejected re-attach: %v", err)
	}
}

// TestInsertAfterCloseFails: once Close shut the WAL, a durable
// index must reject updates (rolled back, not silently in-memory).
func TestInsertAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	s, err := New(1, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenWAL(filepath.Join(dir, "c.wal")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(bitvec.New(64)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(bitvec.New(64)); err == nil {
		t.Fatal("insert after Close acknowledged without durability")
	}
	if s.Len() != 1 {
		t.Fatalf("failed insert leaked into the live set: Len %d", s.Len())
	}
	// Searches keep working on the closed index.
	if _, err := s.Search(bitvec.New(64), 0); err != nil {
		t.Fatal(err)
	}
}

// TestWALReplayMismatchRejected: replaying a log against the wrong
// base state (a delete of an id that does not exist) fails loudly
// instead of silently diverging.
func TestWALReplayMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "bad.wal")
	l, _, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(wal.Record{Op: wal.OpDelete, ID: 7}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	s, err := New(1, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.OpenWAL(walPath); !errors.Is(err, ErrNotFound) {
		t.Fatalf("mismatched replay error: %v", err)
	}
}
