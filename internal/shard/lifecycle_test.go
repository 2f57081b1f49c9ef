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
	"gph/internal/engine"
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

// TestWALCrashReplay is the durability acceptance test: updates
// acknowledged after Build but never Saved survive a simulated
// kill -9 (the index is simply abandoned — every acknowledged record
// is already fsynced) and replay onto a fresh open.
func TestWALCrashReplay(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "index.wal")
	ds := dataset.SIFTLike(260, 41)

	s, err := Build(ds.Vectors[:200], 2, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.OpenWAL(walPath); err != nil || n != 0 {
		t.Fatalf("fresh wal replayed %d records: %v", n, err)
	}
	live := map[int32]bitvec.Vector{}
	for id, v := range ds.Vectors[:200] {
		live[int32(id)] = v
	}
	for _, v := range ds.Vectors[200:] {
		id, err := s.Insert(v)
		if err != nil {
			t.Fatal(err)
		}
		live[id] = v
	}
	for id := int32(0); id < 30; id += 3 {
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(live, id)
	}
	// Crash: no Save, no Close. The "restarted process" rebuilds the
	// pre-update state (as a server would from its -data corpus) and
	// replays the log on top.
	s2, err := Build(ds.Vectors[:200], 2, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	replayed, err := s2.OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := 60 + 10; replayed != want {
		t.Fatalf("replayed %d records, want %d", replayed, want)
	}
	if s2.Len() != len(live) {
		t.Fatalf("recovered Len %d, want %d", s2.Len(), len(live))
	}
	for _, q := range dataset.PerturbQueries(ds, 5, 3, 7) {
		want := bruteRange(live, q, 6)
		got, err := s2.Search(q, 6)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(want, got) {
			t.Fatalf("recovered search diverges: got %v, want %v", got, want)
		}
	}
	// Ids never rewind after replay.
	id, err := s2.Insert(ds.Vectors[0].Clone())
	if err != nil {
		t.Fatal(err)
	}
	if int(id) != 260 {
		t.Fatalf("post-replay id %d, want 260", id)
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

// TestSaveFileCheckpoint: SaveFile atomically replaces the snapshot
// and truncates the WAL; snapshot + empty log reopen to the same
// state, and an update after the checkpoint replays on top of it.
func TestSaveFileCheckpoint(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "index.gph")
	walPath := filepath.Join(dir, "index.wal")
	ds := dataset.SIFTLike(150, 13)

	s, err := Build(ds.Vectors[:100], 2, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	for _, v := range ds.Vectors[100:140] {
		if _, err := s.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	preWAL := s.WALSizeBytes()
	if err := s.SaveFile(snapPath); err != nil {
		t.Fatal(err)
	}
	if got := s.WALSizeBytes(); got >= preWAL || got == 0 {
		t.Fatalf("wal size %d after checkpoint, had %d", got, preWAL)
	}
	// One more acknowledged update after the checkpoint.
	lastID, err := s.Insert(ds.Vectors[140])
	if err != nil {
		t.Fatal(err)
	}
	wantLen := s.Len()
	s.Close()

	f, err := os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	replayed, err := s2.OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 1 {
		t.Fatalf("replayed %d records after checkpoint, want 1", replayed)
	}
	if s2.Len() != wantLen {
		t.Fatalf("reopened Len %d, want %d", s2.Len(), wantLen)
	}
	if _, ok := s2.Vector(lastID); !ok {
		t.Fatalf("post-checkpoint insert %d missing after reopen", lastID)
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

// TestCheckpointCrashBeforeTruncate simulates the worst checkpoint
// crash window: the snapshot rename became durable but the WAL
// truncation did not, so the new snapshot reopens with the stale
// full log. Replay must skip every already-reflected record (they
// all predate the snapshot) and recover the exact state.
func TestCheckpointCrashBeforeTruncate(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "index.gph")
	walPath := filepath.Join(dir, "index.wal")
	ds := dataset.SIFTLike(120, 19)

	s, err := Build(ds.Vectors[:80], 2, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	for _, v := range ds.Vectors[80:] {
		if _, err := s.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete(80); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(3); err != nil { // a built id too
		t.Fatal(err)
	}
	wantLen := s.Len()
	// "Crash mid-checkpoint": write the snapshot with Save (which
	// never touches the WAL) — the state where the rename persisted
	// but the truncation did not.
	f, err := os.Create(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	f, err = os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	applied, err := s2.OpenWAL(walPath)
	if err != nil {
		t.Fatalf("stale-log replay rejected: %v", err)
	}
	if applied != 0 {
		t.Fatalf("stale log applied %d records, want 0 (all predate the snapshot)", applied)
	}
	if s2.Len() != wantLen {
		t.Fatalf("recovered Len %d, want %d", s2.Len(), wantLen)
	}
	if _, ok := s2.Vector(80); ok {
		t.Fatal("stale delete record resurrected id 80")
	}
	// The index stays fully operational: fresh updates log and ids
	// continue past the replayed maximum.
	id, err := s2.Insert(ds.Vectors[0].Clone())
	if err != nil {
		t.Fatal(err)
	}
	if int(id) != 120 {
		t.Fatalf("post-recovery id %d, want 120", id)
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

// TestBuiltIDsAscendAfterEveryTransition: state.pos is a binary search
// over builtIDs, so every way a state comes to be — build, compaction
// over deletes and inserts, a heap and a mapped reopen — leaves them
// strictly ascending and every live id resolving to its own vector. The
// two transitions that hand compaction an id older than its neighbours
// are a delete rolled back on a WAL failure: of a buffered vector, put
// back among newer inserts, and of a built one a compaction dropped
// meanwhile, put back below built ids (replayed here as the rollback
// writes it; the race itself is not staged).
func TestBuiltIDsAscendAfterEveryTransition(t *testing.T) {
	ds := dataset.UQVideoLike(420, 23)
	s, err := BuildEngine("mih", ds.Vectors[:300], 3, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.OpenWAL(filepath.Join(t.TempDir(), "index.wal")); err != nil {
		t.Fatal(err)
	}
	live := map[int32]bitvec.Vector{}
	for id, v := range ds.Vectors[:300] {
		live[int32(id)] = v
	}
	check := func(ix *Index, when string) {
		t.Helper()
		for i := range ix.shards {
			ids := ix.shards[i].Load().builtIDs
			for j := 1; j < len(ids); j++ {
				if ids[j] <= ids[j-1] {
					t.Fatalf("%s: shard %d holds id %d after %d", when, i, ids[j], ids[j-1])
				}
			}
		}
		if ix.Len() != len(live) {
			t.Fatalf("%s: %d live vectors, want %d", when, ix.Len(), len(live))
		}
		for id, v := range live {
			if got, ok := ix.Vector(id); !ok || !got.Equal(v) {
				t.Fatalf("%s: id %d resolves to another vector (found=%v)", when, id, ok)
			}
		}
	}
	remove := func(ids ...int32) {
		t.Helper()
		for _, id := range ids {
			if err := s.Delete(id); err != nil {
				t.Fatal(err)
			}
			delete(live, id)
		}
	}
	check(s, "build")
	for round := int32(0); round < 3; round++ {
		for _, v := range ds.Vectors[300+40*round : 340+40*round] {
			id, err := s.Insert(v)
			if err != nil {
				t.Fatal(err)
			}
			live[id] = v
		}
		remove(7+round, 150+round, 299-round, 305+40*round, 338+40*round) // built, folded and buffered ids
		if round == 2 {
			// The log fails from here on. A buffered vector's delete is
			// rolled back behind newer inserts; a built vector round 0's
			// compaction dropped comes back the way its rollback would
			// have put it.
			if err := s.wal.Close(); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete(381); err == nil {
				t.Fatal("a delete was acknowledged over a closed log")
			}
			s.mu.Lock()
			si := s.route(ds.Vectors[7])
			s.shards[si].Store(s.shards[si].Load().withInsert(deltaEntry{id: 7, vec: ds.Vectors[7]}))
			s.owner[7] = si
			s.live.Add(1)
			s.mu.Unlock()
			live[7] = ds.Vectors[7]
			for i := range s.shards {
				delta := s.shards[i].Load().delta
				for j := 1; j < len(delta); j++ {
					if delta[j].id <= delta[j-1].id {
						t.Fatalf("shard %d buffers id %d after %d", i, delta[j].id, delta[j-1].id)
					}
				}
			}
		}
		check(s, "updates")
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		check(s, "compaction")
	}
	path := filepath.Join(t.TempDir(), "container.idx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []engine.OpenMode{engine.OpenHeap, engine.OpenMMap} {
		opened, err := OpenFile(path, mode)
		if err != nil {
			t.Fatal(err)
		}
		check(opened, "reopen")
		opened.Close()
	}
}
