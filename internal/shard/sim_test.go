package shard

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"gph/internal/bitvec"
	"gph/internal/core"
	"gph/internal/cpu"
	"gph/internal/dataset"
	"gph/internal/engine"
	"gph/internal/wal"
)

// FuzzShardLifecycle is a seeded, deterministic simulation of the shard
// lifecycle. Its first two bytes choose the engine, the shard count, the
// starting collection and how the index is first opened; each byte pair
// after them is one step: insert, delete of a built, a buffered or a
// missing id, Search at several τ, SearchKNN, SearchBatch, a stream
// broken off early, Compact, a SaveFile checkpoint reopened by a heap
// Load or a mapping, a crash reopened from the checkpoint plus WAL
// replay, and an update whose WAL fsync fails. Every search runs under
// a route, scan kernel and projector drawn for it (cpu.Force) from a
// generator seeded by the first two bytes. Auto-compaction is off, so a
// run is a function of its bytes. After every step the index is held to a model of the live set
// and the id counter:
//   - every answer, under every drawn setting, equals a linear scan of
//     the live set;
//   - Len, Vector of every live id, and built and buffered ids ascending
//     in every shard;
//   - the epoch (index-wide and summed over the shards) rose on every
//     step that published a snapshot, and on no other, and the
//     index-wide epoch rose by at least the number of shards whose
//     published state changed (gph-server's result cache keys on it);
//   - a mapped index holds no mapping reference once quiescent;
//   - the goroutine count is back at its baseline, so a stream whose
//     iter.Pull2 stop never ran fails the step that broke it off;
//   - no WAL fsync runs under the writer lock (checkedLog);
//   - every shard snapshot the run has met reads as it did when first
//     met (built engine, built ids, tombstones, buffer and epoch), at every
//     later step until the index is reopened: a published state is
//     never written, by its successor's constructor or anyone else.
//
// The seeds run under go test; go test -fuzz FuzzShardLifecycle searches
// further and shrinks a failing run to its shortest program. Run as
// seeds, it logs which route each engine's own verdict took on the range
// searches, by the setting in force, and fails unless the index answered
// at least 30 % of them for each engine.
func FuzzShardLifecycle(f *testing.F) {
	const seeds = 32
	for seed := int64(0); seed < seeds; seed++ {
		f.Add(lifecycleSeed(seed))
	}
	routeTally, tallied = map[string]map[cpu.Setting]routeCount{}, 0
	f.Fuzz(runLifecycle)
	if tallied == 0 {
		return // fuzzing: the workers ran the programs
	}
	for _, name := range slices.Sorted(maps.Keys(routeTally)) {
		share := logRoutes(f, name, routeTally[name])
		if tallied == seeds && share < 0.3 {
			f.Errorf("%s: the index answered %.0f %% of the seeds' searches, want at least 30 %%", name, 100*share)
		}
	}
}

// routeCount is how many shard-engine range searches the runs made under
// one setting, and how many of them the engine answered by the scan.
type routeCount struct{ searches, scanned int }

// routeTally counts, by engine and setting, the searches of the runs
// since FuzzShardLifecycle began; tallied is how many runs those were.
var (
	routeTally = map[string]map[cpu.Setting]routeCount{}
	tallied    int
)

// logRoutes logs one engine's tally by route, scan kernel and projector
// in force, as the index's share of each, and returns the index's share
// of all its searches.
func logRoutes(t testing.TB, name string, counts map[cpu.Setting]routeCount) float64 {
	var routes, kernels, projectors [3]routeCount
	var all routeCount
	for set, c := range counts {
		for _, sum := range []*routeCount{&routes[set.Route], &kernels[set.Kernel], &projectors[set.Projector], &all} {
			sum.searches += c.searches
			sum.scanned += c.scanned
		}
	}
	line := func(sums []routeCount, name func(int) fmt.Stringer) string {
		var parts []string
		for i, c := range sums {
			parts = append(parts, fmt.Sprintf("%v %d/%d", name(i), c.searches-c.scanned, c.searches))
		}
		return strings.Join(parts, ", ")
	}
	share := float64(all.searches-all.scanned) / float64(max(all.searches, 1))
	t.Logf("%s: the index answered %d of %d searches (%.0f %%); by route forced: %s; by scan kernel: %s; by projector: %s",
		name, all.searches-all.scanned, all.searches, 100*share,
		line(routes[:], func(i int) fmt.Stringer { return cpu.Route(i) }),
		line(kernels[:], func(i int) fmt.Stringer { return cpu.Kernel(i) }),
		line(projectors[:2], func(i int) fmt.Stringer { return cpu.Projector(i) }))
	return share
}

// lifecycleSeed is a 200-step program that opens with every operation
// kind once, in a seeded order, and continues at random.
func lifecycleSeed(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	prog := []byte{byte(seed), byte(rng.Intn(256))}
	for _, op := range rng.Perm(lifecycleOps) {
		prog = append(prog, byte(op), byte(rng.Intn(256)))
	}
	for len(prog) < 2+2*200 {
		prog = append(prog, byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	return prog
}

const (
	lifecycleOps   = 16
	lifecycleSteps = 400 // a longer fuzz input is cut here
)

// Every run draws its vectors and queries from one fixed pool: 800
// vectors a few bits from one of 80 centres, so that a query's answer is
// a cluster at small τ and several at large τ.
var (
	lifecycleCentres = dataset.SIFTLike(80, 1)
	lifecyclePool    = dataset.PerturbQueries(lifecycleCentres, 800, 5, 1)
	lifecycleQueries = append(dataset.PerturbQueries(lifecycleCentres, 4, 3, 5),
		lifecyclePool[5], lifecyclePool[60], lifecyclePool[130], lifecyclePool[300])
	errInjected = errors.New("injected fsync failure")
)

// checkedLog is the WAL of a simulated index. It reports an fsync that
// runs under the writer lock (group commit syncs outside it; the
// checkpoint's Reset syncs inside it on purpose and passes through), and
// fails the next fsync on demand, compacting first if asked so that the
// rollback meets a swapped snapshot.
type checkedLog struct {
	*wal.Log
	s             *Index
	t             testing.TB
	fail, compact bool
}

func (l *checkedLog) Sync(target int64) error {
	if !l.s.mu.TryLock() {
		l.t.Error("the WAL is fsynced under the writer lock")
		return l.Log.Sync(target)
	}
	l.s.mu.Unlock()
	if !l.fail {
		return l.Log.Sync(target)
	}
	l.fail = false
	if l.compact {
		if err := l.s.Compact(); err != nil {
			l.t.Error(err)
		}
	}
	return errInjected
}

// lifecycle is one simulated run: the index under test and its model.
type lifecycle struct {
	t          *testing.T
	engine     string
	shards     int
	base       int // the index starts over lifecyclePool[:base]
	snap, wal  string
	s          *Index
	log        *checkedLog
	live       map[int32]bitvec.Vector
	nextID     int32
	fresh      int  // next unused pool vector
	unsaved    int  // acknowledged updates since the last checkpoint
	rebuild    bool // no checkpoint since the start: a crash may rebuild from the base
	rng        *rand.Rand
	setting    cpu.Setting // in force for the search under way
	goroutines int         // baseline with no index open
	emptyWAL   int64
	step       string
	published  map[*state]statePrint // every state met since the last reopen
	states     []*state              // each shard's state after the last step
	epoch      uint64                // the index-wide epoch after the last step
}

// statePrint is what a published state held when a step first met it.
type statePrint struct {
	built engine.Engine
	sum   uint64
}

// printState takes sh's fingerprint: its built engine's identity and a
// hash of its built ids, tombstones (in any order), buffer and epoch.
func printState(sh *state) statePrint {
	mix := func(h, x uint64) uint64 { return (h ^ x) * 0x100000001b3 }
	h, dead := mix(sh.epoch, uint64(len(sh.dead))), uint64(0)
	for _, id := range sh.builtIDs {
		h = mix(h, uint64(id))
	}
	for id := range sh.dead {
		dead += mix(0xcbf29ce484222325, uint64(id))
	}
	h = mix(h, dead)
	for _, e := range sh.delta {
		h = mix(h, uint64(e.id))
		for _, w := range e.vec.Words() {
			h = mix(h, w)
		}
	}
	return statePrint{sh.built, h}
}

func runLifecycle(t *testing.T, prog []byte) {
	simulate(t, prog)
	tallied++
}

// TestPublishedSnapshotsImmutable holds every shard state that a run of
// publishing steps meets to its first fingerprint until the run ends:
// inserts, deletes of built and buffered ids, compactions and both
// rollbacks of an update whose WAL fsync fails, with no reopen to
// forget a state. It also checks that the fingerprint sees a write to
// each part of a state.
func TestPublishedSnapshotsImmutable(t *testing.T) {
	st := &state{builtIDs: []int32{1, 3}, dead: map[int32]bool{}, delta: []deltaEntry{{5, lifecyclePool[0]}}, epoch: 2}
	for _, write := range []func(){
		func() { st.builtIDs[1] = 4 },
		func() { st.dead[3] = true },
		func() { st.delta = append(st.delta, deltaEntry{6, lifecyclePool[1]}) },
		func() { st.delta[0].vec = lifecyclePool[2] },
		func() { st.epoch++ },
	} {
		before := printState(st)
		if write(); printState(st) == before {
			t.Fatalf("a write to %+v leaves its fingerprint as it was", st)
		}
	}

	steps := []byte{
		0, 1, 0, 2, // insert twice
		4, 0, // delete a built id
		4, 1, // delete a buffered id
		15, 1, // a refused insert, compacted under its fsync
		15, 6, // a refused delete of a built id
		11, 0, // compact
	}
	for hdr := byte(0); hdr < 6; hdr++ { // gph and mih over 1–3 shards
		t.Run(fmt.Sprintf("%d", hdr), func(t *testing.T) {
			prog := []byte{hdr, 2} // 96 vectors
			for range 8 {
				prog = append(prog, steps...)
			}
			m := simulate(t, prog)
			if inserts := 8 * 2; len(m.published) < inserts {
				t.Fatalf("the run met %d shard states, fewer than its %d inserts published", len(m.published), inserts)
			}
		})
	}
}

// simulate runs prog as FuzzShardLifecycle does and returns the run.
func simulate(t *testing.T, prog []byte) *lifecycle {
	var hdr [2]byte
	copy(hdr[:], prog)
	dir := t.TempDir()
	m := &lifecycle{
		t:          t,
		engine:     []string{core.EngineName, "mih"}[hdr[0]%2],
		shards:     1 + int(hdr[0]/2)%3,
		base:       []int{0, 24, 96, 160}[hdr[1]%4],
		snap:       filepath.Join(dir, "index.gph"),
		wal:        filepath.Join(dir, "index.wal"),
		live:       map[int32]bitvec.Vector{},
		rebuild:    true,
		rng:        rand.New(rand.NewSource(int64(hdr[0])<<8 | int64(hdr[1]))),
		goroutines: runtime.NumGoroutine(),
	}
	for id, v := range lifecyclePool[:m.base] {
		m.live[int32(id)] = v
	}
	m.nextID, m.fresh = int32(m.base), m.base
	t.Cleanup(func() {
		if m.s != nil {
			m.s.Close()
		}
	})
	m.step = "open"
	m.attach(m.reopen(3))
	m.checkpoint(hdr[0] / 6)
	m.emptyWAL = m.s.WALSizeBytes()
	for i := 2; i+1 < len(prog) && i < 2+2*lifecycleSteps; i += 2 {
		op, arg := prog[i]%lifecycleOps, prog[i+1]
		m.step = fmt.Sprintf("step %d (op %d, arg %d)", i/2, op, arg)
		s, epoch, sum := m.s, m.s.Epoch(), m.shardEpochs()
		switch published := m.do(op, arg); {
		case m.s != s: // reopened: a new index, a new epoch count
		case published && (s.Epoch() <= epoch || m.shardEpochs() <= sum):
			m.fatalf("a snapshot was published and the epoch did not rise (index %d → %d, shards %d → %d)", epoch, s.Epoch(), sum, m.shardEpochs())
		case !published && s.Epoch() != epoch:
			m.fatalf("no snapshot was published and the epoch moved %d → %d", epoch, s.Epoch())
		}
		m.check(i / 2)
	}
	m.step = "close"
	m.closeIndex()
	m.checkGoroutines(m.goroutines)
	return m
}

func (m *lifecycle) fatalf(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("%s: "+format, append([]any{m.step}, args...)...)
}

// do runs one operation and reports whether it published a snapshot.
func (m *lifecycle) do(op, arg byte) bool {
	s := m.s
	q := lifecycleQueries[int(arg)%len(lifecycleQueries)]
	tau := 8 + int(arg%48)
	switch op {
	case 0, 1, 2, 3:
		m.insert(arg)
		return true
	case 4, 5:
		id, live := m.pick(arg)
		if err := s.Delete(id); !live && !errors.Is(err, ErrNotFound) || live && err != nil {
			m.fatalf("delete of id %d (live %v): %v", id, live, err)
		}
		delete(m.live, id)
		m.unsaved += boolToInt(live)
		return live
	case 6, 7, 14: // 14 was a cache switch: a search keeps older inputs running
		for _, tau := range []int{0, int(arg % 8), tau} {
			m.search("search", q, tau)
		}
	case 8:
		defer m.draw()()
		k := []int{1, 3, 10, 1 << 20}[arg%4]
		if got, err := s.SearchKNN(q, k); err != nil || !slices.Equal(got, bruteKNN(m.live, q, k)) {
			m.fatalf("kNN k=%d (%+v): %v %v, the scan finds %v", k, m.setting, got, err, bruteKNN(m.live, q, k))
		}
	case 9:
		defer m.draw()()
		qs := lifecycleQueries[arg%4 : 4+arg%5]
		got, err := s.SearchBatch(qs, tau, int(arg%3))
		for i, q := range qs {
			m.expect("batch", q, tau, got[i], err)
			m.tally(q, tau)
		}
	case 10:
		defer m.draw()()
		m.stream(q, tau, int(arg%6))
	case 11:
		dirty := false
		for i := range s.shards {
			dirty = dirty || s.shards[i].Load().dirty()
		}
		if err := s.Compact(); err != nil {
			m.fatalf("compact: %v", err)
		}
		for i, st := range s.ShardStats() {
			if st.Delta != 0 || st.Tombstones != 0 {
				m.fatalf("compaction left shard %d with %+v", i, st)
			}
		}
		return dirty
	case 12:
		m.checkpoint(arg)
	case 13:
		// A crash. Every acknowledged update is in the log already and
		// Close writes nothing, so closing loses what a crash would. By
		// arg the crash lands inside a checkpoint, after its rename and
		// before its log truncation: the new snapshot reopens with a log
		// whose every record it reflects.
		if arg&4 != 0 {
			tmp := m.snap + ".tmp"
			f, err := os.Create(tmp)
			if err == nil {
				err = errors.Join(s.Save(f), f.Close(), os.Rename(tmp, m.snap))
			}
			if err != nil {
				m.fatalf("snapshot: %v", err)
			}
			m.unsaved, m.rebuild = 0, false
		}
		m.closeIndex()
		m.attach(m.reopen(arg))
	case 15:
		m.failedUpdate(arg)
		return true
	}
	return false
}

// insert adds a fresh pool vector, or every fourth time one already
// used, live or deleted.
func (m *lifecycle) insert(arg byte) {
	v := lifecyclePool[m.fresh%len(lifecyclePool)]
	if arg%4 == 0 && m.fresh > 0 {
		v = lifecyclePool[int(arg)%m.fresh%len(lifecyclePool)]
	} else {
		m.fresh++
	}
	if id, err := m.s.Insert(v); err != nil || id != m.nextID {
		m.fatalf("insert got id %d (%v), want %d", id, err, m.nextID)
	}
	m.live[m.nextID] = v
	m.nextID++
	m.unsaved++
}

// pick chooses a delete target by arg: a live built id, a live buffered
// id, or (when arg asks for one, or there is none of the kind asked
// for) an id that is not live — deleted, or never assigned.
func (m *lifecycle) pick(arg byte) (id int32, live bool) {
	var ids []int32
	for i := range m.s.shards {
		sh := m.s.shards[i].Load()
		for _, id := range sh.builtIDs {
			if arg%3 == 0 && !sh.dead[id] {
				ids = append(ids, id)
			}
		}
		for _, e := range sh.delta {
			if arg%3 == 1 {
				ids = append(ids, e.id)
			}
		}
	}
	if len(ids) > 0 {
		return ids[int(arg/3)%len(ids)], true
	}
	for id := int32(arg/3) % max(m.nextID, 1); id < m.nextID; id++ {
		if _, ok := m.live[id]; !ok {
			return id, false
		}
	}
	return m.nextID + int32(arg%5), false
}

// failedUpdate makes the next WAL fsync fail under an insert or a
// delete, by arg after a compaction has swapped the snapshot under it.
// The update must be refused and leave the model as it was, but for the
// id a refused insert burns. The refused record is in the log, so a
// checkpoint follows to truncate it.
func (m *lifecycle) failedUpdate(arg byte) {
	m.log.fail, m.log.compact = true, arg&1 != 0
	var err error
	if id, live := m.pick(arg >> 1); live && arg&2 != 0 {
		err = m.s.Delete(id)
	} else {
		_, err = m.s.Insert(lifecyclePool[int(arg)%len(lifecyclePool)])
		m.nextID++
	}
	if !errors.Is(err, errInjected) || m.log.fail {
		m.fatalf("an update whose fsync failed returned %v", err)
	}
	m.checkpoint(0)
}

var drawnRoutes = []cpu.Route{
	cpu.RouteIndex, cpu.RouteIndex, cpu.RouteIndex, cpu.RouteIndex, cpu.RouteIndex,
	cpu.RouteAdaptive, cpu.RouteAdaptive, cpu.RouteScan,
}

// draw puts in force a setting drawn for the next search: the index
// route five times in eight, the engines' own choice twice and the scan
// once, and any scan kernel and projector. The caller restores it.
func (m *lifecycle) draw() (restore func()) {
	m.setting = cpu.Setting{
		Route:     drawnRoutes[m.rng.Intn(len(drawnRoutes))],
		Kernel:    cpu.Kernel(m.rng.Intn(3)),
		Projector: cpu.Projector(m.rng.Intn(2)),
	}
	return cpu.Force(m.setting)
}

// search runs one range search under a drawn setting, holds it to the
// scan and tallies its route.
func (m *lifecycle) search(what string, q bitvec.Vector, tau int) {
	defer m.draw()()
	got, err := m.s.Search(q, tau)
	m.expect(what, q, tau, got, err)
	m.tally(q, tau)
}

// tally counts the route each shard's built engine takes for (q, tau)
// under the setting in force, by the engine's own Scanned verdict.
func (m *lifecycle) tally(q bitvec.Vector, tau int) {
	counts := routeTally[m.engine]
	if counts == nil {
		counts = map[cpu.Setting]routeCount{}
		routeTally[m.engine] = counts
	}
	c := counts[m.setting]
	for i := range m.s.shards {
		sh := m.s.shards[i].Load()
		if sh.built == nil {
			continue
		}
		_, st, err := sh.built.SearchStats(q, tau)
		if err != nil {
			m.fatalf("shard %d tau=%d: %v", i, tau, err)
		}
		c.searches++
		if st.Scanned {
			c.scanned++
		}
	}
	counts[m.setting] = c
}

// expect fails the run unless a range answer is the scan's.
func (m *lifecycle) expect(what string, q bitvec.Vector, tau int, got []int32, err error) {
	m.t.Helper()
	if want := bruteRange(m.live, q, tau); err != nil || !slices.Equal(got, want) {
		m.fatalf("%s tau=%d (%+v): %v %v, the scan finds %v", what, tau, m.setting, got, err, want)
	}
}

// stream drains SearchIter, or breaks it off after limit results.
func (m *lifecycle) stream(q bitvec.Vector, tau, limit int) {
	var got []core.Neighbor
	for nb, err := range m.s.SearchIter(q, tau) {
		if err != nil {
			m.fatalf("stream: %v", err)
		}
		if got = append(got, nb); len(got) == limit {
			break
		}
	}
	var want []core.Neighbor
	for _, id := range bruteRange(m.live, q, tau) {
		want = append(want, core.Neighbor{ID: id, Distance: q.Hamming(m.live[id])})
	}
	if limit > 0 && len(want) > limit {
		want = want[:limit]
	}
	if !slices.Equal(got, want) {
		m.fatalf("stream tau=%d limit %d: %v, the scan finds %v", tau, limit, got, want)
	}
}

// checkpoint saves the index over the snapshot and, by arg, keeps
// serving it, reopens it on the heap through Load, or reopens it mapped.
func (m *lifecycle) checkpoint(arg byte) {
	if err := m.s.SaveFile(m.snap); err != nil {
		m.fatalf("checkpoint: %v", err)
	}
	m.unsaved, m.rebuild = 0, m.rebuild && m.step == "open"
	if m.emptyWAL != 0 && m.s.WALSizeBytes() != m.emptyWAL {
		m.fatalf("the checkpoint left %d WAL bytes, an empty log has %d", m.s.WALSizeBytes(), m.emptyWAL)
	}
	if arg%3 != 0 {
		m.closeIndex()
		m.attach(m.reopen((arg%3 - 1) * 2))
	}
}

// reopen opens the last checkpoint by a heap Load (0), a heap OpenFile
// (1) or a mapped OpenFile (2). A 3 builds the starting collection
// instead, as a server restarted on its corpus would, while no
// checkpoint since the start makes that the same state.
func (m *lifecycle) reopen(how byte) *Index {
	var s *Index
	var err error
	switch how % 4 {
	case 0:
		var f *os.File
		if f, err = os.Open(m.snap); err == nil {
			s, err = Load(f)
			f.Close()
		}
	case 1:
		s, err = OpenFile(m.snap, engine.OpenHeap)
	case 2:
		s, err = OpenFile(m.snap, engine.OpenMMap)
	case 3:
		if !m.rebuild {
			return m.reopen(0)
		}
		// A small enumeration budget keeps a forced index route's balls
		// small; a query whose ball passes it is scanned on that route.
		opts := core.Options{NumPartitions: 4, MaxTau: 16, Seed: 1, SampleSize: 50, WorkloadSize: 2, NoRefine: true, Init: core.InitRandom, EnumBudget: 1 << 13}
		s, err = BuildEngine(m.engine, lifecyclePool[:m.base], m.shards, opts)
	}
	if err != nil {
		m.fatalf("reopen: %v", err)
	}
	return s
}

// attach replays the WAL onto s, wraps its log, starts its fan-out
// workers (so the goroutine count has one expected value) and takes the
// epoch baseline. Replay must apply exactly the updates acknowledged
// since the last checkpoint, each publishing a snapshot.
func (m *lifecycle) attach(s *Index) {
	m.s, m.published = s, map[*state]statePrint{}
	replayed, err := s.OpenWAL(m.wal)
	if err != nil || replayed != m.unsaved || s.Epoch() < uint64(replayed) {
		m.fatalf("replay applied %d records (%v), epoch %d; %d updates were acknowledged since the checkpoint", replayed, err, s.Epoch(), m.unsaved)
	}
	m.log = &checkedLog{Log: s.wal.(*wal.Log), s: s, t: m.t}
	s.wal = m.log
	s.ensureWorkers()
	m.observeStates()
	if s.Dims() != 0 && s.Dims() != lifecyclePool[0].Dims() || s.NumShards() != m.shards {
		m.fatalf("reopened with %d dims and %d shards", s.Dims(), s.NumShards())
	}
}

// closeIndex closes the index; a mapping must be left with no reader.
func (m *lifecycle) closeIndex() {
	if err := m.s.Close(); err != nil {
		m.fatalf("close: %v", err)
	}
	if m.s.mapping != nil && m.s.mapping.Refs() != 0 {
		m.fatalf("a closed mapping holds %d references", m.s.mapping.Refs())
	}
}

// observeStates takes the baseline check holds the next step's epoch to.
func (m *lifecycle) observeStates() {
	m.states = m.states[:0]
	for i := range m.s.shards {
		m.states = append(m.states, m.s.shards[i].Load())
	}
	m.epoch = m.s.Epoch()
}

func (m *lifecycle) shardEpochs() uint64 {
	var sum uint64
	for _, st := range m.s.ShardStats() {
		sum += st.Epoch
	}
	return sum
}

// check holds the index to the model after a step.
func (m *lifecycle) check(step int) {
	s := m.s
	if s.Len() != len(m.live) {
		m.fatalf("Len %d, the model has %d", s.Len(), len(m.live))
	}
	// Built ids ascend and buffered ids ascend; a rolled-back delete may
	// buffer an id older than built ones.
	for i := range s.shards {
		sh := s.shards[i].Load()
		if _, ok := m.published[sh]; !ok {
			m.published[sh] = printState(sh)
		}
		ids := slices.Clone(sh.builtIDs)
		for _, e := range sh.delta {
			ids = append(ids, e.id)
		}
		for j := 1; j < len(ids); j++ {
			if ids[j] <= ids[j-1] && j != len(sh.builtIDs) {
				m.fatalf("shard %d holds id %d after %d (%d built)", i, ids[j], ids[j-1], len(sh.builtIDs))
			}
		}
	}
	for sh, want := range m.published {
		if printState(sh) != want {
			m.fatalf("a published snapshot of epoch %d changed: %d built ids, %d tombstones, %d buffered now", sh.epoch, len(sh.builtIDs), len(sh.dead), len(sh.delta))
		}
	}
	for id, v := range m.live {
		if got, ok := s.Vector(id); !ok || !got.Equal(v) {
			m.fatalf("id %d resolves to another vector (found=%v)", id, ok)
		}
	}
	// A swap invalidates gph-server's cached answers only through the
	// epoch, so every shard whose published state changed must have
	// bumped it.
	swapped := 0
	for i := range s.shards {
		if s.shards[i].Load() != m.states[i] {
			swapped++
		}
	}
	if rise := s.Epoch() - m.epoch; rise < uint64(swapped) {
		m.fatalf("%d shards published a new state and the epoch rose by %d", swapped, rise)
	}
	m.observeStates()
	// One probe a step from a small query set, held to the scan.
	m.search("probe", lifecycleQueries[step%len(lifecycleQueries)], []int{2, 12, 48}[step%3])
	if s.mapping != nil && s.mapping.Refs() != 0 {
		m.fatalf("a quiescent mapped index holds %d mapping references", s.mapping.Refs())
	}
	m.checkGoroutines(m.goroutines + min(runtime.GOMAXPROCS(0), m.shards))
}

// checkGoroutines waits briefly for exiting goroutines to go, then fails
// with every goroutine's stack if more than want remain.
func (m *lifecycle) checkGoroutines(want int) {
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 64<<10)
			m.fatalf("%d goroutines, want at most %d (a stream left unstopped?):\n%s", runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
	}
}
