package enginetest

import (
	"slices"
	"sync"
	"testing"

	"gph/internal/bitvec"
	"gph/internal/engine"
	"gph/internal/invindex"
)

// Exit is one way out of an engine's search, for PoolComesBackClean: Run
// takes it, failing t on any surprise, and Pooled says whether it takes a
// scratch from the pool at all — an exit that refuses the query first
// takes none.
type Exit struct {
	Name   string
	Pooled bool
	Run    func(t *testing.T)
}

// SearchExits returns the exits the query (q, tau) takes through e, named
// after name: Search, and where e streams, SearchIter drained and
// SearchIter stopped at its first result. pooled is Exit's. An error is
// an exit like any other, so none fails t; the caller pins the route the
// query takes (OnIndex, FreeScan, the engine's own counters).
func SearchExits(name string, e engine.Engine, q bitvec.Vector, tau int, pooled bool) []Exit {
	exits := []Exit{{name + ", Search", pooled, func(*testing.T) { _, _ = e.Search(q, tau) }}}
	if s, ok := e.(engine.Streamer); ok {
		exits = append(exits,
			Exit{name + ", SearchIter drained", pooled, func(*testing.T) {
				for range s.SearchIter(q, tau) {
				}
			}},
			Exit{name + ", SearchIter stopped early", pooled, func(*testing.T) {
				for range s.SearchIter(q, tau) {
					break
				}
			}})
	}
	return exits
}

// PoolComesBackClean takes every exit in turn and then drains pool,
// failing t unless every scratch in it holds an empty candidate set with
// an all-zero bitmap (set returns a scratch's): no probing engine clears
// its bitmap on the way in, so every way out must leave it clean, however
// the candidates were reordered, compacted or abandoned on the way.
//
// A sync.Pool keeps a P's last Put where only that P's Get looks, so a
// test goroutine moved between the exit's Put and the drain finds the
// pool empty (one run in twelve on two Ps): a pooled exit is taken again,
// up to five times, and fails t if no scratch ever came back — except
// under the race detector, where sync.Pool drops puts at random.
func PoolComesBackClean[S any](t *testing.T, pool *sync.Pool, set func(S) *invindex.IDSet, exits []Exit) {
	t.Helper()
	for _, exit := range exits {
		returned := 0
		for try := 0; try < 5 && returned == 0; try++ {
			exit.Run(t)
			returned = drain(t, pool, set, exit.Name)
			if !exit.Pooled {
				break
			}
		}
		if exit.Pooled && returned == 0 && !raceEnabled {
			t.Fatalf("%s returned no scratch to the pool", exit.Name)
		}
	}
}

// drain empties pool, checking each scratch as PoolComesBackClean does,
// and returns how many it saw.
func drain[S any](t *testing.T, pool *sync.Pool, set func(S) *invindex.IDSet, after string) int {
	t.Helper()
	for n := 0; ; n++ {
		v := pool.Get()
		if v == nil {
			return n
		}
		s, ok := v.(S)
		if !ok {
			t.Fatalf("after %s: the pool holds a %T", after, v)
		}
		ids := set(s)
		if len(ids.IDs) != 0 {
			t.Fatalf("after %s: pooled scratch holds %d candidates", after, len(ids.IDs))
		}
		if w := slices.IndexFunc(ids.Seen, func(w uint64) bool { return w != 0 }); w >= 0 {
			t.Fatalf("after %s: pooled scratch has bitmap word %d = %#x", after, w, ids.Seen[w])
		}
	}
}
