// Package enginetest holds the assertions tests in several packages make
// about the route a query took through an engine that guards itself (gph):
// a hand-sized fixture pins a route by accident, and a test whose subject
// is the index path passes as well on the scan route unless it says so.
// fields.go walks an options struct field by field, for the tests that
// hold each format to "every option is persisted or declared not carried".
package enginetest

import (
	"testing"

	"gph/internal/bitvec"
	"gph/internal/engine"
)

// statsSearcher is engine.Engine's and the sharded index's SearchStats.
type statsSearcher interface {
	SearchStats(q bitvec.Vector, tau int) ([]int32, *engine.Stats, error)
}

// OnIndex fails t unless e answers (q, tau) by an index plan — on every
// shard, if e is sharded. Size fixtures so that this holds under the
// scan's kernel price; it then holds under the portable one.
func OnIndex(t testing.TB, e statsSearcher, q bitvec.Vector, tau int) {
	t.Helper()
	if _, st, err := e.SearchStats(q, tau); err != nil {
		t.Fatal(err)
	} else if st.Scanned || st.AllocRounds == 0 {
		t.Fatalf("tau=%d: the fixture should run the index here, and the query was scanned: %+v", tau, *st)
	}
}

// FreeScan fails t unless e scans for (q, tau) without binding the query.
func FreeScan(t testing.TB, e statsSearcher, q bitvec.Vector, tau int) {
	t.Helper()
	if _, st, err := e.SearchStats(q, tau); err != nil {
		t.Fatal(err)
	} else if !st.Scanned || st.AllocRounds != 0 || st.CNProbes != 0 || st.CNScans != 0 {
		t.Fatalf("tau=%d: the verdict should be free here: %+v", tau, *st)
	}
}
