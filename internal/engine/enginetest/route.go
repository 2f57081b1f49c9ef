// Package enginetest holds the assertions tests in several packages make
// about the route a query took through an engine that guards itself (gph
// and mih by core's allocation loop, HmSearch by engine.Budget):
// a hand-sized fixture pins a route by accident, and a test whose subject
// is the index path passes as well on the scan route unless it says so.
// fields.go walks an options struct field by field, for the tests that
// hold each format to "every option is persisted or declared not carried".
package enginetest

import (
	"slices"
	"testing"

	"gph/internal/bitvec"
	"gph/internal/cpu"
	"gph/internal/engine"
	"gph/internal/verify"
)

// statsSearcher is engine.Engine's and the sharded index's SearchStats.
type statsSearcher interface {
	SearchStats(q bitvec.Vector, tau int) ([]int32, *engine.Stats, error)
}

// ScratchReturned fails t unless a warm Search of (q, tau), answered by
// the index — the route forced (cpu.Force), so any fixture reaches it
// where the index can answer — allocates no more than a copy of its
// result does. An engine that pools its per-query scratch and misses the
// Put on some path makes every later query allocate a scratch afresh,
// which shows here. Skipped under the race detector, where sync.Pool
// drops puts at random.
func ScratchReturned(t *testing.T, e engine.Engine, q bitvec.Vector, tau int) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratches at random")
	}
	defer cpu.Force(cpu.Setting{Route: cpu.RouteIndex})()
	OnIndex(t, e, q, tau)
	ids, err := e.Search(q, tau)
	if err != nil {
		t.Fatal(err)
	}
	result := testing.AllocsPerRun(20, func() { _ = slices.Clone(ids) })
	search := testing.AllocsPerRun(20, func() {
		if _, err := e.Search(q, tau); err != nil {
			t.Fatal(err)
		}
	})
	if search > result {
		t.Errorf("tau=%d: a warm query on the index allocates %v times, a copy of its %d results %v", tau, search, len(ids), result)
	}
}

// OnIndex fails t unless e answers (q, tau) by an index plan — on every
// shard, if e is sharded. For a test whose subject is the guard's own
// verdict, size the fixture so that this holds under the scan's kernel
// price; it then holds under the portable one.
func OnIndex(t testing.TB, e statsSearcher, q bitvec.Vector, tau int) {
	t.Helper()
	if _, st, err := e.SearchStats(q, tau); err != nil {
		t.Fatal(err)
	} else if st.Scanned || st.AllocRounds+st.Signatures == 0 {
		t.Fatalf("tau=%d: the fixture should run the index here, and the query was scanned: %+v", tau, *st)
	}
}

// FreeScan fails t unless e scans for (q, tau) without binding the query
// or probing anything.
func FreeScan(t testing.TB, e statsSearcher, q bitvec.Vector, tau int) {
	t.Helper()
	if _, st, err := e.SearchStats(q, tau); err != nil {
		t.Fatal(err)
	} else if !st.Scanned || st.AllocRounds != 0 || st.CNProbes != 0 || st.CNScans != 0 || st.Signatures != 0 || st.SumPostings != 0 {
		t.Fatalf("tau=%d: the verdict should be free here: %+v", tau, *st)
	}
}

// BudgetHolds sweeps an engine that guards itself against the scan's
// price (core's builds, HmSearch), whose packed arena is codes, over queries × τ ∈
// [0, maxTau] and holds it to the budget's promise by the counters a
// query reports: the index's priced
// work — ProbePrice a signature, CandidatePrice a posting — is at most
// the scan's price at that τ where the index answered, and at most that
// plus the overdrawing charge (longest postings: 0 where the engine
// prices its plan before it generates, as core does, 1 where it bills a
// posting, as HmSearch does) where the scan answered after all. Every answer equals the scan's.
// Which cell takes which route follows the host's scan price, so the
// log names the arm and the counts and nothing asserts them.
func BudgetHolds(t testing.TB, name string, e engine.Engine, codes *verify.Codes, queries []bitvec.Vector, maxTau, longest int) {
	t.Helper()
	arm := "kernel"
	if codes.ScanSteps(0) == int64(e.Len()*(2+(e.Dims()+63)/64)/3) {
		arm = "portable (the kernel price NOT exercised)"
	}
	var index, refused, abandoned int
	for _, q := range queries {
		for tau := 0; tau <= maxTau; tau++ {
			got, st, err := e.SearchStats(q, tau)
			if err != nil {
				t.Fatal(err)
			}
			if want := codes.AppendWithin(q, tau, nil); !slices.Equal(got, want) {
				t.Fatalf("%s tau=%d: %d ids, the scan finds %d: %+v", name, tau, len(got), len(want), *st)
			}
			limit := codes.ScanSteps(tau)
			spent := engine.ProbePrice*int64(st.Signatures) + engine.CandidatePrice*st.SumPostings
			switch {
			case !st.Scanned:
				index++
			case spent == 0:
				refused++
			default:
				abandoned++
				limit += engine.CandidatePrice * int64(longest)
			}
			if spent > limit || st.Results != len(got) || (st.Scanned && st.Candidates != e.Len()) {
				t.Fatalf("%s tau=%d: priced work %d against a limit of %d: %+v", name, tau, spent, limit, *st)
			}
		}
	}
	t.Logf("%s: price arm %s: %d queries ran the index, %d were scanned with nothing generated, %d abandoned to the scan",
		name, arm, index, refused, abandoned)
}
