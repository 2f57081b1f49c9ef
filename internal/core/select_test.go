package core

import (
	"fmt"
	"slices"
	"testing"

	"gph/internal/alloc"
	"gph/internal/bitvec"
	"gph/internal/dataset"
)

// startTable starts the bound query's rows and fits them into the CN
// table, as a round that is not a selection, or one the selection
// refused, is run on.
func (ix *Index) startTable(tau int, s *searchScratch) {
	ix.startRows(tau, nil, s)
	ix.fitRows(tau, s)
}

// tableSearch answers q at tau as search does, with allocation on the
// table path a round the selection refuses takes — the rows started and
// fitted (startTable), round one by AllocateRefused, which runs greedy and
// the recurrence without asking the selection, and refine's pricing and
// later rounds — from allocate's early exit through verification. The ids
// are the caller's; the stats carry no clock.
func tableSearch(t *testing.T, ix *Index, q bitvec.Vector, tau int) ([]int32, Stats) {
	t.Helper()
	s := ix.getScratch()
	defer ix.putScratch(s)
	st := Stats{ScanCost: ix.ScanCost(tau)}
	limit, p := st.ScanCost, ix.pricesThrough(tau)
	var res alloc.Result
	price := p.start + ix.roundPrice(tau) + p.floor[tau]
	if price <= limit {
		ix.bindQuery(q, s)
		ix.startTable(tau, s)
		if price = p.start + ix.roundPrice(tau); price <= limit {
			s.rounds++
			params := alloc.Params{Tau: tau, Widths: s.widths, EnumBudget: ix.opts.EnumBudget}
			res, price = ix.refine(alloc.AllocateRefused(s.table, params, &s.dp), params, price, limit, s)
		}
	}
	st.PlanCost, st.AllocRounds, st.CNScans, st.CNProbes, st.CNKeys = price, s.rounds, s.scans, s.cnProbes, s.cnKeys
	if price > limit {
		ids := ix.codes.AppendWithin(q, tau, nil)
		st.Scanned, st.Candidates, st.Results = true, ix.count, len(ids)
		return ids, st
	}
	st.Thresholds, st.EstimatedCN = slices.Clone(res.Thresholds), res.SumCN
	if err := ix.generate(res.Thresholds, res.EffectiveBudget, s); err != nil {
		t.Fatal(err)
	}
	st.Signatures, st.KeyScans, st.KeysScanned, st.SumPostings = s.sigs, s.keyScans, s.keysScanned, s.sumPost
	st.Candidates = len(s.cand.IDs)
	cands := s.cand.IDs
	s.cand.Reset()
	ids := slices.Clone(ix.codes.FilterWithin(q, tau, cands))
	slices.Sort(ids)
	st.Results = len(ids)
	return ids, st
}

// selectsFromStarts reports whether allocateLoop answers q at tau from the
// row starts: the selection answers on the increments they give, before
// any row is fitted into the table.
func selectsFromStarts(ix *Index, q bitvec.Vector, tau int) bool {
	s := ix.getScratch()
	defer ix.putScratch(s)
	ix.bindQuery(q, s)
	ix.startRows(tau, nil, s)
	ix.startIncrements(tau, ix.pricesThrough(tau).heads, s)
	_, ok := alloc.Select(s.rows, alloc.Params{Tau: tau, Widths: s.widths, EnumBudget: ix.opts.EnumBudget}, &s.dp)
	return ok
}

// TestSelectionIsTheTablePath holds the query path, which answers a τ < m
// round from the row starts where the selection can and builds the CN
// table only where it refuses, to the table path on the same binding
// (tableSearch), whose round one is greedy's and the recurrence's: every Stats field but the clocks — thresholds, EstimatedCN,
// PlanCost, ScanCost, rounds, CN probes, scans and keys, signatures, key
// scans, postings, candidates, results, the scan verdict — and the ids, at
// every τ < m, for perturbed queries of the uqvideo-, sift-, gist- and
// pubchem-like corpora, each built by GR and by OS without refinement (the
// log names the indexes with a partition wider than a word, which starts
// through extendRow). Each index then answers kNN queries, by SearchGrow
// and SearchKNN, as the linear scan does. The log gives, per index, how
// many (query, τ) pairs the selection answered from the starts, how many it
// refused and how many were scanned; across the indexes both of the first
// two must occur.
func TestSelectionIsTheTablePath(t *testing.T) {
	n, queries := 20000, 200
	if raceEnabled || testing.Short() {
		n, queries = 4000, 25
	}
	answered, refused := 0, 0
	for _, gen := range []func(n int, seed int64) *dataset.Dataset{
		dataset.UQVideoLike, dataset.SIFTLike, dataset.GISTLike, dataset.PubChemLike,
	} {
		ds := gen(n, 3)
		qs := dataset.PerturbQueries(ds, queries, 4, 7)
		for _, opts := range []Options{{Seed: 1}, {Seed: 1, Init: InitOS, NoRefine: true}} {
			ix := buildSmall(t, ds.Vectors, opts)
			name := fmt.Sprintf("%s/%v", ds.Name, opts.Init)
			wide := slices.ContainsFunc(ix.parts.Widths(), func(w int) bool { return w > 64 })
			fromStarts, tabled, scanned := 0, 0, 0
			for tau := range ix.parts.NumParts() {
				for qi, q := range qs {
					got, gs, err := ix.SearchStats(q, tau)
					if err != nil {
						t.Fatal(err)
					}
					want, ws := tableSearch(t, ix, q, tau)
					gs.AllocNanos, gs.ProbeNanos, gs.VerifyNanos = 0, 0, 0
					if !slices.Equal(got, want) || fmt.Sprintf("%+v", *gs) != fmt.Sprintf("%+v", ws) {
						t.Fatalf("%s tau=%d query %d:\n query path %d ids %+v\n table path %d ids %+v", name, tau, qi, len(got), *gs, len(want), ws)
					}
					switch {
					case gs.Scanned:
						scanned++
					case selectsFromStarts(ix, q, tau):
						fromStarts++
					default:
						tabled++
					}
				}
			}
			t.Logf("%s (m = %d, a partition wider than a word: %v): %d (query, τ < m) pairs answered from the row starts, %d on the table, %d scanned",
				name, ix.parts.NumParts(), wide, fromStarts, tabled, scanned)
			answered, refused = answered+fromStarts, refused+tabled
			for qi, q := range qs[:4] {
				for _, k := range []int{1, 10} {
					want := linearKNN(ds.Vectors, q, k)
					got, gs, err := ix.SearchGrow(q, k)
					if err != nil || !slices.Equal(got, want) {
						t.Fatalf("%s query %d k=%d: SearchGrow %v (%+v, %v), the linear scan %v", name, qi, k, got, gs, err, want)
					}
					if got, err := ix.SearchKNN(q, k); err != nil || !slices.Equal(got, want) {
						t.Fatalf("%s query %d k=%d: SearchKNN %v (%v), the linear scan %v", name, qi, k, got, err, want)
					}
				}
			}
		}
	}
	if answered == 0 || refused == 0 {
		t.Fatalf("%d pairs answered from the row starts and %d on the table: want both", answered, refused)
	}
}
