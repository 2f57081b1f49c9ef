package bench

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"gph/internal/core"
	"gph/internal/dataset"
	"gph/internal/engine"
	"gph/internal/partition"
)

// The artifacts below run at the one size Config.N; their verdicts are
// *holds* or *does not hold here*.

// once folds a one-size tally into a verdict.
func (l *ledger) once(t tally) string { return verdict([]int{l.cfg.N}, []string{t.why()}) }

// gphBuild builds GPH over w with opts, the ledger's seed and the
// corpus's largest τ.
func gphBuild(w workload, opts core.Options) (engine.Engine, error) {
	opts.Seed, opts.MaxTau = seed, slices.Max(w.taus)
	return core.Build(w.data, opts)
}

// fixture is a corpus of Figs. 2–5 at Config.N and GPH built on it with
// the paper's defaults.
type fixture struct {
	w   workload
	gph engine.Engine
}

// fixture makes c's fixture once; Figs. 2–5 share it.
func (l *ledger) fixture(c corpus) (fixture, error) {
	if f, ok := l.fixtures[c.name]; ok {
		return f, nil
	}
	w, err := l.load(c, l.cfg.N)
	if err != nil {
		return fixture{}, err
	}
	e, err := gphBuild(w, core.Options{})
	if err != nil {
		return fixture{}, err
	}
	if l.fixtures == nil {
		l.fixtures = map[string]fixture{}
	}
	l.fixtures[c.name] = fixture{w, e}
	return l.fixtures[c.name], nil
}

// overCorpora runs the engines build makes on each of Figs. 2–5's
// corpora at every τ, and hands each τ's cells, linscan's last, to row.
func (l *ledger) overCorpora(build func(fixture) ([]engine.Engine, error), row func(c corpus, tau int, cells []cell)) error {
	for _, c := range paperCorpora {
		f, err := l.fixture(c)
		if err != nil {
			return err
		}
		ixs, err := build(f)
		if err != nil {
			return err
		}
		for _, tau := range c.taus {
			cells, err := l.run(f.w, tau, ixs...)
			if err != nil {
				return err
			}
			row(c, tau, cells)
		}
	}
	return nil
}

// gphBuilds builds GPH on f's corpus once for each opts.
func gphBuilds(f fixture, opts ...core.Options) ([]engine.Engine, error) {
	ixs := make([]engine.Engine, len(opts))
	for i, o := range opts {
		var err error
		if ixs[i], err = gphBuild(f.w, o); err != nil {
			return nil, err
		}
	}
	return ixs, nil
}

func at(c corpus, tau int) string { return fmt.Sprintf("%s τ = %d", c.name, tau) }

func (l *ledger) fig2() ([]section, error) {
	a := section{
		title: "Fig. 2(a): where GPH's query time goes",
		claim: "Threshold allocation is a negligible share of GPH's query time, so the cost model may leave it out.",
		rule: "In every row where the index answered a query, allocation is at most 10 % of allocation, candidate " +
			"generation and verification together, over those queries. Candidate generation is the fused signature " +
			"enumeration and posting probe loop.",
		tab: table{head: []string{"corpus", "τ", "GPH", "alloc µs, mean", "candgen µs, mean", "verify µs, mean", "alloc share"}},
	}
	b := section{
		title: "Fig. 2(b): Σ|I_s| against |S_cand|",
		claim: "Σ|I_s| bounds |S_cand| closely: α = |S_cand| ÷ Σ|I_s| is 0.69–0.98 on the paper's corpora.",
		rule:  "In every row where the index answered a query, α ≥ 0.69 over those queries.",
		tab:   table{head: []string{"corpus", "τ", "GPH", "Σ|I_s| a query", "|S_cand| a query", "α"}},
	}
	var ta, tb tally
	err := l.overCorpora(func(f fixture) ([]engine.Engine, error) { return []engine.Engine{f.gph}, nil }, func(c corpus, tau int, cells []cell) {
		g := cells[0]
		if g.indexed == 0 {
			a.tab.add(c.name, fmt.Sprint(tau), timeCell(g), "–", "–", "–", "every query scanned")
			b.tab.add(c.name, fmt.Sprint(tau), timeCell(g), "–", "–", "every query scanned")
			return
		}
		st, k := g.index, int64(g.indexed)
		share := float64(st.AllocNanos) / float64(max(st.AllocNanos+st.ProbeNanos+st.VerifyNanos, 1))
		a.tab.add(c.name, fmt.Sprint(tau), timeCell(g), us(time.Duration(st.AllocNanos/k)),
			us(time.Duration(st.ProbeNanos/k)), us(time.Duration(st.VerifyNanos/k)), pct(share))
		ta.check(share <= 0.1, at(c, tau), "allocation is "+pct(share))
		alpha := float64(st.Candidates) / float64(max(st.SumPostings, 1))
		b.tab.add(c.name, fmt.Sprint(tau), timeCell(g), fmt.Sprint(st.SumPostings/k),
			fmt.Sprint(int64(st.Candidates)/k), fmt.Sprintf("%.2f", alpha))
		tb.check(alpha >= 0.69, at(c, tau), fmt.Sprintf("α is %.2f", alpha))
	})
	a.verdict, b.verdict = l.once(ta), l.once(tb)
	return []section{a, b}, err
}

func (l *ledger) fig3() ([]section, error) {
	s := section{
		title: "Fig. 3: threshold allocation, DP against round robin",
		claim: "GPH's DP allocation (Algorithm 1) answers faster than round-robin (RR) allocation.",
		rule: "In every row, DP's time is no slower than RR's. Both indexes share a random, unrefined partitioning, " +
			"so that only the allocation differs.",
		tab: table{head: []string{"corpus", "τ", "RR", "DP", "RR ÷ DP"}},
	}
	var t tally
	err := l.overCorpora(func(f fixture) ([]engine.Engine, error) {
		return gphBuilds(f,
			core.Options{Init: core.InitRandom, NoRefine: true, Allocator: core.AllocRR},
			core.Options{Init: core.InitRandom, NoRefine: true, Allocator: core.AllocDP})
	}, func(c corpus, tau int, cells []cell) {
		rr, dp := cells[0], cells[1]
		s.tab.add(c.name, fmt.Sprint(tau), candCell(rr), candCell(dp), fmt.Sprintf("%.1f", float64(rr.time)/float64(dp.time)))
		t.check(noSlower(dp, rr), at(c, tau), "RR is faster")
	})
	s.verdict = l.once(t)
	return []section{s}, err
}

func (l *ledger) fig4() ([]section, error) {
	variants := []struct {
		label string
		opts  core.Options
	}{
		{"GR", core.Options{}}, // the fixture's
		{"OR", core.Options{Init: core.InitOriginal, NoRefine: true}},
		{"OS", core.Options{Init: core.InitOS, NoRefine: true}},
		{"DD", core.Options{Init: core.InitDD, NoRefine: true}},
		{"RS", core.Options{Init: core.InitRandom, NoRefine: true}},
		{"OR + refine", core.Options{Init: core.InitOriginal}},
		{"RS + refine", core.Options{Init: core.InitRandom}},
	}
	s := section{
		title: "Fig. 4: partitioning methods and initialisations",
		claim: "GPH's partitioning (GR: greedy initialisation, then Algorithm 2's refinement) answers faster than " +
			"the rearrangements OR, OS, DD and RS, and than refinement from the original or a random order.",
		rule: "In every row, GR's time is no slower than any other column's.",
		tab:  table{head: []string{"corpus", "τ"}},
	}
	var opts []core.Options
	for _, v := range variants {
		s.tab.head = append(s.tab.head, v.label)
		opts = append(opts, v.opts)
	}
	var t tally
	err := l.overCorpora(func(f fixture) ([]engine.Engine, error) {
		ixs, err := gphBuilds(f, opts[1:]...)
		return append([]engine.Engine{f.gph}, ixs...), err
	}, func(c corpus, tau int, cells []cell) {
		row := []string{c.name, fmt.Sprint(tau)}
		for i, v := range variants {
			row = append(row, timeCell(cells[i]))
			if i > 0 {
				t.check(noSlower(cells[0], cells[i]), at(c, tau), v.label+" is faster")
			}
		}
		s.tab.add(row...)
	})
	s.verdict = l.once(t)
	return []section{s}, err
}

func (l *ledger) fig5() ([]section, error) {
	widths := []int{32, 24, 16, 12} // m = d / width; d/24 is the fixture's
	s := section{
		title: "Fig. 5: the partition count m",
		claim: "The best partition count grows with τ: a small m wins at small τ.",
		rule: "On each corpus, the best m does not fall as τ grows. The best m is the smallest whose time is no slower " +
			"than the fastest column's.",
		tab: table{head: []string{"corpus", "τ"}},
	}
	for _, wd := range widths {
		s.tab.head = append(s.tab.head, fmt.Sprintf("m = d/%d", wd))
	}
	s.tab.head = append(s.tab.head, "best m")
	var t tally
	var ms []int // this corpus's
	last := 0    // the best m at the τ before
	err := l.overCorpora(func(f fixture) ([]engine.Engine, error) {
		ms = ms[:0]
		var ixs []engine.Engine
		for _, wd := range widths {
			m, e := max(2, f.w.data[0].Dims()/wd), f.gph
			if wd != 24 {
				var err error
				if e, err = gphBuild(f.w, core.Options{NumPartitions: m}); err != nil {
					return nil, err
				}
			}
			ixs, ms = append(ixs, e), append(ms, m)
		}
		return ixs, nil
	}, func(c corpus, tau int, cells []cell) {
		cells = cells[:len(ms)]
		fastest := slices.MinFunc(cells, func(a, b cell) int { return cmp.Compare(a.time, b.time) })
		best := ms[slices.IndexFunc(cells, func(c cell) bool { return noSlower(c, fastest) })]
		row := []string{c.name, fmt.Sprint(tau)}
		for i, m := range ms {
			row = append(row, fmt.Sprintf("m = %d: %s", m, timeCell(cells[i])))
		}
		s.tab.add(append(row, fmt.Sprint(best))...)
		if tau != c.taus[0] {
			t.check(best >= last, at(c, tau), fmt.Sprintf("the best m falls from %d to %d", last, best))
		}
		last = best
	})
	s.verdict = l.once(t)
	return []section{s}, err
}

func (l *ledger) fig8d() ([]section, error) {
	const tau = 12
	s := section{
		title: "Fig. 8(d): skew",
		claim: "Every index slows down as the data grow more skewed; GPH stays ahead of MIH and slows down least.",
		rule: fmt.Sprintf("On 128-dimensional synthetic data at τ = %d, GPH is no slower than MIH at every mean skewness γ, "+
			"and its time at the largest γ over its time at the smallest is no larger than MIH's, within the tie.", tau),
		tab: table{head: []string{"γ", "GPH", "MIH", "linscan"}},
	}
	var t tally
	var first, last []cell
	for _, gamma := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		ds := dataset.Synthetic(l.cfg.N, 128, gamma, seed)
		w, err := newWorkload(corpus{taus: []int{tau}}, ds, dataset.PerturbQueries(ds, l.cfg.Queries, 4, seed+1))
		if err != nil {
			return nil, err
		}
		var ixs []engine.Engine
		for _, sys := range systems[:2] {
			e, err := sys.build(w.data, tau)
			if err != nil {
				return nil, err
			}
			ixs = append(ixs, e)
		}
		cells, err := l.run(w, tau, ixs...)
		if err != nil {
			return nil, err
		}
		s.tab.add(fmt.Sprintf("%.1f", gamma), candCell(cells[0]), candCell(cells[1]), candCell(cells[2]))
		t.check(noSlower(cells[0], cells[1]), fmt.Sprintf("γ = %.1f", gamma), "MIH is faster")
		if first == nil {
			first = cells
		}
		last = cells
	}
	slowdown := func(i int) float64 { return float64(last[i].time) / float64(first[i].time) }
	t.check(slowdown(0) <= tie*slowdown(1), "the largest γ",
		fmt.Sprintf("GPH slows down %.1f × and MIH %.1f ×", slowdown(0), slowdown(1)))
	s.verdict = l.once(t)
	return []section{s}, nil
}

func (l *ledger) fig8ef() ([]section, error) {
	taus := []int{3, 6, 9, 12}
	s := section{
		title: "Fig. 8(e–f): a workload of the wrong skew",
		claim: "A partitioning refined on a workload whose skew differs from the queries' answers within 11 % of one " +
			"refined on a workload like the queries.",
		rule: "On 128-dimensional synthetic data of skewness γ_D, queried by data of skewness γ_q, the partitioning refined " +
			"on a γ_D workload is at most 1.11 × as slow as the one refined on a γ_q workload, in every row.",
		tab: table{head: []string{"γ_D", "γ_q", "τ", "workload γ_q", "workload γ_D", "gap"}},
	}
	var t tally
	for _, g := range []struct{ data, query float64 }{{0.5, 0.1}, {0.1, 0.5}} {
		ds := dataset.Synthetic(l.cfg.N, 128, g.data, seed)
		pool := dataset.Synthetic(max(l.cfg.N/4, l.cfg.Queries), 128, g.query, seed+7)
		w, err := newWorkload(corpus{taus: taus}, ds, dataset.PerturbQueries(pool, l.cfg.Queries, 4, seed+1))
		if err != nil {
			return nil, err
		}
		var ixs []engine.Engine
		for _, gamma := range []float64{g.query, g.data} {
			sample := dataset.Synthetic(2000, 128, gamma, seed+13)
			wl := partition.SurrogateWorkload(sample.Vectors, 40, taus, seed)
			e, err := gphBuild(w, core.Options{Workload: &wl})
			if err != nil {
				return nil, err
			}
			ixs = append(ixs, e)
		}
		for _, tau := range taus {
			cells, err := l.run(w, tau, ixs...)
			if err != nil {
				return nil, err
			}
			gap := float64(cells[1].time)/float64(cells[0].time) - 1
			s.tab.add(fmt.Sprintf("%.1f", g.data), fmt.Sprintf("%.1f", g.query), fmt.Sprint(tau),
				timeCell(cells[0]), timeCell(cells[1]), pct(gap))
			t.check(gap <= 0.11, fmt.Sprintf("γ_D = %.1f τ = %d", g.data, tau), "the gap is "+pct(gap))
		}
	}
	s.verdict = l.once(t)
	return []section{s}, nil
}
