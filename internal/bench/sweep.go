package bench

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"time"

	"gph/internal/binio"
	"gph/internal/core"
	"gph/internal/engine"
)

// point is one (n, corpus, τ) of the sweep that Fig. 6, Table IV and
// Fig. 7 read: every system's result there, linscan's included.
type point struct {
	n   int
	c   corpus
	tau int
	res map[string]result
}

func (p point) String() string { return at(p.c, p.tau) }

// result is what one system's index weighs, took to build and answered.
type result struct {
	projected int64 // > 0: not run, because this size broke the budget
	bytes     int64
	build     time.Duration
	gph       core.BuildStats // GPH's partitioning and indexing times
	file      int64           // GPH's saved file
	cell
}

// sweep measures every system on every corpus at every size, once.
func (l *ledger) sweep() ([]point, error) {
	if l.swept != nil {
		return l.swept, nil
	}
	first := map[string]int64{} // per-τ sizes at Sizes[0], by system, corpus and τ
	for _, n := range l.cfg.Sizes {
		for _, c := range corpora {
			pts, err := l.sweepCorpus(c, n, first)
			if err != nil {
				return nil, fmt.Errorf("bench: %s at n = %d: %w", c.name, n, err)
			}
			l.swept = append(l.swept, pts...)
		}
	}
	return l.swept, nil
}

func (l *ledger) sweepCorpus(c corpus, n int, first map[string]int64) ([]point, error) {
	w, err := l.load(c, n)
	if err != nil {
		return nil, err
	}
	built := map[string]engine.Engine{}
	fixed := map[string]result{}
	for _, s := range systems {
		if !s.perTau {
			if built[s.name], fixed[s.name], err = build(s, w, slices.Max(c.taus)); err != nil {
				return nil, err
			}
		}
	}

	var pts []point
	for _, tau := range c.taus {
		p := point{n, c, tau, map[string]result{}}
		scan, truth, err := l.measure(w.scan, w.queries, tau, nil)
		if err != nil {
			return nil, err
		}
		p.res["linscan"] = result{bytes: w.scan.SizeBytes(), cell: scan}
		for _, s := range systems {
			e, r := built[s.name], fixed[s.name]
			if s.perTau {
				key := fmt.Sprintf("%s/%s/%d", s.name, c.name, tau)
				if n > l.cfg.Sizes[0] {
					if proj := first[key] * int64(n) / int64(l.cfg.Sizes[0]); proj > budget {
						p.res[s.name] = result{projected: proj}
						continue
					}
				}
				if e, r, err = build(s, w, tau); err != nil {
					return nil, err
				}
				if n == l.cfg.Sizes[0] {
					first[key] = r.bytes
				}
			}
			if r.cell, _, err = l.measure(e, w.queries, tau, truth); err != nil {
				return nil, err
			}
			p.res[s.name] = r
		}
		pts = append(pts, p)
	}
	return pts, nil
}

// build builds s over w for tau and times it. A GPH index is also saved
// and loaded back (reload).
func build(s system, w workload, tau int) (engine.Engine, result, error) {
	start := time.Now()
	e, err := s.build(w.data, tau)
	if err != nil {
		return nil, result{}, fmt.Errorf("building %s: %w", s.name, err)
	}
	r := result{bytes: e.SizeBytes(), build: time.Since(start)}
	if ix, ok := e.(*core.Index); ok {
		r.gph = ix.BuildStats()
		r.file, err = reload(e, w, w.taus[0])
	}
	return e, r, err
}

// reload saves e, loads the file back and checks that the copy answers
// every query at tau with e's ids. It returns the file's size.
func reload(e engine.Engine, w workload, tau int) (int64, error) {
	var file bytes.Buffer
	if err := e.Save(&file); err != nil {
		return 0, err
	}
	size := int64(file.Len())
	loaded, err := engine.LoadAny(binio.NewSource(file.Bytes())) // decoded in place, not copied
	if err != nil {
		return 0, err
	}
	for i, q := range w.queries {
		want, err := e.Search(q, tau)
		if err != nil {
			return 0, err
		}
		if got, err := loaded.Search(q, tau); err != nil || !slices.Equal(got, want) {
			return 0, fmt.Errorf("%s after Save and Load, query %d at τ = %d: %d ids, %d before (%v)", e.Name(), i, tau, len(got), len(want), err)
		}
	}
	return size, nil
}

// judge applies rule to the points of each size and folds the tallies
// into a verdict.
func (l *ledger) judge(pts []point, rule func(point, *tally)) string {
	why := make([]string, len(l.cfg.Sizes))
	for i, n := range l.cfg.Sizes {
		var t tally
		for _, p := range pts {
			if p.n == n {
				rule(p, &t)
			}
		}
		why[i] = t.why()
	}
	return verdict(l.cfg.Sizes, why)
}

// baselines are the per-τ systems, in the tables' column order.
var baselines = []string{"HmSearch", "PartAlloc", "LSH"}

// notRun renders a cell the budget skipped, or "" for one that ran.
func notRun(r result) string {
	if r.projected > 0 {
		return "not run: projected " + gib(r.projected)
	}
	return ""
}

func (l *ledger) fig6() ([]section, error) {
	pts, err := l.sweep()
	if err != nil {
		return nil, err
	}
	s := section{
		title: "Fig. 6: index size",
		claim: "GPH's index is about as large as MIH's, and smaller than HmSearch's and PartAlloc's.",
		rule: "At each n, in every row, GPH ≤ 1.25 × MIH, and GPH is smaller than HmSearch and PartAlloc wherever they ran. " +
			"LSH's size follows its table count and is not judged. GPH's saved file is in brackets: each index is saved, " +
			"loaded back, and must answer every query as before.",
		tab: table{head: []string{"n", "corpus", "τ", "GPH MiB (file)", "MIH MiB", "HmSearch MiB", "PartAlloc MiB", "LSH MiB"}},
	}
	for _, p := range pts {
		g := p.res["GPH"]
		row := []string{count(p.n), p.c.name, fmt.Sprint(p.tau), mib(g.bytes) + " (" + mib(g.file) + ")", mib(p.res["MIH"].bytes)}
		for _, b := range baselines {
			r := p.res[b]
			row = append(row, cmp.Or(notRun(r), mib(r.bytes)))
		}
		s.tab.add(row...)
	}
	s.verdict = l.judge(pts, func(p point, t *tally) {
		g, m := p.res["GPH"].bytes, p.res["MIH"].bytes
		t.check(4*g <= 5*m, p.String(), fmt.Sprintf("GPH's index is %.2f × MIH's", float64(g)/float64(m)))
		for _, b := range baselines[:2] {
			if r := p.res[b]; r.projected == 0 {
				t.check(g < r.bytes, p.String(), b+"'s index is smaller than GPH's")
			}
		}
	})
	return []section{s}, nil
}

func (l *ledger) table4() ([]section, error) {
	pts, err := l.sweep()
	if err != nil {
		return nil, err
	}
	s := section{
		title: "Table IV: index construction time",
		claim: "Most of GPH's build time is its offline partitioning, and its indexing step costs about what MIH's whole build does.",
		rule:  "At each n, on every corpus, GPH's partitioning takes longer than its indexing, and its indexing takes at most 2 × MIH's build.",
		tab:   table{head: []string{"n", "corpus", "τ", "GPH s (partition + index)", "MIH s", "HmSearch s", "PartAlloc s", "LSH s"}},
	}
	for _, p := range pts {
		g := p.res["GPH"].gph
		row := []string{count(p.n), p.c.name, fmt.Sprint(p.tau),
			secs(time.Duration(g.PartitionNanos)) + " + " + secs(time.Duration(g.IndexNanos)), secs(p.res["MIH"].build)}
		for _, b := range baselines {
			r := p.res[b]
			row = append(row, cmp.Or(notRun(r), secs(r.build)))
		}
		s.tab.add(row...)
	}
	s.verdict = l.judge(pts, func(p point, t *tally) {
		if p.tau != p.c.taus[0] {
			return // the GPH and MIH builds are τ-free: judge a corpus once
		}
		g, m := p.res["GPH"].gph, p.res["MIH"].build
		t.check(g.PartitionNanos > g.IndexNanos, p.c.name, "GPH's indexing takes longer than its partitioning")
		t.check(time.Duration(g.IndexNanos) <= 2*m, p.c.name,
			fmt.Sprintf("GPH's indexing takes %.1f × MIH's build", float64(g.IndexNanos)/float64(m)))
	})
	return []section{s}, nil
}

func (l *ledger) fig7() ([]section, error) {
	pts, err := l.sweep()
	if err != nil {
		return nil, err
	}
	s := section{
		title: "Fig. 7: query time against the competitors",
		claim: "GPH answers range queries faster than MIH, HmSearch, PartAlloc and LSH.",
		rule: "At each n, in every row, GPH's time is no slower than that of each other index that ran. " +
			"Candidates and linscan are shown, not judged: a scanned query's candidates are all n rows. " +
			"LSH is approximate; its recall counts its ids among linscan's.",
		tab: table{head: []string{"n", "corpus", "τ", "GPH", "MIH", "HmSearch", "PartAlloc", "LSH", "linscan"}},
	}
	for _, p := range pts {
		row := []string{count(p.n), p.c.name, fmt.Sprint(p.tau), candCell(p.res["GPH"].cell), candCell(p.res["MIH"].cell)}
		for _, b := range baselines {
			r := p.res[b]
			text := cmp.Or(notRun(r), candCell(r.cell))
			if b == "LSH" && r.projected == 0 {
				text += fmt.Sprintf(", recall %.2f", r.recall)
			}
			row = append(row, text)
		}
		s.tab.add(append(row, candCell(p.res["linscan"].cell))...)
	}
	s.verdict = l.judge(pts, func(p point, t *tally) {
		g := p.res["GPH"].cell
		for _, other := range append([]string{"MIH"}, baselines...) {
			if r := p.res[other]; r.projected == 0 {
				t.check(noSlower(g, r.cell), p.String(), other+" is faster")
			}
		}
	})
	return []section{s}, nil
}
