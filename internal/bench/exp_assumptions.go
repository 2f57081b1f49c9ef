package bench

import (
	"fmt"
	"sort"
)

// Fig1 reproduces Fig. 1: per-dimension skewness of each dataset.
// The paper plots one curve per dataset; the harness prints the
// distribution summary plus the paper's two headline observations
// (dimensions with skewness > 0.3; most-frequent partition projection).
func (r *Runner) Fig1() error {
	t := newTable(r.cfg.Out, "dataset", "dims", "skew-min", "skew-p50", "skew-max", "skew-mean", "frac>0.3")
	for _, spec := range specs() {
		c := r.load(spec.name)
		sk := c.data.Skewness()
		sorted := append([]float64(nil), sk...)
		sort.Float64s(sorted)
		over := 0
		mean := 0.0
		for _, v := range sk {
			mean += v
			if v > 0.3 {
				over++
			}
		}
		mean /= float64(len(sk))
		t.row(spec.name, len(sk), sorted[0], sorted[len(sorted)/2], sorted[len(sorted)-1],
			mean, fmt.Sprintf("%.2f", float64(over)/float64(len(sk))))
	}
	t.flush()
	return nil
}

// Fig2a reproduces Fig. 2(a): the decomposition of GPH query time
// into threshold allocation, candidate generation (the fused
// signature-enumeration + index-probe loop), and verification. The
// paper's claim under test: allocation + enumeration are a negligible
// share at realistic thresholds, which justifies ignoring them in the
// cost model; with the fused loop, enumeration is inseparable from
// probing, so the share column reports allocation alone (an upper
// bound on the paper's number is alloc + candgen).
func (r *Runner) Fig2a() error {
	t := newTable(r.cfg.Out, "dataset", "tau", "alloc(ms)", "candgen(ms)", "verify(ms)", "alloc share")
	for _, name := range []string{"sift", "gist", "pubchem"} {
		c := r.load(name)
		ix, err := r.buildGPH(c, 0)
		if err != nil {
			return err
		}
		for _, tau := range c.spec.taus {
			var alloc, probe, verify int64
			for _, q := range c.queries {
				_, st, err := ix.SearchStats(q, tau)
				if err != nil {
					return err
				}
				alloc += st.AllocNanos
				probe += st.ProbeNanos
				verify += st.VerifyNanos
			}
			n := int64(len(c.queries))
			total := alloc + probe + verify
			share := float64(alloc) / float64(max64(total, 1))
			t.row(name, tau, ms(alloc/n), ms(probe/n), ms(verify/n),
				fmt.Sprintf("%.1f%%", 100*share))
		}
	}
	t.flush()
	return nil
}

// Fig2b reproduces Fig. 2(b): Σ|I_s| (the upper bound the cost model
// uses) versus the true |S_cand|, whose ratio is the α of Eq. 1. The
// paper measures α ∈ [0.69, 0.98] depending on dataset and τ.
func (r *Runner) Fig2b() error {
	t := newTable(r.cfg.Out, "dataset", "tau", "sum|I_s|", "|S_cand|", "alpha")
	for _, name := range []string{"sift", "gist", "pubchem"} {
		c := r.load(name)
		ix, err := r.buildGPH(c, 0)
		if err != nil {
			return err
		}
		for _, tau := range c.spec.taus {
			var sum, cand int64
			scanned := 0
			for _, q := range c.queries {
				_, st, err := ix.SearchStats(q, tau)
				if err != nil {
					return err
				}
				if st.Scanned {
					scanned++ // α is an index-mode quantity; scans have no postings
					continue
				}
				sum += st.SumPostings
				cand += int64(st.Candidates)
			}
			if sum == 0 {
				t.row(name, tau, sum, cand, fmt.Sprintf("n/a (%d/%d scanned)", scanned, len(c.queries)))
				continue
			}
			alpha := float64(cand) / float64(sum)
			t.row(name, tau, sum, cand, fmt.Sprintf("%.2f", alpha))
		}
	}
	t.flush()
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
