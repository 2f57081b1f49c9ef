package bench

import (
	"strings"
	"testing"
)

// TestLedger runs every artifact at n = 2 000 with 3 queries: each exact
// engine's ids must equal linscan's in every cell, each GPH index of the
// sweep must answer as before after Save and Load, and each section must
// state a claim, a rule, a table and a verdict from the vocabulary.
func TestLedger(t *testing.T) {
	var out strings.Builder
	if err := Ledger(&out, Config{Sizes: []int{2000}, N: 2000, Queries: 3}); err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out.String())
	secs := strings.Split(out.String(), "\n## ")[1:]
	var titles []string
	for _, s := range secs {
		title, _, _ := strings.Cut(s, "\n")
		titles = append(titles, title)
		_, v, ok := strings.Cut(s, "\n**Verdict:** ")
		if !strings.Contains(s, "\n**Claim.** ") || !strings.Contains(s, "\n**Rule.** ") || !strings.Contains(s, "\n|---|") || !ok {
			t.Errorf("%s: no claim, rule, table or verdict", title)
		}
		if !strings.HasPrefix(v, holds+".") && !strings.HasPrefix(v, holdsFrom) && !strings.HasPrefix(v, holdsNot) {
			t.Errorf("%s: verdict %q is not in the vocabulary", title, v)
		}
	}
	want := []string{"Fig. 2(a)", "Fig. 2(b)", "Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6", "Table IV", "Fig. 7", "Fig. 8(d)", "Fig. 8(e–f)"}
	if len(titles) != len(want) {
		t.Fatalf("sections %q, want %q", titles, want)
	}
	for i, w := range want {
		if !strings.HasPrefix(titles[i], w+":") {
			t.Errorf("section %d is %q, want %s", i, titles[i], w)
		}
	}
}

// TestVerdict folds findings at ascending sizes into the vocabulary.
func TestVerdict(t *testing.T) {
	sizes := []int{20_000, 200_000, 1_000_000}
	for _, c := range []struct {
		why  []string
		want string
	}{
		{[]string{"", "", ""}, "holds"},
		{[]string{"x", "", ""}, "holds from n ≥ 2·10⁵"},
		{[]string{"x", "x", ""}, "holds from n ≥ 10⁶"},
		{[]string{"", "y", "z"}, "does not hold here, because at n = 10⁶, z"},
		{[]string{"x", "", "z"}, "does not hold here, because at n = 10⁶, z"},
	} {
		if got := verdict(sizes, c.why); got != c.want {
			t.Errorf("verdict(%q) = %q, want %q", c.why, got, c.want)
		}
	}
	if got := verdict([]int{2000}, []string{"y"}); got != "does not hold here, because y" {
		t.Errorf("one size: %q", got)
	}
}
