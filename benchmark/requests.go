package main

import (
	"math/bits"
	"math/rand"
	"slices"

	"gph"
)

// The corpus and the index build are fixed by these seeds; -seed
// drives the request list (which vectors are queried, which bits are
// flipped, where repeats fall, which vectors churn). A GPH build runs
// a hill-climbing partition refinement whose end point depends on the
// data: on uqvideo-like corpora two seeds land in partitionings whose
// per-query cost differs by 50 %, so a seed-dependent corpus would
// turn every latency metric into a property of the seed.
const (
	corpusSeed = 1
	buildSeed  = 1
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// perturb returns a copy of v with flips distinct random bits flipped.
func perturb(rng *rand.Rand, v gph.Vector, flips int) gph.Vector {
	q := v.Clone()
	for _, b := range rng.Perm(q.Dims())[:flips] {
		q.Flip(b)
	}
	return q
}

// sampleQueries returns count queries, each a distinct corpus vector
// with flips bits flipped, together with the corpus index each came
// from.
func sampleQueries(rng *rand.Rand, data []gph.Vector, count, flips int) (queries []gph.Vector, source []int) {
	source = rng.Perm(len(data))[:count]
	queries = make([]gph.Vector, count)
	for i, j := range source {
		queries[i] = perturb(rng, data[j], flips)
	}
	return queries, source
}

// repeatSchedule lays total requests over distinct queries so that a
// query's first occurrence always precedes its repeats: slot 0 and
// distinct-1 other random slots introduce the next new query, every
// other slot repeats a uniformly chosen earlier one. schedule[i] is
// the query of slot i; first[i] tells whether slot i is a first
// occurrence (a cache miss in every pass) or a repeat (a hit).
func repeatSchedule(rng *rand.Rand, total, distinct int) (schedule []int, first []bool) {
	first = make([]bool, total)
	first[0] = true
	for _, s := range rng.Perm(total - 1)[:distinct-1] {
		first[s+1] = true
	}
	schedule = make([]int, total)
	introduced := 0
	for i := range schedule {
		if first[i] {
			schedule[i] = introduced
			introduced++
		} else {
			schedule[i] = rng.Intn(introduced)
		}
	}
	return schedule, first
}

// hammingLoop is the oracle's distance: a plain popcount loop that
// shares no code with the kernels under test.
func hammingLoop(a, b []uint64) int {
	d := 0
	for i := range a {
		d += bits.OnesCount64(a[i] ^ b[i])
	}
	return d
}

// oracleWithin returns, ascending, the indices of vecs within Hamming
// distance tau of q.
func oracleWithin(vecs []gph.Vector, q gph.Vector, tau int) []int32 {
	var out []int32
	qw := q.Words()
	for j, v := range vecs {
		if hammingLoop(qw, v.Words()) <= tau {
			out = append(out, int32(j))
		}
	}
	return out
}

// liveModel is the runner's own picture of an updatable index: every
// vector it ever held and the id it is live under (-1 when deleted).
type liveModel struct {
	vecs []gph.Vector
	ids  []int32
}

func newLiveModel(base []gph.Vector) *liveModel {
	m := &liveModel{vecs: append([]gph.Vector(nil), base...), ids: make([]int32, len(base))}
	for i := range m.ids {
		m.ids[i] = int32(i)
	}
	return m
}

func (m *liveModel) live() int {
	n := 0
	for _, id := range m.ids {
		if id >= 0 {
			n++
		}
	}
	return n
}

// expected maps an oracle answer (indices into vecs) to the ascending
// ids the index must return right now.
func (m *liveModel) expected(near []int32) []int32 {
	out := make([]int32, 0, len(near))
	for _, j := range near {
		if id := m.ids[j]; id >= 0 {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}
