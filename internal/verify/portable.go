// Portable (pure-Go) batch kernels. The inner loops are specialized
// by words-per-vector: one- and two-word vectors (≤ 128 dims) get
// fully unrolled popcount chains with a single threshold compare per
// candidate — a branch per word costs more than the extra popcounts —
// four-word vectors keep a candidate with no branch at all, and wide
// vectors accumulate in 2-word strides, early-aborting the moment the
// running distance exceeds tau.
package verify

import "math/bits"

// filterPortable dispatches FilterWithin to the width-specialized
// loop. qw is the query's packed words; ids is filtered in place.
//
//gph:hotpath
func filterPortable(c *Codes, qw []uint64, tau int, ids []int32) []int32 {
	switch c.w {
	case 1:
		return filterW1(c.words, qw[0], tau, ids)
	case 2:
		return filterW2(c.words, qw[0], qw[1], tau, ids)
	case 4:
		return filterW4(c.words, qw[0], qw[1], qw[2], qw[3], tau, ids)
	default:
		return filterGeneric(c.words, c.w, qw, tau, ids)
	}
}

// filterW1 is the one-word (≤ 64 dims) filter, unrolled four
// candidates at a time so the popcounts pipeline.
//
//gph:hotpath
func filterW1(words []uint64, q0 uint64, tau int, ids []int32) []int32 {
	k, i := 0, 0
	for ; i+4 <= len(ids); i += 4 {
		a, b, c, d := ids[i], ids[i+1], ids[i+2], ids[i+3]
		da := bits.OnesCount64(words[a] ^ q0)
		db := bits.OnesCount64(words[b] ^ q0)
		dc := bits.OnesCount64(words[c] ^ q0)
		dd := bits.OnesCount64(words[d] ^ q0)
		if da <= tau {
			ids[k] = a
			k++
		}
		if db <= tau {
			ids[k] = b
			k++
		}
		if dc <= tau {
			ids[k] = c
			k++
		}
		if dd <= tau {
			ids[k] = d
			k++
		}
	}
	for ; i < len(ids); i++ {
		id := ids[i]
		if bits.OnesCount64(words[id]^q0) <= tau {
			ids[k] = id
			k++
		}
	}
	return ids[:k]
}

// filterW2 is the two-word (≤ 128 dims) filter: full unrolled
// distance, one compare per candidate.
//
//gph:hotpath
func filterW2(words []uint64, q0, q1 uint64, tau int, ids []int32) []int32 {
	k := 0
	for _, id := range ids {
		j := int(id) * 2
		row := words[j : j+2 : j+2]
		d := bits.OnesCount64(row[0]^q0) + bits.OnesCount64(row[1]^q1)
		if d <= tau {
			ids[k] = id
			k++
		}
	}
	return ids[:k]
}

// filterW4 is the four-word (≤ 256 dims) filter: all four popcounts a
// candidate, every candidate stored at the output's end and kept by
// advancing it by d ≤ τ (within), with no branch. An early reject after
// two words saves two popcounts on a far row but mispredicts wherever
// near and far candidates mix, as they do among a selective query's.
//
//gph:hotpath
func filterW4(words []uint64, q0, q1, q2, q3 uint64, tau int, ids []int32) []int32 {
	k := 0
	for _, id := range ids {
		j := int(id) * 4
		row := words[j : j+4 : j+4]
		d := bits.OnesCount64(row[0]^q0) + bits.OnesCount64(row[1]^q1) +
			bits.OnesCount64(row[2]^q2) + bits.OnesCount64(row[3]^q3)
		ids[k] = id
		k += within(d, tau)
	}
	return ids[:k]
}

// within returns 1 if d ≤ tau, else 0, with no branch: the sign bit of
// d − tau − 1.
func within(d, tau int) int { return int(uint(d-tau-1) >> 63) }

// filterGeneric handles every other width (w = 3 or w ≥ 5) with the
// accumulator inlined: the real corpora this path serves (PubChem-like
// fingerprints) front-load their bit density, so the first two words
// carry most of the distance and a head check on them rejects nearly
// every non-neighbour on one predictable branch, without paying a
// per-candidate call into distWithin.
//
//gph:hotpath
func filterGeneric(words []uint64, w int, qw []uint64, tau int, ids []int32) []int32 {
	qw = qw[:w:w] // bounds-check elimination for qw[j] below
	k := 0
	for _, id := range ids {
		base := int(id) * w
		row := words[base : base+w : base+w]
		d := bits.OnesCount64(row[0]^qw[0]) + bits.OnesCount64(row[1]^qw[1])
		if d > tau {
			continue
		}
		j := 2
		for ; j+2 <= w; j += 2 {
			d += bits.OnesCount64(row[j]^qw[j]) + bits.OnesCount64(row[j+1]^qw[j+1])
			if d > tau {
				break
			}
		}
		if d > tau {
			continue
		}
		if j < w {
			d += bits.OnesCount64(row[j] ^ qw[j])
		}
		if d <= tau {
			ids[k] = id
			k++
		}
	}
	return ids[:k]
}

// distWithin reports whether the distance between row and qw is ≤ tau,
// accumulating popcounts in unrolled 2-word strides and aborting as
// soon as the running distance exceeds tau. Two words per abort test
// is the measured sweet spot for the wide sparse corpora (PubChem):
// partial sums cross practical taus within a few words, so a finer
// stride saves more popcounts than its extra branches cost. Boundary
// agreement with bitvec.HammingWithin: the abort only fires when
// d > tau already holds, so for tau >= dims it never fires and for
// tau = 0 the first differing stride rejects — identical accept sets.
//
//gph:hotpath
func distWithin(row, qw []uint64, tau int) bool {
	qw = qw[:len(row)] // bounds-check elimination for qw[j] below
	d, j := 0, 0
	for ; j+2 <= len(row); j += 2 {
		d += bits.OnesCount64(row[j]^qw[j]) + bits.OnesCount64(row[j+1]^qw[j+1])
		if d > tau {
			return false
		}
	}
	for ; j < len(row); j++ {
		d += bits.OnesCount64(row[j] ^ qw[j])
	}
	return d <= tau
}

// distFull returns the exact distance between row and qw (no abort),
// unrolled in 4-word strides; the streaming block kernels need every
// survivor's true distance anyway.
//
//gph:hotpath
func distFull(row, qw []uint64) int {
	qw = qw[:len(row)] // bounds-check elimination for qw[j] below
	d, j := 0, 0
	for ; j+4 <= len(row); j += 4 {
		d += bits.OnesCount64(row[j]^qw[j]) + bits.OnesCount64(row[j+1]^qw[j+1]) +
			bits.OnesCount64(row[j+2]^qw[j+2]) + bits.OnesCount64(row[j+3]^qw[j+3])
	}
	for ; j < len(row); j++ {
		d += bits.OnesCount64(row[j] ^ qw[j])
	}
	return d
}

// scanPortable dispatches AppendWithin: one sequential pass over the
// arena, appending matching ids in ascending order.
//
//gph:hotpath
func scanPortable(c *Codes, qw []uint64, tau int, dst []int32) []int32 {
	switch c.w {
	case 1:
		q0 := qw[0]
		for id, w := range c.words {
			if bits.OnesCount64(w^q0) <= tau {
				dst = append(dst, int32(id))
			}
		}
	case 2:
		q0, q1 := qw[0], qw[1]
		for id := 0; id < c.n; id++ {
			j := id * 2
			row := c.words[j : j+2 : j+2]
			if bits.OnesCount64(row[0]^q0)+bits.OnesCount64(row[1]^q1) <= tau {
				dst = append(dst, int32(id))
			}
		}
	case 4:
		q0, q1, q2, q3 := qw[0], qw[1], qw[2], qw[3]
		for id := 0; id < c.n; id++ {
			j := id * 4
			row := c.words[j : j+4 : j+4]
			d := bits.OnesCount64(row[0]^q0) + bits.OnesCount64(row[1]^q1) +
				bits.OnesCount64(row[2]^q2) + bits.OnesCount64(row[3]^q3)
			if d <= tau {
				dst = append(dst, int32(id))
			}
		}
	default:
		w := c.w
		for id := 0; id < c.n; id++ {
			j := id * w
			if distWithin(c.words[j:j+w:j+w], qw, tau) {
				dst = append(dst, int32(id))
			}
		}
	}
	return dst
}

// gatherPortable fills dst[j] with the distance to ids[j].
//
//gph:hotpath
func gatherPortable(c *Codes, qw []uint64, ids []int32, dst []int32) {
	w := c.w
	for j, id := range ids {
		r := int(id) * w
		dst[j] = int32(distFull(c.words[r:r+w:r+w], qw))
	}
}

// seqPortable fills dst[j] with the distance to row base+j.
//
//gph:hotpath
func seqPortable(c *Codes, qw []uint64, base int, dst []int32) {
	w := c.w
	for j := range dst {
		r := (base + j) * w
		dst[j] = int32(distFull(c.words[r:r+w:r+w], qw))
	}
}
