// Package dataset generates the binary-vector corpora used throughout
// this reproduction. The GPH paper evaluates on five real datasets
// (SIFT, GIST, PubChem, FastText, UQVideo) plus a synthetic skew
// study; the raw corpora are not redistributable, so this package
// provides seeded generators that reproduce the *statistical
// properties the paper's experiments exercise*: per-dimension skewness
// profiles (paper Fig. 1), dimension correlations, and near-duplicate
// clustering. DESIGN.md §3 documents each substitution.
//
// All generators are deterministic given a seed.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"gph/internal/bitvec"
)

// Dataset is an immutable collection of equal-dimensional binary
// vectors together with the generation metadata the experiment
// harness reports.
type Dataset struct {
	Name    string
	Dims    int
	Vectors []bitvec.Vector
}

// Len returns the number of vectors.
func (d *Dataset) Len() int { return len(d.Vectors) }

// Skewness returns the per-dimension skewness |#1s − #0s| / #data, the
// measure defined in footnote 2 of the paper and plotted in Fig. 1.
func (d *Dataset) Skewness() []float64 {
	ones := make([]int, d.Dims)
	for _, v := range d.Vectors {
		for _, i := range v.OnesIndices() {
			ones[i]++
		}
	}
	out := make([]float64, d.Dims)
	n := float64(len(d.Vectors))
	if n == 0 {
		return out
	}
	for i, c := range ones {
		out[i] = math.Abs(float64(c)-(n-float64(c))) / n
	}
	return out
}

// MeanSkewness returns the average of Skewness over dimensions.
func (d *Dataset) MeanSkewness() float64 {
	s := d.Skewness()
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// Split removes count vectors (deterministically, spread across the
// dataset) to use as queries and returns (data, queries), mirroring
// the paper's setup of sampling query vectors and keeping the rest as
// data objects. It panics if count ≥ Len().
func (d *Dataset) Split(count int) (*Dataset, []bitvec.Vector) {
	if count <= 0 || count >= d.Len() {
		panic(fmt.Sprintf("dataset: Split count %d out of range (1,%d)", count, d.Len()))
	}
	stride := d.Len() / count
	queries := make([]bitvec.Vector, 0, count)
	rest := make([]bitvec.Vector, 0, d.Len()-count)
	for i, v := range d.Vectors {
		if i%stride == 0 && len(queries) < count {
			queries = append(queries, v)
		} else {
			rest = append(rest, v)
		}
	}
	return &Dataset{Name: d.Name, Dims: d.Dims, Vectors: rest}, queries
}

// profile describes a generator: per-dimension probability of a 1 bit
// plus correlated blocks implemented with shared latent bits.
type profile struct {
	name   string
	dims   int
	p      []float64 // probability dimension i is 1, absent block override
	blocks []block
}

// block couples a contiguous dimension range to a latent Bernoulli
// variable: with probability strength a dimension copies the latent
// bit (XOR its polarity), otherwise it draws independently.
type block struct {
	lo, hi   int     // dimension range [lo, hi)
	latentP  float64 // P(latent = 1)
	strength float64 // correlation strength in [0,1]
}

// Stream produces a generator's vectors one at a time, in the exact
// order the materializing API returns them: draining a stream yields
// the same vectors — and SaveStream the same bytes — as building the
// Dataset in memory, because both run the identical RNG sequence.
// Streams exist so corpora far larger than memory (100M+ vectors) can
// be written with O(1) resident vectors; a Stream is single-use.
type Stream struct {
	Name string
	Dims int
	n    int
	pos  int
	next func() bitvec.Vector
}

// Len returns the total number of vectors the stream will produce.
func (s *Stream) Len() int { return s.n }

// Next returns the next vector, or false once Len vectors have been
// produced.
func (s *Stream) Next() (bitvec.Vector, bool) {
	if s.pos >= s.n {
		return bitvec.Vector{}, false
	}
	s.pos++
	return s.next(), true
}

// Materialize drains the stream into a Dataset. The materializing
// generators are defined as Materialize over their streams, which is
// what pins stream and in-memory output to be identical.
func (s *Stream) Materialize() *Dataset {
	ds := &Dataset{Name: s.Name, Dims: s.Dims, Vectors: make([]bitvec.Vector, 0, s.n)}
	for {
		v, ok := s.Next()
		if !ok {
			return ds
		}
		ds.Vectors = append(ds.Vectors, v)
	}
}

func newProfileStream(pr profile, n int, seed int64) *Stream {
	rng := rand.New(rand.NewSource(seed))
	latent := make([]bool, len(pr.blocks))
	return &Stream{Name: pr.name, Dims: pr.dims, n: n, next: func() bitvec.Vector {
		v := bitvec.New(pr.dims)
		// Latent draws for this vector.
		for bi, b := range pr.blocks {
			latent[bi] = rng.Float64() < b.latentP
		}
		for i := 0; i < pr.dims; i++ {
			bit := rng.Float64() < pr.p[i]
			for bi, b := range pr.blocks {
				if i >= b.lo && i < b.hi && rng.Float64() < b.strength {
					bit = latent[bi]
				}
			}
			if bit {
				v.Set(i)
			}
		}
		return v
	}}
}

// SIFTLike emulates the binarized SIFT corpus: 128 dimensions with
// near-zero skewness (paper Fig. 1 shows SIFT as the least skewed
// dataset) and only weak local correlation.
func SIFTLike(n int, seed int64) *Dataset { return SIFTStream(n, seed).Materialize() }

// SIFTStream is the streaming form of SIFTLike.
func SIFTStream(n int, seed int64) *Stream {
	rng := rand.New(rand.NewSource(seed ^ 0x51f7))
	const dims = 128
	p := make([]float64, dims)
	for i := range p {
		p[i] = 0.5 + (rng.Float64()-0.5)*0.1 // skewness ≤ 0.05
	}
	var blocks []block
	for lo := 0; lo+4 <= dims; lo += 16 {
		blocks = append(blocks, block{lo: lo, hi: lo + 4, latentP: 0.5, strength: 0.25})
	}
	return newProfileStream(profile{name: "SIFT", dims: dims, p: p, blocks: blocks}, n, seed)
}

// GISTLike emulates binary GIST descriptors: 256 dimensions whose
// skewness ramps from ~0 to ~0.5 with medium-strength 8-dimension
// correlation blocks, giving partitions of heterogeneous selectivity.
func GISTLike(n int, seed int64) *Dataset { return GISTStream(n, seed).Materialize() }

// GISTStream is the streaming form of GISTLike.
func GISTStream(n int, seed int64) *Stream {
	const dims = 256
	p := make([]float64, dims)
	for i := range p {
		skew := 0.5 * float64(i) / float64(dims-1) // 0 .. 0.5
		p[i] = (1 - skew) / 2
	}
	var blocks []block
	for lo := 0; lo+8 <= dims; lo += 8 {
		blocks = append(blocks, block{lo: lo, hi: lo + 8, latentP: p[lo], strength: 0.55})
	}
	return newProfileStream(profile{name: "GIST", dims: dims, p: p, blocks: blocks}, n, seed)
}

// PubChemLike emulates PubChem substructure fingerprints: 881
// dimensions with a Zipf-like density profile (a handful of common
// substructure bits, a long tail of rare ones) and strong 16-bit
// substructure blocks. This reproduces the paper's highly skewed case
// where ≥10% of the data can share one partition projection.
func PubChemLike(n int, seed int64) *Dataset { return PubChemStream(n, seed).Materialize() }

// PubChemStream is the streaming form of PubChemLike.
func PubChemStream(n int, seed int64) *Stream {
	const dims = 881
	p := make([]float64, dims)
	for i := range p {
		p[i] = math.Min(0.85, 1.6/math.Pow(float64(i+2), 0.55))
	}
	var blocks []block
	for lo := 0; lo+16 <= dims; lo += 16 {
		blocks = append(blocks, block{lo: lo, hi: lo + 16, latentP: p[lo+8], strength: 0.75})
	}
	return newProfileStream(profile{name: "PubChem", dims: dims, p: p, blocks: blocks}, n, seed)
}

// FastTextLike emulates spectral-hashed word vectors: 128 dimensions,
// high skewness (0.3–0.9) with strongly correlated sign blocks.
func FastTextLike(n int, seed int64) *Dataset { return FastTextStream(n, seed).Materialize() }

// FastTextStream is the streaming form of FastTextLike.
func FastTextStream(n int, seed int64) *Stream {
	rng := rand.New(rand.NewSource(seed ^ 0xfa57))
	const dims = 128
	p := make([]float64, dims)
	for i := range p {
		skew := 0.3 + 0.6*rng.Float64() // 0.3 .. 0.9
		if rng.Intn(2) == 0 {
			p[i] = (1 - skew) / 2
		} else {
			p[i] = (1 + skew) / 2
		}
	}
	var blocks []block
	for lo := 0; lo+8 <= dims; lo += 8 {
		blocks = append(blocks, block{lo: lo, hi: lo + 8, latentP: p[lo], strength: 0.65})
	}
	return newProfileStream(profile{name: "FastText", dims: dims, p: p, blocks: blocks}, n, seed)
}

// UQVideoLike emulates multiple-feature-hashed video keyframes: 256
// dimensions organized as clusters of near-duplicate frames (each
// video contributes a burst of frames within small Hamming distance of
// a centroid) over a medium-skew background.
func UQVideoLike(n int, seed int64) *Dataset { return UQVideoStream(n, seed).Materialize() }

// UQVideoStream is the streaming form of UQVideoLike. The centroids
// are drawn up front — one per 40 output vectors, the only generator
// state that grows with n — and each Next derives one frame from a
// random centroid.
func UQVideoStream(n int, seed int64) *Stream {
	rng := rand.New(rand.NewSource(seed ^ 0x09de0))
	const dims = 256
	const flipP = 0.04 // per-bit deviation from the video centroid
	numVideos := n / 40
	if numVideos < 1 {
		numVideos = 1
	}
	centroids := make([]bitvec.Vector, numVideos)
	for c := range centroids {
		v := bitvec.New(dims)
		for i := 0; i < dims; i++ {
			skew := 0.35 * float64(i%64) / 63.0
			if rng.Float64() < (1-skew)/2 {
				v.Set(i)
			}
		}
		centroids[c] = v
	}
	return &Stream{Name: "UQVideo", Dims: dims, n: n, next: func() bitvec.Vector {
		v := centroids[rng.Intn(numVideos)].Clone()
		for i := 0; i < dims; i++ {
			if rng.Float64() < flipP {
				v.Flip(i)
			}
		}
		return v
	}}
}

// Synthetic reproduces the paper's §VII-G generator: dims dimensions
// whose skewness values are spread uniformly over [0, 2γ], so the
// mean skewness is γ. Polarity alternates so skew is not confounded
// with density.
func Synthetic(n, dims int, gamma float64, seed int64) *Dataset {
	return SyntheticStream(n, dims, gamma, seed).Materialize()
}

// SyntheticStream is the streaming form of Synthetic.
func SyntheticStream(n, dims int, gamma float64, seed int64) *Stream {
	if gamma < 0 || gamma > 0.5 {
		panic(fmt.Sprintf("dataset: Synthetic gamma %v out of range [0, 0.5]", gamma))
	}
	p := make([]float64, dims)
	for i := range p {
		skew := 2 * gamma * float64(i) / float64(max(dims-1, 1)) // 0 .. 2γ
		if i%2 == 0 {
			p[i] = (1 - skew) / 2
		} else {
			p[i] = (1 + skew) / 2
		}
	}
	var blocks []block
	for lo := 0; lo+8 <= dims; lo += 32 {
		blocks = append(blocks, block{lo: lo, hi: lo + 8, latentP: 0.5, strength: 0.4})
	}
	return newProfileStream(profile{
		name: fmt.Sprintf("Synthetic-%.2f", gamma), dims: dims, p: p, blocks: blocks,
	}, n, seed)
}

// ByName returns the named generator ("sift", "gist", "pubchem",
// "fasttext", "uqvideo") so CLI tools can select datasets by flag.
func ByName(name string, n int, seed int64) (*Dataset, error) {
	switch name {
	case "sift":
		return SIFTLike(n, seed), nil
	case "gist":
		return GISTLike(n, seed), nil
	case "pubchem":
		return PubChemLike(n, seed), nil
	case "fasttext":
		return FastTextLike(n, seed), nil
	case "uqvideo":
		return UQVideoLike(n, seed), nil
	default:
		return nil, fmt.Errorf("dataset: unknown generator %q (want sift|gist|pubchem|fasttext|uqvideo)", name)
	}
}

// StreamByName is the streaming form of ByName.
func StreamByName(name string, n int, seed int64) (*Stream, error) {
	switch name {
	case "sift":
		return SIFTStream(n, seed), nil
	case "gist":
		return GISTStream(n, seed), nil
	case "pubchem":
		return PubChemStream(n, seed), nil
	case "fasttext":
		return FastTextStream(n, seed), nil
	case "uqvideo":
		return UQVideoStream(n, seed), nil
	default:
		return nil, fmt.Errorf("dataset: unknown generator %q (want sift|gist|pubchem|fasttext|uqvideo)", name)
	}
}

// PerturbQueries derives count queries from dataset vectors by
// flipping flips random bits in each; useful for workloads that should
// have non-zero distance to their nearest neighbours.
func PerturbQueries(d *Dataset, count, flips int, seed int64) []bitvec.Vector {
	rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
	out := make([]bitvec.Vector, count)
	for i := range out {
		v := d.Vectors[rng.Intn(d.Len())].Clone()
		for f := 0; f < flips; f++ {
			v.Flip(rng.Intn(d.Dims))
		}
		out[i] = v
	}
	return out
}
