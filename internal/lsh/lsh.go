// Package lsh implements the MinHash LSH baseline of the GPH paper's
// experiments (§VII-A): the Hamming constraint is converted to an
// equivalent Jaccard similarity constraint over the vectors' 1-bit
// sets; k minhashes are concatenated into a band signature and
// repeated across l tables sized for a target recall. LSH is
// approximate — it can miss results — and, as the paper shows, its
// selectivity collapses on highly skewed data because the hash
// functions sample skewed, correlated dimensions. The index
// implements the full engine contract and is the one registered
// engine with Exact() == false.
package lsh

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sync"

	"gph/internal/binio"
	"gph/internal/bitvec"
	"gph/internal/engine"
	"gph/internal/invindex"
	"gph/internal/verify"
)

// Index implements the engine contract.
var _ engine.Engine = (*Index)(nil)

// EngineName is the registry name of the MinHash LSH engine.
const EngineName = "lsh"

// indexMagic identifies the persisted form: build threshold, options
// and the raw collection; the hash tables are rebuilt
// deterministically from the persisted seed on Load.
const indexMagic = "GPHLH02\n"

// maxTables is the largest MaxTables Build takes. Load rebuilds the
// tables a file's options ask for, so without it a file of a few hundred
// bytes could ask a loader for millions.
const maxTables = 1 << 12

// Options configures Build.
type Options struct {
	// K is the minhashes per band signature (paper: 3).
	K int
	// Recall is the target probability of retrieving a true result
	// (paper: 0.95).
	Recall float64
	// MaxTables caps l to bound memory (default 256, at most maxTables).
	MaxTables int
	// Seed drives hash function generation.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = 3
	}
	if o.Recall <= 0 || o.Recall >= 1 {
		o.Recall = 0.95
	}
	if o.MaxTables <= 0 {
		o.MaxTables = 256
	}
	return o
}

// Index is an immutable MinHash LSH index built for a specific τ.
type Index struct {
	tau    int
	codes  *verify.Codes // the rows, the one copy of them
	opts   Options
	tables []*invindex.Frozen
	// hash function parameters, one (a, b) pair per table per row
	ha, hb []uint64
	// jaccardT is the converted threshold; JaccardThreshold exposes it
	jaccardT float64

	// scratch pools per-query working memory (seen bitmap, candidate
	// slice, set dimensions, signature buffer) so steady-state searches
	// allocate only the returned result slice.
	scratch sync.Pool
}

// Stats is the shared per-query accounting type; LSH fills the
// candidate-accounting subset.
type Stats = engine.Stats

const hashPrime = (1 << 31) - 1 // Mersenne prime for universal hashing

// Build constructs the index over a packed copy of data for queries at
// threshold tau.
func Build(data []bitvec.Vector, tau int, opts Options) (*Index, error) {
	if _, err := engine.CheckBuild(data); err != nil {
		return nil, fmt.Errorf("lsh: %w", err)
	}
	return newIndex(verify.Pack(data), tau, opts.withDefaults())
}

// newIndex builds the index over codes, which it keeps, for threshold
// tau under resolved options opts: the hash functions, drawn from
// opts.Seed, and the tables. Build and Load both end here. The
// Hamming→Jaccard conversion uses the collection's mean popcount a:
// H(x,q) ≤ τ implies J(x,q) ≥ (2a−τ)/(2a+τ) for |x| ≈ |q| ≈ a.
func newIndex(codes *verify.Codes, tau int, opts Options) (*Index, error) {
	if err := engine.CheckBuildTau(tau); err != nil {
		return nil, fmt.Errorf("lsh: %w", err)
	}
	if opts.K <= 0 || opts.K > 64 {
		return nil, fmt.Errorf("lsh: implausible band size %d", opts.K)
	}
	if !(opts.Recall > 0 && opts.Recall < 1) {
		return nil, fmt.Errorf("lsh: implausible recall %v", opts.Recall)
	}
	if opts.MaxTables <= 0 {
		return nil, fmt.Errorf("lsh: implausible table cap %d", opts.MaxTables)
	}
	if opts.MaxTables > maxTables {
		return nil, fmt.Errorf("lsh: a cap of %d tables, more than %d", opts.MaxTables, maxTables)
	}
	n := codes.Len()
	var popSum float64
	for id := range n {
		popSum += float64(codes.Row(int32(id)).PopCount())
	}
	a := popSum / float64(n)
	t := (2*a - float64(tau)) / (2*a + float64(tau))
	t = math.Max(0.05, math.Min(0.95, t))
	l := int(math.Ceil(math.Log(1-opts.Recall) / math.Log(1-math.Pow(t, float64(opts.K)))))
	if l < 1 {
		l = 1
	}
	if l > opts.MaxTables {
		l = opts.MaxTables
	}

	ix := &Index{tau: tau, codes: codes, opts: opts, jaccardT: t}
	rng := rand.New(rand.NewSource(opts.Seed ^ 0x15a4))
	ix.ha = make([]uint64, l*opts.K)
	ix.hb = make([]uint64, l*opts.K)
	for i := range ix.ha {
		ix.ha[i] = uint64(rng.Int63n(hashPrime-1) + 1)
		ix.hb[i] = uint64(rng.Int63n(hashPrime))
	}
	ix.tables = make([]*invindex.Frozen, l)
	words := ix.sigWords()
	rows := make([]uint64, n*words)
	var ones []int
	for ti := 0; ti < l; ti++ {
		for id := range n {
			ones = codes.Row(int32(id)).AppendOnes(ones[:0])
			ix.signature(ones, ti, rows[id*words:(id+1)*words])
		}
		ix.tables[ti] = invindex.FreezeRows(n, 1, 32*opts.K, rows)
	}
	return ix, nil
}

// sigWords is the words a band signature takes: K 32-bit minhashes, two
// a word.
func (ix *Index) sigWords() int { return (ix.opts.K + 1) / 2 }

// signature writes table ti's band signature of the vector whose set
// dimensions are ones into sig: minhash r in bits [32·(r mod 2),
// 32·(r mod 2) + 32) of word r/2.
func (ix *Index) signature(ones []int, ti int, sig []uint64) {
	clear(sig)
	for r := 0; r < ix.opts.K; r++ {
		h := ix.ha[ti*ix.opts.K+r]
		b := ix.hb[ti*ix.opts.K+r]
		minV := uint64(math.MaxUint64)
		if len(ones) == 0 {
			// Empty set: hash the sentinel element n so empty vectors
			// collide with each other, not with everything.
			minV = (h*uint64(ix.Dims()) + b) % hashPrime
		}
		for _, e := range ones {
			hv := (h*uint64(e) + b) % hashPrime
			if hv < minV {
				minV = hv
			}
		}
		sig[r/2] |= minV << (32 * (r % 2))
	}
}

// Tau returns the threshold the index was built for.
func (ix *Index) Tau() int { return ix.tau }

// Dims returns the dimensionality.
func (ix *Index) Dims() int { return ix.codes.Dims() }

// Name returns the registry name "lsh".
func (ix *Index) Name() string { return EngineName }

// Exact reports false: LSH can miss true results (recall is tuned by
// Options.Recall).
func (ix *Index) Exact() bool { return false }

// MaxTau returns the build threshold: the Hamming→Jaccard conversion
// and table sizing target it, so larger query thresholds are rejected.
func (ix *Index) MaxTau() int { return ix.tau }

// Vector returns the indexed vector with id ∈ [0, Len()). The vector
// shares storage with the index and must not be modified.
func (ix *Index) Vector(id int32) bitvec.Vector { return ix.codes.Row(id) }

// Tables returns l, the number of hash tables.
func (ix *Index) Tables() int { return len(ix.tables) }

// JaccardThreshold returns the converted similarity threshold.
func (ix *Index) JaccardThreshold() float64 { return ix.jaccardT }

// Len returns the collection size.
func (ix *Index) Len() int { return ix.codes.Len() }

// SizeBytes reports hash-table memory — exact arena accounting on the
// frozen layout (Fig. 6).
func (ix *Index) SizeBytes() int64 {
	var s int64
	for _, t := range ix.tables {
		s += t.SizeBytes()
	}
	return s + int64(len(ix.ha)+len(ix.hb))*8
}

// searchScratch is every buffer one query needs; instances are pooled
// on the Index so the steady-state probe path allocates nothing beyond
// the returned result slice.
type searchScratch struct {
	col    engine.Collector
	ones   []int // the query's set dimensions, shared by every table
	sig    []uint64
	keyBuf []byte
}

// getScratch hands a pooled scratch to the caller, who owes it
// back to the pool on every path out.
func (ix *Index) getScratch() *searchScratch {
	s, _ := ix.scratch.Get().(*searchScratch)
	if s == nil {
		s = &searchScratch{}
	}
	s.col.Reset(ix.Len())
	s.sig = slices.Grow(s.sig[:0], ix.sigWords())[:ix.sigWords()]
	return s
}

// putScratch returns a scratch to the pool, its candidate set empty and
// its bitmap all zero (engine.Collector).
func (ix *Index) putScratch(s *searchScratch) {
	s.col.Set.Reset() // a no-op after FinishVerifiedCodes
	ix.scratch.Put(s)
}

// Search returns ids within distance tau of q found by the hash
// tables, in ascending order. Being LSH, recall is probabilistic:
// roughly Options.Recall of true results are returned; false positives
// are always verified away.
func (ix *Index) Search(q bitvec.Vector, tau int) ([]int32, error) {
	ids, _, err := ix.search(q, tau, false)
	return ids, err
}

// SearchStats is Search with candidate accounting.
func (ix *Index) SearchStats(q bitvec.Vector, tau int) ([]int32, *Stats, error) {
	return ix.search(q, tau, true)
}

func (ix *Index) search(q bitvec.Vector, tau int, wantStats bool) ([]int32, *Stats, error) {
	if err := engine.CheckQuery(q, ix.Dims(), tau); err != nil {
		return nil, nil, fmt.Errorf("lsh: %w", err)
	}
	if err := engine.CheckTauBound(tau, ix.tau); err != nil {
		return nil, nil, fmt.Errorf("lsh: %w", err)
	}
	s := ix.getScratch()
	defer ix.putScratch(s)
	sigs := 0
	var sumPost int64
	s.ones = q.AppendOnes(s.ones[:0])
	for ti, table := range ix.tables {
		ix.signature(s.ones, ti, s.sig)
		sigs++
		sumPost += int64(table.CollectEntry(table.LookupKey(s.sig, &s.keyBuf), &s.col.Set))
	}
	candidates := s.col.Candidates()
	out := s.col.FinishVerifiedCodes(q, tau, ix.codes)
	if !wantStats {
		return out, nil, nil
	}
	return out, &Stats{
		Signatures:  sigs,
		SumPostings: sumPost,
		Candidates:  candidates,
		Results:     len(out),
	}, nil
}

// SearchKNN returns (approximately) the k nearest neighbours of q by
// progressive range expansion capped at the build threshold; being
// LSH, neighbours beyond the tables' recall can be missed (see
// engine.GrowKNN).
func (ix *Index) SearchKNN(q bitvec.Vector, k int) ([]engine.Neighbor, error) {
	return engine.GrowKNN(ix, q, k)
}

// SearchBatch answers many queries concurrently; see
// engine.BatchSearch for the contract.
func (ix *Index) SearchBatch(queries []bitvec.Vector, tau int, parallelism int) ([][]int32, error) {
	return engine.BatchSearch(queries, parallelism, func(q bitvec.Vector) ([]int32, error) {
		return ix.Search(q, tau)
	})
}

// Save serializes the index: magic, build threshold, the resolved
// options and the rows. Load rebuilds the hash tables from
// the persisted seed, reproducing the original tables exactly.
func (ix *Index) Save(w io.Writer) error {
	bw := binio.NewWriter(w)
	bw.Magic(indexMagic)
	bw.Int(ix.tau)
	bw.Int(ix.opts.K)
	bw.Uint64(math.Float64bits(ix.opts.Recall))
	bw.Int(ix.opts.MaxTables)
	bw.Int64(ix.opts.Seed)
	engine.WriteCodes(bw, ix.codes)
	return bw.Flush()
}

// Load reads an index written by Save and rebuilds it over the
// persisted rows, which it keeps where they were read. Construction is
// deterministic given the persisted options, so the rebuilt tables
// match the original index.
func Load(r io.Reader) (*Index, error) {
	br := binio.NewReader(r)
	br.Magic(indexMagic)
	tau := br.Int()
	opts := Options{}
	opts.K = br.Int()
	opts.Recall = math.Float64frombits(br.Uint64())
	opts.MaxTables = br.Int()
	opts.Seed = br.Int64()
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("lsh: %w", err)
	}
	codes, err := engine.ReadCodes(br)
	if err != nil {
		return nil, fmt.Errorf("lsh: %w", err)
	}
	return newIndex(codes, tau, opts)
}

func init() {
	engine.Register(engine.Registration{
		Name:       EngineName,
		Exact:      false,
		TauBounded: true,
		Magic:      indexMagic,
		Build: func(data []bitvec.Vector, opts engine.BuildOptions) (engine.Engine, error) {
			return Build(data, opts.MaxTau, Options{Seed: opts.Seed})
		},
		Load: func(r io.Reader) (engine.Engine, error) { return Load(r) },
	})
}
