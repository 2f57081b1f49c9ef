// Package linscan is the naïve Hamming-search baseline: scan every
// vector and verify. It is the ground-truth oracle for every
// correctness test (including the engine conformance suite) and the
// "sequential scan" reference point the paper compares degenerate
// cases against. It implements the full engine contract, so it can be
// served, sharded and persisted like any other backend — useful as the
// always-correct fallback for tiny collections.
package linscan

import (
	"fmt"
	"io"
	"iter"
	"sort"

	"gph/internal/binio"
	"gph/internal/bitvec"
	"gph/internal/engine"
	"gph/internal/verify"
)

// Scanner implements the engine contract by exhaustive scan.
var _ engine.Engine = (*Scanner)(nil)

// EngineName is the registry name of the linear-scan engine.
const EngineName = "linscan"

// scannerMagic identifies the persisted form: the raw collection,
// nothing else.
const scannerMagic = "GPHLN01\n"

// Scanner answers Hamming distance searches by exhaustive scan.
type Scanner struct {
	codes *verify.Codes // the rows, the one copy of them
}

// New builds a scanner over a packed copy of data.
func New(data []bitvec.Vector) (*Scanner, error) {
	if _, err := engine.CheckBuild(data); err != nil {
		return nil, fmt.Errorf("linscan: %w", err)
	}
	return &Scanner{codes: verify.Pack(data)}, nil
}

// Len returns the collection size.
func (s *Scanner) Len() int { return s.codes.Len() }

// Dims returns the dimensionality.
func (s *Scanner) Dims() int { return s.codes.Dims() }

// Name returns the registry name "linscan".
func (s *Scanner) Name() string { return EngineName }

// Exact reports that a scan returns every true result.
func (s *Scanner) Exact() bool { return true }

// MaxTau returns the largest accepted threshold; a scan has no
// build-time bound, so any threshold up to the dimensionality works.
func (s *Scanner) MaxTau() int { return s.Dims() }

// Vector returns the indexed vector with id ∈ [0, Len()). The vector
// shares storage with the scanner and must not be modified.
func (s *Scanner) Vector(id int32) bitvec.Vector { return s.codes.Row(id) }

// SizeBytes reports resident size: the packed vectors plus, once a
// search has built it, their word-0 column (verify.Codes.SketchBytes).
func (s *Scanner) SizeBytes() int64 { return s.codes.SizeBytes() + s.codes.SketchBytes() }

// Search returns ids of all vectors within distance tau of q, in
// ascending id order.
func (s *Scanner) Search(q bitvec.Vector, tau int) ([]int32, error) {
	ids, _, err := s.search(q, tau, false)
	return ids, err
}

// SearchStats is Search with candidate accounting: a scan verifies
// the whole collection, so Candidates is always Len.
func (s *Scanner) SearchStats(q bitvec.Vector, tau int) ([]int32, *engine.Stats, error) {
	return s.search(q, tau, true)
}

func (s *Scanner) search(q bitvec.Vector, tau int, wantStats bool) ([]int32, *engine.Stats, error) {
	if err := engine.CheckQuery(q, s.Dims(), tau); err != nil {
		return nil, nil, fmt.Errorf("linscan: %w", err)
	}
	out := s.codes.AppendWithin(q, tau, nil)
	if !wantStats {
		return out, nil, nil
	}
	return out, &engine.Stats{Candidates: s.Len(), Results: len(out), Scanned: true}, nil
}

// SearchIter implements engine.Streamer: the scan streams matches in
// ascending id order as each verification block completes. Draining
// the stream yields exactly the ids Search returns.
func (s *Scanner) SearchIter(q bitvec.Vector, tau int) iter.Seq2[engine.Neighbor, error] {
	return func(yield func(engine.Neighbor, error) bool) {
		if err := engine.CheckQuery(q, s.Dims(), tau); err != nil {
			yield(engine.Neighbor{}, fmt.Errorf("linscan: %w", err))
			return
		}
		engine.StreamScan(s.codes, q, tau, yield)
	}
}

// SearchKNN returns the exact k nearest neighbours of q by direct
// selection over the full distance profile, ties broken by ascending
// id. Being independent of the range-growing reduction the other
// engines share, it doubles as the kNN oracle in conformance tests.
func (s *Scanner) SearchKNN(q bitvec.Vector, k int) ([]engine.Neighbor, error) {
	if err := engine.CheckKNN(q, s.Dims(), k); err != nil {
		return nil, fmt.Errorf("linscan: %w", err)
	}
	dist := make([]int32, s.Len())
	s.codes.DistancesSeqInto(q, 0, dist)
	all := make([]engine.Neighbor, len(dist))
	for id, d := range dist {
		all[id] = engine.Neighbor{ID: int32(id), Distance: int(d)}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Distance != all[b].Distance {
			return all[a].Distance < all[b].Distance
		}
		return all[a].ID < all[b].ID
	})
	return all[:min(k, len(all))], nil
}

// SearchBatch answers many queries concurrently; see
// engine.BatchSearch for the contract.
func (s *Scanner) SearchBatch(queries []bitvec.Vector, tau int, parallelism int) ([][]int32, error) {
	return engine.BatchSearch(queries, parallelism, func(q bitvec.Vector) ([]int32, error) {
		return s.Search(q, tau)
	})
}

// Save serializes the scanner: magic plus the raw collection.
func (s *Scanner) Save(w io.Writer) error {
	bw := binio.NewWriter(w)
	bw.Magic(scannerMagic)
	engine.WriteCodes(bw, s.codes)
	return bw.Flush()
}

// Load reads a scanner written by Save.
func Load(r io.Reader) (*Scanner, error) {
	br := binio.NewReader(r)
	br.Magic(scannerMagic)
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("linscan: %w", err)
	}
	codes, err := engine.ReadCodes(br)
	if err != nil {
		return nil, fmt.Errorf("linscan: %w", err)
	}
	return &Scanner{codes: codes}, nil
}

func init() {
	engine.Register(engine.Registration{
		Name:  EngineName,
		Exact: true,
		Magic: scannerMagic,
		Build: func(data []bitvec.Vector, _ engine.BuildOptions) (engine.Engine, error) {
			return New(data)
		},
		Load: func(r io.Reader) (engine.Engine, error) { return Load(r) },
	})
}
