package engine

import (
	"fmt"

	"gph/internal/binio"
	"gph/internal/partition"
	"gph/internal/verify"
)

// The persistence helpers below are the shared halves of every
// baseline engine's Save/Load: the rows and (for partition-based
// engines) the dimension arrangement. Each engine's own codec writes
// its magic and scalar options around them and rebuilds its derived
// structures (inverted indexes, hash tables) deterministically on load,
// which keeps the baseline formats small — only GPH persists posting
// lists, because only GPH's structures are expensive to rebuild.

// WriteCodes writes dims, the collection size and every row's packed
// words: the bytes ReadCodes reads.
func WriteCodes(bw *binio.Writer, codes *verify.Codes) {
	bw.Int(codes.Dims())
	bw.Int(codes.Len())
	for id := range codes.Len() {
		for _, word := range codes.Row(int32(id)).Words() {
			bw.Uint64(word)
		}
	}
}

// ReadCodes reads rows written by WriteCodes, validating the header
// bounds before allocating. The rows are one row-major arena wrapped as
// it was read — borrowed, when br borrows from a file mapping — and
// nothing is made a row. Tail bits beyond dims are refused, not masked:
// masking would write to mapped pages.
func ReadCodes(br *binio.Reader) (*verify.Codes, error) {
	dims := br.Int()
	count := br.Int()
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("reading vector header: %w", err)
	}
	if dims <= 0 || dims > 1<<20 {
		return nil, fmt.Errorf("implausible dimension count %d", dims)
	}
	if count <= 0 || count > binio.MaxSliceLen {
		return nil, fmt.Errorf("implausible vector count %d", count)
	}
	arena := br.Uint64Raw(count*((dims+63)/64), "vector arena")
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("reading vector arena: %w", err)
	}
	codes, err := verify.Wrap(count, dims, arena)
	if err != nil {
		return nil, err
	}
	if err := codes.CheckTails(); err != nil {
		return nil, err
	}
	return codes, nil
}

// WritePartitioning writes a dimension arrangement.
func WritePartitioning(bw *binio.Writer, p *partition.Partitioning) {
	bw.Int(p.Dims)
	bw.Int(p.NumParts())
	for _, part := range p.Parts {
		bw.Ints(part)
	}
}

// ReadPartitioning reads an arrangement written by WritePartitioning.
// The engine it is read for validates it (CheckArrangement).
func ReadPartitioning(br *binio.Reader) (*partition.Partitioning, error) {
	dims := br.Int()
	numParts := br.Int()
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("reading partitioning header: %w", err)
	}
	if dims <= 0 || dims > 1<<20 {
		return nil, fmt.Errorf("implausible partitioning dims %d", dims)
	}
	if numParts <= 0 || numParts > dims {
		return nil, fmt.Errorf("implausible partition count %d", numParts)
	}
	p := &partition.Partitioning{Dims: dims, Parts: make([][]int, numParts)}
	for i := range p.Parts {
		p.Parts[i] = br.Ints()
	}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("reading partitioning: %w", err)
	}
	return p, nil
}
