package core

import (
	"fmt"
	"io"

	"gph/internal/binio"
	"gph/internal/bitvec"
	"gph/internal/invindex"
	"gph/internal/partition"
	"gph/internal/verify"
)

// indexMagic identifies the index container format; bump the digit on
// incompatible changes. The layout is head-then-payload for borrow-mode
// opening: every array length lives in the head (posting refs derived
// from the key count, arena byte lengths recorded),
// payloads follow raw with 8-byte alignment padding before the
// word-sized ones, so a load over a page-aligned mapping aliases every
// payload in place from lengths alone — an O(head) open. Each
// partition's distinct projections and their multiplicities are held
// once, as its frozen keys and posting counts, which is also what CN
// estimation reads. One generation is read: files with an older tag are
// rejected by their magic (DESIGN.md §6 has what each bump fixed).
const indexMagic = "GPHIX13\n"

// Save serializes the index: data vectors, partitioning, resolved
// options and each partition's frozen posting arenas (written verbatim,
// in (bucket, key) order, so output is byte-reproducible). Nothing
// else is state: CN estimation reads those arenas, so a Load is pure
// deserialization.
func (ix *Index) Save(w io.Writer) error {
	bw := binio.NewWriter(w)
	bw.Magic(indexMagic)
	// Head segment: every scalar and array length in the file,
	// contiguous — collection header, partitioning, options, then each
	// partition's frozen scalar header. A borrow-mode Load parses the
	// head sequentially (a few pages at the front of the file) and
	// aliases every payload from the recorded lengths, so a cold mapped
	// open faults in the head alone no matter how large the arenas
	// behind it are.
	bw.Int(ix.dims)
	bw.Int(ix.count)
	bw.Int(ix.parts.NumParts())
	for _, part := range ix.parts.Parts {
		bw.Ints(part)
	}
	ix.saveOptions(bw)
	for _, inv := range ix.inv {
		inv.WriteHeaderTo(bw)
	}
	// Payload segment: the bulk arrays, raw, in head order. Word-sized
	// sections are preceded by alignment padding so a page-aligned
	// mapping aliases them in place.
	bw.Align8()
	ix.saveArena(bw)
	for _, inv := range ix.inv {
		inv.WritePayloadTo(bw)
	}
	return bw.Flush()
}

// saveArena writes the vector words, row-major, with no framing.
func (ix *Index) saveArena(bw *binio.Writer) {
	for id := range ix.count {
		for _, word := range ix.codes.Row(int32(id)).Words() {
			bw.Uint64(word)
		}
	}
}

// saveOptions writes the option fields that affect query behaviour.
func (ix *Index) saveOptions(bw *binio.Writer) {
	bw.Int(int(ix.opts.Init))
	bw.Int(int(ix.opts.Allocator))
	bw.Int(ix.opts.MaxTau)
	bw.Int64(ix.opts.EnumBudget)
	bw.Int64(ix.opts.Seed)
}

// Load reads an index written by Save. There is one decode: over the
// bytes in place (binio.Source), every payload aliased from the lengths
// the head records, nothing copied — O(head) however large the arenas,
// and nothing rebuilt.
//
// Validation is two-tier. The structural tier always runs here:
// magic, header sanity, arena and array lengths, posting totals —
// everything needed to make every later arena access in-bounds, at
// O(metadata) cost. The content tier (the posting lists' chain, varint
// framing, posting-id ranges, key order, key and vector tail bits)
// reads every arena byte, and Load runs it before it returns: a corrupt
// file fails here, whatever r is. An opener that wants that pass later —
// a mapped open, so open time stays flat in index size and the pass
// doubles as page warm-up; a container, to fan it out over its shards —
// calls LoadDeferred. Either way corruption surfaces as a clean error,
// never a fault.
func Load(r io.Reader) (*Index, error) {
	ix, err := LoadDeferred(r)
	if err != nil {
		return nil, err
	}
	if err := ix.Validate(); err != nil {
		return nil, err
	}
	return ix, nil
}

// LoadDeferred is Load with the content tier left pending: it runs when
// the caller says (Validate, before the index is shared) or else on the
// first query, whose error every later query repeats.
func LoadDeferred(r io.Reader) (*Index, error) {
	src, err := binio.SourceOf(r, len(indexMagic), func(m string) bool { return m == indexMagic })
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	br := binio.NewReader(src)
	br.Magic(indexMagic)
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return loadCompact(br)
}

// readCollectionHeader reads and bounds-checks the dims/count pair the
// head leads with.
func readCollectionHeader(br *binio.Reader) (dims, count int, err error) {
	dims = br.Int()
	count = br.Int()
	if err := br.Err(); err != nil {
		return 0, 0, fmt.Errorf("core: reading index header: %w", err)
	}
	if dims <= 0 || dims > 1<<20 {
		return 0, 0, fmt.Errorf("core: implausible dimension count %d", dims)
	}
	if count <= 0 || count > binio.MaxSliceLen {
		return 0, 0, fmt.Errorf("core: implausible vector count %d", count)
	}
	return dims, count, nil
}

// readPartitioning reads and validates the persisted dimension
// partitioning.
func readPartitioning(br *binio.Reader, dims int) (*partition.Partitioning, error) {
	numParts := br.Int()
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("core: reading partition count: %w", err)
	}
	if numParts <= 0 || numParts > dims {
		return nil, fmt.Errorf("core: implausible partition count %d", numParts)
	}
	parts := &partition.Partitioning{Dims: dims, Parts: make([][]int, numParts)}
	for i := range parts.Parts {
		parts.Parts[i] = br.Ints()
	}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("core: reading partitioning: %w", err)
	}
	if err := parts.Validate(); err != nil {
		return nil, fmt.Errorf("core: persisted partitioning corrupt: %w", err)
	}
	return parts, nil
}

// readOptions reads the persisted option fields and resolves defaults.
func readOptions(br *binio.Reader, dims, numParts int) (Options, error) {
	opts := Options{
		NumPartitions: numParts,
		Init:          InitKind(br.Int()),
		Allocator:     AllocatorKind(br.Int()),
		MaxTau:        br.Int(),
		EnumBudget:    br.Int64(),
		Seed:          br.Int64(),
	}
	if err := br.Err(); err != nil {
		return opts, fmt.Errorf("core: reading options: %w", err)
	}
	if opts.Init < InitGreedy || opts.Init > InitDD {
		return opts, fmt.Errorf("core: persisted init kind %d unknown", int(opts.Init))
	}
	if opts.Allocator < AllocDP || opts.Allocator > AllocRR {
		return opts, fmt.Errorf("core: persisted allocator kind %d unknown", int(opts.Allocator))
	}
	return opts.withDefaults(dims), nil
}

// readVectorArena aliases the contiguous row-major word arena, reading
// none of it: checking each row's tail word here would fault the whole
// arena in at open. The validation pass checks the tails. Tail bits
// beyond dims are a validation error rather than masked in place — the
// writer masks them, so set tail bits mean corruption, and masking would
// write to what may be a read-only mapped page.
func readVectorArena(br *binio.Reader, dims, count int) ([]uint64, error) {
	words := (dims + 63) / 64
	arena := br.Uint64Raw(count*words, "vector arena")
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("core: reading vector arena: %w", err)
	}
	return arena, nil
}

// checkPartitionShape is the structural tier's per-partition check,
// from header fields alone: every vector posts exactly once, so the
// posting total is the collection size — with Frozen.Validate, which
// ties the lists' counts and the one-id entries to that total, this is
// "counts sum to count" — and
// the keys are as wide as the partition.
func checkPartitionShape(inv *invindex.Frozen, dimsI []int, p, count int) error {
	if inv.TotalPostings() != int64(count) {
		return fmt.Errorf("core: partition %d holds %d postings for %d vectors", p, inv.TotalPostings(), count)
	}
	if inv.Width() != len(dimsI) {
		return fmt.Errorf("core: partition %d holds keys of %d bits, the partition has %d", p, inv.Width(), len(dimsI))
	}
	return nil
}

// validatePartition is the content tier's per-partition check: the
// posting arenas decode cleanly, and the keys are where lookups look for
// them, none with a bit beyond the partition's width.
func validatePartition(inv *invindex.Frozen, p int) error {
	if err := inv.Validate(); err != nil {
		return fmt.Errorf("core: partition %d postings: %w", p, err)
	}
	return nil
}

// loadCompact reads the head-then-payload layout: all scalars and
// lengths first, then the raw aligned payloads in the same order — the
// head parsed with a handful of page faults, every payload aliased
// untouched. The index it returns has its content tier pending.
func loadCompact(br *binio.Reader) (*Index, error) {
	dims, count, err := readCollectionHeader(br)
	if err != nil {
		return nil, err
	}
	parts, err := readPartitioning(br, dims)
	if err != nil {
		return nil, err
	}
	numParts := len(parts.Parts)
	opts, err := readOptions(br, dims, numParts)
	if err != nil {
		return nil, err
	}
	headers := make([]invindex.FrozenHeader, numParts)
	for i := range headers {
		h, err := invindex.ReadFrozenHeader(br, int32(count))
		if err != nil {
			return nil, fmt.Errorf("core: reading partition %d postings: %w", i, err)
		}
		headers[i] = h
	}

	br.Align8()
	arena, err := readVectorArena(br, dims, count)
	if err != nil {
		return nil, err
	}
	codes, err := verify.Wrap(count, dims, arena)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	ix := &Index{dims: dims, count: count, codes: codes, parts: parts, proj: bitvec.NewProjector(dims, parts.Parts), opts: opts, deepPending: true}
	ix.inv = make([]*invindex.Frozen, numParts)
	for i := range headers {
		inv, err := headers[i].ReadPayload(br)
		if err != nil {
			return nil, fmt.Errorf("core: reading partition %d postings: %w", i, err)
		}
		if err := checkPartitionShape(inv, parts.Parts[i], i, count); err != nil {
			return nil, err
		}
		ix.inv[i] = inv
	}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("core: reading index: %w", err)
	}
	return ix, nil
}
