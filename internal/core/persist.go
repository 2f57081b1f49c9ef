package core

import (
	"fmt"
	"io"

	"gph/internal/binio"
	"gph/internal/bitvec"
	"gph/internal/candest"
	"gph/internal/invindex"
	"gph/internal/partition"
	"gph/internal/verify"
)

// indexMagic identifies the index container format; bump the digit on
// incompatible changes. GPHIX04 reframed the bulk sections for
// borrow-mode opening: every array length lives in its section's
// scalar header (posting offsets and counts derived from the key
// count, arena byte lengths recorded), payloads follow raw with
// 8-byte alignment padding before the word-sized ones. A borrow-mode
// load over a page-aligned mapping aliases every payload in place
// from lengths alone — the open touches one header page per section
// instead of one per interleaved length prefix, the difference
// between an O(headers) open and one that faults in a scattered page
// per array. GPHIX03 replaced the
// per-key posting records of GPHIX02 with the frozen arena layout
// written verbatim (load is O(bytes) slicing instead of millions of
// map inserts) and added persisted Exact-estimator state so
// default-configuration loads rebuild nothing. GPHIX02 added Init and
// Allocator to the persisted options — GPHIX01 dropped them, so a
// round-tripped index built with AllocRR silently answered queries
// with the DP allocator.
const indexMagic = "GPHIX04\n"

// prevIndexMagic is the superseded GPHIX03 tag: identical sections,
// no alignment padding. Old files load forever.
const prevIndexMagic = "GPHIX03\n"

// legacyIndexMagic is the superseded GPHIX02 tag. Load accepts all
// three magics, and the engine registry routes the old magics here
// too.
const legacyIndexMagic = "GPHIX02\n"

// Save serializes the index: data vectors, partitioning, resolved
// options, each partition's frozen posting arenas (written verbatim,
// in lexicographic key order, so output is byte-reproducible), and —
// when the index uses the default Exact estimator — each partition's
// estimator state (distinct projections + multiplicities), which
// makes Load pure deserialization. Sub-partition estimators are
// rebuilt on Load from the persisted data (cheap); learned estimators
// are retrained, which Load documents.
func (ix *Index) Save(w io.Writer) error {
	bw := binio.NewWriter(w)
	bw.Magic(indexMagic)
	// Head segment: every scalar and array length in the file,
	// contiguous — collection header, partitioning, options, then each
	// partition's frozen scalar header and each estimator's distinct
	// count. A borrow-mode Load parses the head sequentially (a few
	// pages at the front of the file) and aliases every payload from
	// the recorded lengths, so a cold mapped open faults in the head
	// alone no matter how large the arenas behind it are.
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
	persisted := estimatorStatePersisted(ix.opts)
	if persisted {
		for _, est := range ix.ests {
			bw.Int(est.(*candest.Exact).DistinctCount())
		}
	}
	// Payload segment: the bulk arrays, raw, in head order. Word-sized
	// sections are preceded by alignment padding so a page-aligned
	// mapping aliases them in place.
	bw.Align8()
	ix.saveArena(bw)
	for _, inv := range ix.inv {
		inv.WritePayloadTo(bw)
	}
	if persisted {
		for _, est := range ix.ests {
			arena, counts := est.(*candest.Exact).State()
			// The projection arena must land 8-aligned for borrow-mode
			// aliasing (the frozen payloads before it end on arbitrary
			// byte counts); the counts payload is raw — its length is the
			// head's distinct count — and lands 4-aligned for free after
			// a whole number of words.
			bw.Align8()
			for _, word := range arena {
				bw.Uint64(word)
			}
			bw.Int32sRaw(counts)
		}
	}
	return bw.Flush()
}

// SaveLegacy writes the superseded GPHIX02 form: per-key posting
// records and no estimator state. It exists so compatibility tests
// and the Fig. 6 load-time comparison can produce old-format files on
// demand; new code persists with Save.
func (ix *Index) SaveLegacy(w io.Writer) error {
	bw := binio.NewWriter(w)
	bw.Magic(legacyIndexMagic)
	ix.saveHeader(bw)
	for _, inv := range ix.inv {
		bw.Int(inv.NumKeys())
		inv.Range(func(key []byte, ids []int32) bool {
			bw.String(string(key))
			bw.Int32s(ids)
			return true
		})
	}
	return bw.Flush()
}

// saveHeader writes the GPHIX02 interleaved head: vectors inline
// between the collection scalars and the partitioning. Only
// SaveLegacy still writes this layout; Save groups all scalars ahead
// of all payloads.
func (ix *Index) saveHeader(bw *binio.Writer) {
	bw.Int(ix.dims)
	bw.Int(ix.count)
	ix.saveArena(bw)
	bw.Int(ix.parts.NumParts())
	for _, part := range ix.parts.Parts {
		bw.Ints(part)
	}
	ix.saveOptions(bw)
}

// saveArena writes the vector words, row-major, with no framing.
func (ix *Index) saveArena(bw *binio.Writer) {
	if ix.arena != nil {
		// Deserialized indexes keep the contiguous word arena; writing
		// it directly is byte-identical to walking the views (which a
		// mapped index may not even have carved yet).
		for _, word := range ix.arena {
			bw.Uint64(word)
		}
		return
	}
	for _, v := range ix.data {
		for _, word := range v.Words() {
			bw.Uint64(word)
		}
	}
}

// saveOptions writes the option fields that affect query behaviour.
func (ix *Index) saveOptions(bw *binio.Writer) {
	bw.Int(int(ix.opts.Init))
	bw.Int(int(ix.opts.Allocator))
	bw.Int(int(ix.opts.Estimator))
	bw.Int(ix.opts.SubPartitions)
	bw.Int(ix.opts.MaxTau)
	bw.Int64(ix.opts.EnumBudget)
	bw.Int64(ix.opts.Seed)
}

// estimatorStatePersisted reports whether the format carries
// estimator state for these options: only the Exact estimator's state
// is persisted (it is the default and the only one whose state is a
// plain histogram; sub-partition estimators rebuild cheaply and
// learned ones retrain from the persisted seed).
func estimatorStatePersisted(opts Options) bool {
	return opts.Estimator == EstimatorExact
}

// Load reads an index written by Save (GPHIX04), by the pre-alignment
// GPHIX03 writer, or by the superseded GPHIX02 writer. For GPHIX04 and
// GPHIX03 the posting arenas are adopted directly from the stream and
// Exact-estimator state is deserialized, so loading is O(bytes) (and
// O(metadata) over a mapping — only GPHIX04's aligned sections alias
// without copying); for GPHIX02 the per-key records are replayed
// into build-time maps and frozen, reproducing the index an old file
// described. Estimators without persisted state are reconstructed:
// exact and sub-partition estimators are rebuilt from the persisted
// vectors; learned estimators are retrained with the persisted seed,
// reproducing the original model.
//
// Validation is two-tier. The structural tier always runs here:
// magics, header sanity, offset monotonicity and arena spans, count
// totals — everything needed to make every later arena access
// in-bounds, at O(metadata) cost. The content tier (varint framing,
// posting-id ranges, key order, vector tail bits) reads every arena
// byte, so its timing depends on the reader: a streaming load has
// already paid to copy every byte and validates eagerly before Load
// returns, while a borrow-mode load (binio.Source over a file
// mapping) defers it to the first query — see ensureValidated — so
// open time stays flat in index size and the validation pass doubles
// as page warm-up. Either way corruption surfaces as a clean error,
// never a fault: at Load for streams, at the first search for
// mappings.
func Load(r io.Reader) (*Index, error) {
	br := binio.NewReader(r)
	version := br.MagicAny(indexMagic, prevIndexMagic, legacyIndexMagic)
	if version == indexMagic {
		return loadCompact(br)
	}
	return loadInterleaved(br, version)
}

// readCollectionHeader reads and bounds-checks the dims/count pair
// every format version leads with.
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
		Estimator:     EstimatorKind(br.Int()),
		SubPartitions: br.Int(),
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
	if opts.Estimator < EstimatorExact || opts.Estimator > EstimatorMLP {
		return opts, fmt.Errorf("core: persisted estimator kind %d unknown", int(opts.Estimator))
	}
	return opts.withDefaults(dims), nil
}

// readVectorArena reads the contiguous row-major word arena and, in
// eager (streaming) mode, carves checked per-vector views. In borrow
// mode the views stay uncarved: the view headers alone are O(count)
// heap (they dominated open profiles), and the checked constructor
// would read every vector's tail word — faulting the whole arena in
// at open. The first query's validation pass carves unchecked views
// and checks the tails; until then data is nil and every accessor
// goes through ensureValidated. Tail bits beyond dims are a
// validation error rather than masked in place — the writer masks
// them, so set tail bits mean corruption, and masking would write to
// what may be a read-only mapped page.
//
//gph:borrow
func readVectorArena(br *binio.Reader, dims, count int) (arena []uint64, data []bitvec.Vector, err error) {
	words := (dims + 63) / 64
	arena = br.Uint64Raw(count*words, "vector arena")
	if err := br.Err(); err != nil {
		return nil, nil, fmt.Errorf("core: reading vector arena: %w", err)
	}
	if br.Borrowed() {
		return arena, nil, nil
	}
	data = make([]bitvec.Vector, count)
	for i := range data {
		v, err := bitvec.FromWordsShared(dims, arena[i*words:(i+1)*words])
		if err != nil {
			return nil, nil, fmt.Errorf("core: vector %d corrupt: %w", i, err)
		}
		data[i] = v
	}
	return arena, data, nil
}

// checkPartitionKeyLen verifies a partition's frozen key width against
// the partitioning that owns it.
func checkPartitionKeyLen(inv *invindex.Frozen, dimsI []int, p int) error {
	wantKeyLen := 8 * ((len(dimsI) + 63) / 64)
	if minLen, maxLen := inv.KeyLenRange(); inv.NumKeys() > 0 && (minLen != wantKeyLen || maxLen != wantKeyLen) {
		return fmt.Errorf("core: partition %d keys span %d..%d bytes, want %d", p, minLen, maxLen, wantKeyLen)
	}
	return nil
}

// loadCompact reads the GPHIX04 head-then-payload layout: all scalars
// and lengths first, then the raw aligned payloads in the same order.
// A borrow-mode reader parses the head with a handful of page faults
// and aliases every payload untouched.
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
	persisted := estimatorStatePersisted(opts)
	var numDistinct []int
	if persisted {
		numDistinct = make([]int, numParts)
		for i := range numDistinct {
			nd := br.Int()
			if err := br.Err(); err != nil {
				return nil, fmt.Errorf("core: reading partition %d estimator: %w", i, err)
			}
			if nd < 0 || nd > count {
				return nil, fmt.Errorf("core: partition %d: implausible distinct count %d", i, nd)
			}
			numDistinct[i] = nd
		}
	}

	br.Align8()
	arena, data, err := readVectorArena(br, dims, count)
	if err != nil {
		return nil, err
	}
	deferred := br.Borrowed()
	codes, err := verify.Wrap(count, dims, arena)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	ix := &Index{dims: dims, count: count, data: data, arena: arena, codes: codes, parts: parts, opts: opts, deepPending: deferred}
	ix.inv = make([]*invindex.Frozen, numParts)
	for i := range headers {
		inv, err := headers[i].ReadPayload(br)
		if err != nil {
			return nil, fmt.Errorf("core: reading partition %d postings: %w", i, err)
		}
		if !deferred {
			if err := inv.Validate(); err != nil {
				return nil, fmt.Errorf("core: reading partition %d postings: %w", i, err)
			}
		}
		if err := checkPartitionKeyLen(inv, parts.Parts[i], i); err != nil {
			return nil, err
		}
		ix.inv[i] = inv
	}
	ix.ests = make([]candest.Estimator, numParts)
	if persisted {
		for i, dimsI := range parts.Parts {
			est, err := loadExactEstimatorPayload(br, dimsI, count, numDistinct[i])
			if err != nil {
				return nil, fmt.Errorf("core: reading partition %d estimator: %w", i, err)
			}
			ix.ests[i] = est
		}
	} else if err := ix.rebuildEstimators(); err != nil {
		return nil, err
	}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("core: reading index: %w", err)
	}
	return ix, nil
}

// loadInterleaved reads the GPHIX03 and GPHIX02 layouts, whose
// scalars and payloads interleave section by section. GPHIX03 arenas
// are still adopted from the stream (prefixed, unaligned — a mapped
// open copy-decodes the word arrays and faults more pages than
// GPHIX04, but stays correct); GPHIX02 per-key records are replayed
// into build-time maps and frozen.
func loadInterleaved(br *binio.Reader, version string) (*Index, error) {
	dims, count, err := readCollectionHeader(br)
	if err != nil {
		return nil, err
	}
	arena, data, err := readVectorArena(br, dims, count)
	if err != nil {
		return nil, err
	}
	deferred := br.Borrowed()
	parts, err := readPartitioning(br, dims)
	if err != nil {
		return nil, err
	}
	numParts := len(parts.Parts)
	opts, err := readOptions(br, dims, numParts)
	if err != nil {
		return nil, err
	}
	codes, err := verify.Wrap(count, dims, arena)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	ix := &Index{dims: dims, count: count, data: data, arena: arena, codes: codes, parts: parts, opts: opts, deepPending: deferred}
	ix.inv = make([]*invindex.Frozen, numParts)
	for i := 0; i < numParts; i++ {
		var (
			inv *invindex.Frozen
			err error
		)
		if version != legacyIndexMagic {
			if deferred {
				inv, err = invindex.ReadFrozenDeferred(br, int32(count), false)
			} else {
				inv, err = invindex.ReadFrozen(br, int32(count), false)
			}
		} else {
			inv, err = loadLegacyPostings(br, count)
		}
		if err != nil {
			return nil, fmt.Errorf("core: reading partition %d postings: %w", i, err)
		}
		if err := checkPartitionKeyLen(inv, parts.Parts[i], i); err != nil {
			return nil, err
		}
		ix.inv[i] = inv
	}
	ix.ests = make([]candest.Estimator, numParts)
	if version != legacyIndexMagic && estimatorStatePersisted(opts) {
		for i, dimsI := range parts.Parts {
			est, err := loadExactEstimator(br, dimsI, count)
			if err != nil {
				return nil, fmt.Errorf("core: reading partition %d estimator: %w", i, err)
			}
			ix.ests[i] = est
		}
	} else if err := ix.rebuildEstimators(); err != nil {
		return nil, err
	}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("core: reading index: %w", err)
	}
	return ix, nil
}

// rebuildEstimators reconstructs estimators whose state the format
// does not carry. The rebuild reads every vector, so a borrow-mode
// load materializes its deferred views first — deferral buys nothing
// on a path that walks the whole collection anyway.
func (ix *Index) rebuildEstimators() error {
	ix.materializeData()
	for i, dimsI := range ix.parts.Parts {
		est, err := buildEstimator(ix.data, dimsI, ix.opts, int64(i))
		if err != nil {
			return fmt.Errorf("core: rebuilding estimator %d: %w", i, err)
		}
		ix.ests[i] = est
	}
	return nil
}

// loadLegacyPostings replays one partition's GPHIX02 per-key records
// into a build-time map and freezes it.
func loadLegacyPostings(br *binio.Reader, count int) (*invindex.Frozen, error) {
	keyCount := br.Int()
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("reading key count: %w", err)
	}
	if keyCount < 0 || keyCount > count {
		return nil, fmt.Errorf("implausible key count %d", keyCount)
	}
	inv := invindex.New()
	for k := 0; k < keyCount; k++ {
		key := br.String()
		ids := br.Int32s()
		if err := br.Err(); err != nil {
			return nil, fmt.Errorf("reading posting %d: %w", k, err)
		}
		for _, id := range ids {
			if id < 0 || int(id) >= count {
				return nil, fmt.Errorf("posting references vector %d of %d", id, count)
			}
			inv.Add(key, id)
		}
	}
	return inv.Freeze(), nil
}

// loadExactEstimator reads one partition's persisted Exact-estimator
// state (distinct projections and multiplicities) in the GPHIX03
// interleaved framing: distinct count, unaligned word arena, prefixed
// counts.
func loadExactEstimator(br *binio.Reader, dimsI []int, count int) (*candest.Exact, error) {
	numDistinct := br.Int()
	if err := br.Err(); err != nil {
		return nil, err
	}
	if numDistinct < 0 || numDistinct > count {
		return nil, fmt.Errorf("implausible distinct count %d", numDistinct)
	}
	arena := br.Uint64Raw(numDistinct*((len(dimsI)+63)/64), "estimator arena")
	counts := br.Int32s()
	if err := br.Err(); err != nil {
		return nil, err
	}
	return candest.ExactFromState(dimsI, arena, counts, int64(count), br.Borrowed())
}

// loadExactEstimatorPayload reads one partition's estimator payload in
// the GPHIX04 layout: the distinct count came from the head, so both
// the aligned projection arena and the counts array are sized without
// reading a payload byte. The estimator adopts the arena as it is —
// in borrow mode a view of the mapping, with the content checks left
// to the first query's validation pass — and only ever reads it, so
// aliasing persisted state is safe.
//
//gph:borrow
func loadExactEstimatorPayload(br *binio.Reader, dimsI []int, count, numDistinct int) (*candest.Exact, error) {
	br.Align8()
	arena := br.Uint64Raw(numDistinct*((len(dimsI)+63)/64), "estimator arena")
	counts := br.Int32sRaw(numDistinct, "estimator counts")
	if err := br.Err(); err != nil {
		return nil, err
	}
	return candest.ExactFromState(dimsI, arena, counts, int64(count), br.Borrowed())
}
