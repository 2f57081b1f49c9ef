package engine

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"gph/internal/binio"
	"gph/internal/bitvec"
)

// MagicLen is the fixed length of every persistence magic tag; LoadAny
// peeks exactly this many bytes to dispatch.
const MagicLen = 8

// Registration describes one engine to the registry: its name, its
// metadata, its persistence magic, and its constructors. Build may be
// nil for load-only formats (containers that are not built from a
// flat vector slice).
type Registration struct {
	// Name is the engine's registry key ("gph", "mih", …).
	Name string
	// Exact reports whether the engine returns every true result.
	Exact bool
	// TauBounded reports that the engine's structure depends on the
	// build-time MaxTau, making MaxTau() that bound rather than
	// Dims(); layers that defer building (the shard layer's delta
	// buffers) use it to enforce the bound before an instance exists.
	TauBounded bool
	// Magic is the MagicLen-byte tag that leads the engine's
	// serialized form; LoadAny dispatches on it.
	Magic string
	// Build constructs the engine over data.
	Build func(data []bitvec.Vector, opts BuildOptions) (Engine, error)
	// Load restores an engine previously written with Engine.Save
	// (the stream begins with Magic).
	Load func(r io.Reader) (Engine, error)
}

var (
	regMu   sync.RWMutex
	byName  = map[string]Registration{}
	byMagic = map[string]Registration{}
)

// Register adds an engine to the registry; implementation packages
// call it from init. It panics on duplicate names or magic tags and on
// malformed registrations — these are programmer errors that must fail
// at process start, not at first lookup.
func Register(reg Registration) {
	regMu.Lock()
	defer regMu.Unlock()
	if reg.Name == "" {
		panic("engine: Register with empty name")
	}
	if len(reg.Magic) != MagicLen {
		panic(fmt.Sprintf("engine: %s magic %q is %d bytes, want %d", reg.Name, reg.Magic, len(reg.Magic), MagicLen))
	}
	if reg.Load == nil {
		panic(fmt.Sprintf("engine: %s registered without a loader", reg.Name))
	}
	if _, dup := byName[reg.Name]; dup {
		panic(fmt.Sprintf("engine: %s registered twice", reg.Name))
	}
	if prev, dup := byMagic[reg.Magic]; dup {
		panic(fmt.Sprintf("engine: magic %q claimed by both %s and %s", reg.Magic, prev.Name, reg.Name))
	}
	byName[reg.Name] = reg
	byMagic[reg.Magic] = reg
}

// Lookup returns the registration for name.
func Lookup(name string) (Registration, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	reg, ok := byName[name]
	return reg, ok
}

// lookupMagic returns the registration whose serialized form leads
// with magic.
func lookupMagic(magic string) (Registration, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	reg, ok := byMagic[magic]
	return reg, ok
}

// Info summarizes a registered engine for listings.
type Info struct {
	Name  string
	Exact bool
}

// Infos returns every buildable registered engine, sorted by name.
func Infos() []Info {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Info, 0, len(byName))
	for _, reg := range byName {
		if reg.Build == nil {
			continue
		}
		out = append(out, Info{Name: reg.Name, Exact: reg.Exact})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// Names returns the names of every buildable registered engine, sorted.
func Names() []string {
	infos := Infos()
	out := make([]string, len(infos))
	for i, in := range infos {
		out[i] = in.Name
	}
	return out
}

// Build constructs the named engine over data. Unknown names report
// the registered alternatives.
func Build(name string, data []bitvec.Vector, opts BuildOptions) (Engine, error) {
	reg, ok := Lookup(name)
	if !ok || reg.Build == nil {
		return nil, fmt.Errorf("engine: unknown engine %q (registered: %v)", name, Names())
	}
	return reg.Build(data, opts.WithDefaults())
}

// PeekMagic returns src's leading MagicLen bytes without consuming
// them, so the loader they select still finds its magic in front.
func PeekMagic(src *binio.Source) (string, error) {
	magic, err := src.Peek(MagicLen)
	if err != nil {
		return "", fmt.Errorf("engine: reading magic: %w", err)
	}
	return string(magic), nil
}

// Validate runs, now, whatever checks e's loader left pending (e's
// Validator capability; an engine without it left none). It is the
// opener's call, made before the engine is shared; a failed verdict is
// sticky.
func Validate(e Engine) error {
	if v, ok := e.(Validator); ok {
		return v.Validate()
	}
	return nil
}

// LoadAny restores an engine from r by peeking the leading magic bytes
// and dispatching to the matching registered loader. It accepts any
// format a registered engine's Save produces, decodes it in place — a
// reader that is not a *binio.Source is read out into one buffer first,
// and the loaded structures alias the bytes instead of copying them —
// and returns the engine validated in full, whatever r is. An opener
// that wants the checks a loader can leave pending (Validator) run
// later calls LoadAnyDeferred.
func LoadAny(r io.Reader) (Engine, error) {
	e, err := LoadAnyDeferred(r)
	if err != nil {
		return nil, err
	}
	if err := Validate(e); err != nil {
		return nil, fmt.Errorf("engine: loading %s index: %w", e.Name(), err)
	}
	return e, nil
}

// LoadAnyDeferred is LoadAny that leaves a Validator's pending checks
// pending: they run when the caller calls Validate (a container does,
// over all its shards side by side) or on the engine's first query (a
// mapped open's, where they double as page warm-up).
func LoadAnyDeferred(r io.Reader) (Engine, error) {
	src, err := binio.SourceOf(r, MagicLen, func(magic string) bool {
		_, ok := lookupMagic(magic)
		return ok
	})
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	magic, err := PeekMagic(src)
	if err != nil {
		return nil, err
	}
	reg, ok := lookupMagic(magic)
	if !ok {
		return nil, fmt.Errorf("engine: unknown index format %q", magic)
	}
	e, err := reg.Load(src)
	if err != nil {
		return nil, fmt.Errorf("engine: loading %s index: %w", reg.Name, err)
	}
	return e, nil
}
