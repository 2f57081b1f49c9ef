package engine

import (
	"bufio"
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
	// SelfDeciding reports that the engine's Search chooses between its
	// index and a verified scan of its arena itself, so the query
	// planner (internal/plan) leaves every query on the index path.
	SelfDeciding bool
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

// PeekMagic returns r's leading MagicLen bytes without consuming them,
// together with the reader to continue from. A *binio.Source (the
// zero-copy open path hands one over a file mapping) is returned
// itself, so a codec reading from it stays in borrow mode; any other
// reader comes back buffered.
func PeekMagic(r io.Reader) (string, io.Reader, error) {
	var (
		magic []byte
		err   error
	)
	if src, ok := r.(*binio.Source); ok {
		magic, err = src.Peek(MagicLen)
	} else {
		br := bufio.NewReader(r)
		magic, err = br.Peek(MagicLen)
		r = br
	}
	if err != nil {
		return "", nil, fmt.Errorf("engine: reading magic: %w", err)
	}
	return string(magic), r, nil
}

// LoadAny restores an engine from r by peeking the leading magic bytes
// and dispatching to the matching registered loader. It accepts any
// format a registered engine's Save produces. When r is a
// *binio.Source, the source itself is passed through to the loader, so
// binio.NewReader inside the engine codec stays in borrow mode and the
// loaded structures alias the mapping instead of copying it.
func LoadAny(r io.Reader) (Engine, error) {
	magic, r, err := PeekMagic(r)
	if err != nil {
		return nil, err
	}
	regMu.RLock()
	reg, ok := byMagic[magic]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("engine: unknown index format %q", magic)
	}
	e, err := reg.Load(r)
	if err != nil {
		return nil, fmt.Errorf("engine: loading %s index: %w", reg.Name, err)
	}
	return e, nil
}
