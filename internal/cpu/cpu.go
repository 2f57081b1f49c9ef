// Package cpu is the one place this module reads CPUID. It says, once at
// package init, what the assembly kernels elsewhere may execute on the
// running processor: each verdict is empty where its kernel can run and
// otherwise names the first thing missing, which is what tests print
// when they say an arm was not exercised (DESIGN.md §12). On every
// GOARCH but amd64 both name the architecture: the kernels are amd64's.
//
// It also holds the one forced setting of those choices and of the
// route a query takes (Force): a test seam, never an option.
package cpu

import "sync/atomic"

var (
	// KernelMissing is the gate of every AVX-512 kernel: internal/verify's
	// within-τ kernels and internal/invindex's validation passes. It
	// checks OSXSAVE, XCR0 saving the opmask and zmm state, AVX512F,
	// AVX512DQ, AVX512BW, AVX512_VBMI, AVX512_VPOPCNTDQ and POPCNT.
	KernelMissing = kernelMissing()

	// PEXTMissing is internal/bitvec's gate for its PEXT projector: BMI2,
	// on a CPU where PEXT is not microcoded — AMD's and Hygon's before
	// family 19h (Zen 1 and 2) run it in hundreds of cycles against an
	// Intel core's three, slower than the gather it would replace.
	PEXTMissing = pextMissing()
)

// Route is the way an exact engine answers a range query.
type Route uint8

const (
	// RouteAdaptive leaves the choice to the engine's own guard, which
	// weighs its index against the verified scan (the default).
	RouteAdaptive Route = iota
	// RouteIndex runs the index wherever it can answer: a query whose
	// ball covers the space, or that no plan fits the enumeration budget
	// of, is still scanned and says so.
	RouteIndex
	// RouteScan answers every query by the verified scan.
	RouteScan
)

// Kernel is the arm internal/verify's scan and internal/invindex's
// validation passes run.
type Kernel uint8

const (
	// KernelAssembly is the default: the AVX-512 kernels where
	// KernelMissing is empty, the portable loops elsewhere.
	KernelAssembly Kernel = iota
	// KernelGo runs the kernels' drivers on their Go reference, on any
	// amd64 host.
	KernelGo
	// KernelPortable runs the portable loops.
	KernelPortable
)

// Projector is the arm internal/bitvec's projector runs.
type Projector uint8

const (
	// ProjectorPEXT is the default: PEXT where PEXTMissing is empty, the
	// gather elsewhere.
	ProjectorPEXT Projector = iota
	// ProjectorGather runs the gather.
	ProjectorGather
)

func (r Route) String() string     { return [...]string{"adaptive", "index", "scan"}[r] }
func (k Kernel) String() string    { return [...]string{"assembly", "go", "portable"}[k] }
func (p Projector) String() string { return [...]string{"pext", "gather"}[p] }

// Setting is a forced route and forced arms; the zero Setting forces
// nothing.
type Setting struct {
	Route     Route
	Kernel    Kernel
	Projector Projector
}

// forced packs the Setting in force, a byte a field, so that a query
// reads it with one atomic load.
var forced atomic.Uint32

// Force puts s in force for the whole process until restore is called.
// Only tests call it (TestForceIsATestSeam), and a test that does must
// not run in parallel with another.
func Force(s Setting) (restore func()) {
	was := forced.Swap(uint32(s.Route) | uint32(s.Kernel)<<8 | uint32(s.Projector)<<16)
	return func() { forced.Store(was) }
}

// Forced returns the Setting in force. Each reader reads it once a query,
// or once a scan or a projection.
func Forced() Setting {
	v := forced.Load()
	return Setting{Route(v), Kernel(v >> 8), Projector(v >> 16)}
}
