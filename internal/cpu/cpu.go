// Package cpu is the one place this module reads CPUID. It says, once at
// package init, what the assembly kernels elsewhere may execute on the
// running processor: each verdict is empty where its kernel can run and
// otherwise names the first thing missing, which is what tests print
// when they say an arm was not exercised (DESIGN.md §12). On every
// GOARCH but amd64 both name the architecture: the kernels are amd64's.
package cpu

var (
	// ScanKernelMissing is internal/verify's gate for its AVX-512
	// VPOPCNTDQ within-τ kernels: OSXSAVE, XCR0 saving the opmask and zmm
	// state, AVX512F, AVX512DQ, AVX512_VPOPCNTDQ and POPCNT.
	ScanKernelMissing = scanKernelMissing()

	// PEXTMissing is internal/bitvec's gate for its PEXT projector: BMI2,
	// on a CPU where PEXT is not microcoded — AMD's and Hygon's before
	// family 19h (Zen 1 and 2) run it in hundreds of cycles against an
	// Intel core's three, slower than the gather it would replace.
	PEXTMissing = pextMissing()
)
