package cpu

import "testing"

// TestMicrocodedPEXT pins the AMD family rule: PEXT is microcoded on
// AMD before Zen 3 (family 19h) and on Hygon, and nowhere on Intel.
func TestMicrocodedPEXT(t *testing.T) {
	for _, tc := range []struct {
		vendor string
		eax1   uint32 // CPUID leaf 1 EAX
		family uint32
		slow   bool
	}{
		{"GenuineIntel", 0x000606A6, 0x6, false},  // Ice Lake server
		{"AuthenticAMD", 0x00800F12, 0x17, true},  // Zen 1
		{"AuthenticAMD", 0x00830F10, 0x17, true},  // Zen 2
		{"AuthenticAMD", 0x00A00F11, 0x19, false}, // Zen 3
		{"AuthenticAMD", 0x00A10F11, 0x19, false}, // Zen 4
		{"AuthenticAMD", 0x00B00F20, 0x1A, false}, // Zen 5
		{"AuthenticAMD", 0x00600F20, 0x15, true},  // Piledriver
		{"HygonGenuine", 0x00900F01, 0x18, true},  // Dhyana
	} {
		if got := family(tc.eax1); got != tc.family {
			t.Errorf("%s %#x: family %#x, want %#x", tc.vendor, tc.eax1, got, tc.family)
		}
		if got := microcodedPEXT(tc.vendor, family(tc.eax1)); got != tc.slow {
			t.Errorf("%s family %#x: microcoded %v, want %v", tc.vendor, tc.family, got, tc.slow)
		}
	}
}

// TestVerdicts says in the log what this host's kernels may execute.
func TestVerdicts(t *testing.T) {
	t.Logf("AVX-512 kernels: %q (empty: they run)", KernelMissing)
	t.Logf("PEXT projector: %q (empty: it runs)", PEXTMissing)
}
