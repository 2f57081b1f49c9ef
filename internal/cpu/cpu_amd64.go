package cpu

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

func kernelMissing() string {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return "CPUID leaf 7"
	}
	switch _, _, ecx, _ := cpuid(1, 0); {
	case ecx&(1<<27) == 0:
		return "OSXSAVE"
	case ecx&(1<<23) == 0:
		return "POPCNT" // the hit count
	}
	// XCR0 bits 1–2 (SSE, AVX) and 5–7 (opmask, zmm0–15 high halves,
	// zmm16–31): the OS saves every register the kernels touch.
	if xcr0, _ := xgetbv(); xcr0&0xE6 != 0xE6 {
		return "OS support for AVX-512 state (XCR0)"
	}
	_, ebx, ecx, _ := cpuid(7, 0)
	switch {
	case ebx&(1<<16) == 0:
		return "AVX512F"
	case ebx&(1<<17) == 0:
		return "AVX512DQ" // KMOVB to memory
	case ebx&(1<<30) == 0:
		return "AVX512BW" // byte and word lanes, 64-bit masks
	case ecx&(1<<1) == 0:
		return "AVX512_VBMI" // VPERMB, which widens 3- and 5- to 7-byte strides
	case ecx&(1<<14) == 0:
		return "AVX512_VPOPCNTDQ"
	}
	return ""
}

func pextMissing() string {
	maxLeaf, ebx, ecx, edx := cpuid(0, 0)
	if maxLeaf < 7 {
		return "CPUID leaf 7"
	}
	if _, ebx7, _, _ := cpuid(7, 0); ebx7&(1<<8) == 0 {
		return "BMI2"
	}
	vendor := string([]byte{
		byte(ebx), byte(ebx >> 8), byte(ebx >> 16), byte(ebx >> 24),
		byte(edx), byte(edx >> 8), byte(edx >> 16), byte(edx >> 24),
		byte(ecx), byte(ecx >> 8), byte(ecx >> 16), byte(ecx >> 24),
	})
	eax1, _, _, _ := cpuid(1, 0)
	if microcodedPEXT(vendor, family(eax1)) {
		return "a PEXT that is not microcoded (" + vendor + " before family 19h)"
	}
	return ""
}

// family is the display family of CPUID leaf 1's EAX: the base family,
// plus the extended family where the base reads 0xF.
func family(eax1 uint32) uint32 {
	f := eax1 >> 8 & 0xF
	if f == 0xF {
		f += eax1 >> 20 & 0xFF
	}
	return f
}

// microcodedPEXT reports whether PEXT runs as microcode: AMD's cores
// before Zen 3 (family 19h), and Hygon's, which are Zen 1.
func microcodedPEXT(vendor string, family uint32) bool {
	return (vendor == "AuthenticAMD" || vendor == "HygonGenuine") && family < 0x19
}
