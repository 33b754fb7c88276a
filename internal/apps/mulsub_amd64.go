package apps

// hasAVX2 reports whether the CPU and the operating system support AVX2.
// It is set once, at package initialisation; only tests change it.
var hasAVX2 = detectAVX2()

// mulSub is documented in mulsub.go.
func mulSub(w, pv []uint32, mult uint32) {
	if hasAVX2 {
		mulSubAVX2(w[:len(pv)], pv, mult)
		return
	}
	mulSubGeneric(w, pv, mult)
}

// mulSubAVX2 sets w[i] -= mult*pv[i] for every i < len(pv). The caller
// guarantees len(w) >= len(pv) and that the CPU has AVX2.
//
//go:noescape
func mulSubAVX2(w, pv []uint32, mult uint32)

// cpuid executes CPUID with EAX=eaxArg and ECX=ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
func xgetbv() (eax, edx uint32)

// detectAVX2 follows Intel's recipe: the CPU must report AVX and
// OSXSAVE, the operating system must save the XMM and YMM registers on
// a context switch (XCR0 bits 1 and 2), and CPUID leaf 7 must report
// AVX2.
func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}
