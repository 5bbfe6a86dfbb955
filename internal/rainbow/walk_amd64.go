package rainbow

// haveAVX512 reports whether the CPU has AVX512F and AVX512DQ (VPMULLQ)
// and the OS saves the opmask and full ZMM register state.
func haveAVX512() bool {
	const (
		osxsave  = 1 << 27 // CPUID.1:ECX
		avx512f  = 1 << 16 // CPUID.(7,0):EBX
		avx512dq = 1 << 17 // CPUID.(7,0):EBX
		// XCR0: SSE, AVX, opmask, ZMM0-15's upper halves, ZMM16-31.
		zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return false
	}
	if _, ebx, _, _ := cpuid(7, 0); ebx&(avx512f|avx512dq) != avx512f|avx512dq {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&zmmState == zmmState
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0.
func xgetbv() (eax, edx uint32)

// walkRingSIMD walks simdWidth chains of RingHash over a UDPFlowSpace
// through k.links links each, replacing every start seed in v with its
// chain's end, exactly as walk would.
//
//go:noescape
func walkRingSIMD(v *[simdWidth]uint64, k *ringKernel)
