#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// ringKernel's field offsets (walk.go).
#define k_links 0
#define k_reduceStep 8
#define k_reduceOffset 16
#define k_reduceShift 24
#define k_reduceMul 32
#define k_prime 40
#define k_byteMask 48
#define k_net 56
#define k_seedShift 64
#define k_dstIP 96
#define k_tail 128
#define k_finalShift 152
#define k_mixShift 160
#define k_mixMul1 168
#define k_mixMul2 176
#define k_mask 184

// Registers. Group g (0-3) keeps its eight chains' seeds in Zg, their
// ring state in Z(4+g) and a temporary in Z(9+g). Z8 is the current
// position's reduce salt, Z13 the ring prime, Z14 the byte mask and Z15
// the ring state after the source net. AX points at the ringKernel.

// XORSHIFT: a ^= a >> k[off], for all four groups' a.
#define XORSHIFT(off, a0, a1, a2, a3) \
	VPSRLVQ.BCST off(AX), a0, Z9;  \
	VPSRLVQ.BCST off(AX), a1, Z10; \
	VPSRLVQ.BCST off(AX), a2, Z11; \
	VPSRLVQ.BCST off(AX), a3, Z12; \
	VPXORQ       Z9, a0, a0;       \
	VPXORQ       Z10, a1, a1;      \
	VPXORQ       Z11, a2, a2;      \
	VPXORQ       Z12, a3, a3

// MULBCST: a *= k[off], for all four groups' a.
#define MULBCST(off, a0, a1, a2, a3) \
	VPMULLQ.BCST off(AX), a0, a0; \
	VPMULLQ.BCST off(AX), a1, a1; \
	VPMULLQ.BCST off(AX), a2, a2; \
	VPMULLQ.BCST off(AX), a3, a3

// SEEDBYTE: the key byte at seed >> k[off], into the temporaries.
#define SEEDBYTE(off) \
	VPSRLVQ.BCST off(AX), Z0, Z9;  \
	VPSRLVQ.BCST off(AX), Z1, Z10; \
	VPSRLVQ.BCST off(AX), Z2, Z11; \
	VPSRLVQ.BCST off(AX), Z3, Z12; \
	VPANDQ       Z14, Z9, Z9;      \
	VPANDQ       Z14, Z10, Z10;    \
	VPANDQ       Z14, Z11, Z11;    \
	VPANDQ       Z14, Z12, Z12

// MULPRIME: one ring round's multiply.
#define MULPRIME \
	VPMULLQ Z13, Z4, Z4; \
	VPMULLQ Z13, Z5, Z5; \
	VPMULLQ Z13, Z6, Z6; \
	VPMULLQ Z13, Z7, Z7

// SEEDROUND: one ring round over the key byte at seed >> k[off].
#define SEEDROUND(off) \
	SEEDBYTE(off);     \
	VPXORQ Z9, Z4, Z4;   \
	VPXORQ Z10, Z5, Z5;  \
	VPXORQ Z11, Z6, Z6;  \
	VPXORQ Z12, Z7, Z7;  \
	MULPRIME

// FIXEDROUND: one ring round over the fixed key byte k[off].
#define FIXEDROUND(off) \
	VPXORQ.BCST off(AX), Z4, Z4; \
	VPXORQ.BCST off(AX), Z5, Z5; \
	VPXORQ.BCST off(AX), Z6, Z6; \
	VPXORQ.BCST off(AX), Z7, Z7; \
	MULPRIME

// func walkRingSIMD(v *[simdWidth]uint64, k *ringKernel)
TEXT ·walkRingSIMD(SB), NOSPLIT, $0-16
	MOVQ v+0(FP), DI
	MOVQ k+8(FP), AX
	MOVQ k_links(AX), CX
	VMOVDQU64 0(DI), Z0
	VMOVDQU64 64(DI), Z1
	VMOVDQU64 128(DI), Z2
	VMOVDQU64 192(DI), Z3
	VPBROADCASTQ k_reduceOffset(AX), Z8
	VPBROADCASTQ k_prime(AX), Z13
	VPBROADCASTQ k_byteMask(AX), Z14
	VPBROADCASTQ k_net(AX), Z15
	JMP hash

link:
	// reduce: seed = ((h + salt) ^ (h + salt) >> shift) * mul, then the
	// next position's salt.
	VPADDQ Z8, Z0, Z0
	VPADDQ Z8, Z1, Z1
	VPADDQ Z8, Z2, Z2
	VPADDQ Z8, Z3, Z3
	XORSHIFT(k_reduceShift, Z0, Z1, Z2, Z3)
	MULBCST(k_reduceMul, Z0, Z1, Z2, Z3)
	VPADDQ.BCST k_reduceStep(AX), Z8, Z8

hash:
	// RingHash of the seed's key: the source address's low half (whose
	// first byte starts from the net's state), the destination address,
	// the source port, the destination port and protocol.
	SEEDBYTE(k_seedShift)
	VPXORQ Z9, Z15, Z4
	VPXORQ Z10, Z15, Z5
	VPXORQ Z11, Z15, Z6
	VPXORQ Z12, Z15, Z7
	MULPRIME
	SEEDROUND(k_seedShift+8)
	FIXEDROUND(k_dstIP)
	FIXEDROUND(k_dstIP+8)
	FIXEDROUND(k_dstIP+16)
	FIXEDROUND(k_dstIP+24)
	SEEDROUND(k_seedShift+16)
	SEEDROUND(k_seedShift+24)
	FIXEDROUND(k_tail)
	FIXEDROUND(k_tail+8)
	FIXEDROUND(k_tail+16)

	// The finalizer, then the mask: the chain's next hash, back into
	// the seed registers.
	XORSHIFT(k_finalShift, Z4, Z5, Z6, Z7)
	XORSHIFT(k_mixShift, Z4, Z5, Z6, Z7)
	MULBCST(k_mixMul1, Z4, Z5, Z6, Z7)
	XORSHIFT(k_mixShift, Z4, Z5, Z6, Z7)
	MULBCST(k_mixMul2, Z4, Z5, Z6, Z7)
	XORSHIFT(k_mixShift, Z4, Z5, Z6, Z7)
	VPANDQ.BCST k_mask(AX), Z4, Z0
	VPANDQ.BCST k_mask(AX), Z5, Z1
	VPANDQ.BCST k_mask(AX), Z6, Z2
	VPANDQ.BCST k_mask(AX), Z7, Z3

	DECQ CX
	JNZ  link

	VMOVDQU64 Z0, 0(DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	VZEROUPPER
	RET
