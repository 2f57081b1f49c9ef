// AVX-512 within-τ kernels: see within_amd64.go for the contract and
// the CPUID gate that guards every instruction here (AVX512F for the
// zmm arithmetic, permutes and KUNPCKBW, AVX512DQ for KMOVB and KORTESTB,
// AVX512_VPOPCNTDQ for VPOPCNTQ, POPCNT for the scalar count).
//
// One primitive, three row widths: for each group of eight consecutive
// rows, store one byte whose bit k says row 8g+k lies within tau of the
// query. Rows are read through unaligned-tolerant EVEX memory operands
// (a borrowed mmap arena is 8-aligned, not 64-aligned), exactly
// groups·8·w words are read and exactly groups bytes are written.

#include "textflag.h"

// Index vectors of the even/odd reduction: over the sixteen counts of a
// register pair, evens<> picks 0, 2, …, 14 and odds<> picks 1, 3, …, 15.
DATA evens<>+0(SB)/8, $0
DATA evens<>+8(SB)/8, $2
DATA evens<>+16(SB)/8, $4
DATA evens<>+24(SB)/8, $6
DATA evens<>+32(SB)/8, $8
DATA evens<>+40(SB)/8, $10
DATA evens<>+48(SB)/8, $12
DATA evens<>+56(SB)/8, $14
GLOBL evens<>(SB), RODATA|NOPTR, $64

DATA odds<>+0(SB)/8, $1
DATA odds<>+8(SB)/8, $3
DATA odds<>+16(SB)/8, $5
DATA odds<>+24(SB)/8, $7
DATA odds<>+32(SB)/8, $9
DATA odds<>+40(SB)/8, $11
DATA odds<>+48(SB)/8, $13
DATA odds<>+56(SB)/8, $15
GLOBL odds<>(SB), RODATA|NOPTR, $64

// PAIRSUM(a, b, t) leaves in a the eight sums of adjacent counts of the
// sixteen held in (a, b), in order: a[i] = ab[2i] + ab[2i+1]. It needs
// Z4 = evens and Z5 = odds, and clobbers t. In Go operand order both
// permutes read the table {a: 0–7, b: 8–15}: VPERMI2Q b, a, t indexes
// it by t and overwrites t; VPERMT2Q b, Z5, a indexes it by Z5 and
// overwrites a.
#define PAIRSUM(a, b, t) \
	VMOVDQA64 Z4, t;    \
	VPERMI2Q  b, a, t;  \
	VPERMT2Q  b, Z5, a; \
	VPADDQ    t, a, a

// func withinBits1(rows *uint64, groups int, q *uint64, tau uint64, out *uint64) int
// Four groups an iteration and one compare for the four: VPOPCNTQ leaves
// at most 64 in each 64-bit lane, so the high dwords are zero and a
// VPMINUD tree is the exact lane-wise minimum of the four count registers
// (so is a VPMINUQ one, on one port where VPMINUD has two). A block with
// no lane within tau — almost every block of a selective scan — stores
// its four zero bytes at once; a block with one (hit1) takes the four
// compares of the one-group loop, and the popcount of its four bytes joins
// the count returned. The 0–3 groups left over are withinBits1x1's, called
// on the frame's 48 bytes.
TEXT ·withinBits1(SB), NOSPLIT, $48-48
	MOVQ rows+0(FP), SI
	MOVQ groups+8(FP), CX
	MOVQ out+32(FP), DI
	XORQ DX, DX // hits so far
	CMPQ CX, $4
	JB   rest1
	MOVQ q+16(FP), AX
	VPBROADCASTQ (AX), Z2
	VPBROADCASTQ tau+24(FP), Z3

loop1:
	VPXORQ   (SI), Z2, Z6
	VPXORQ   64(SI), Z2, Z7
	VPXORQ   128(SI), Z2, Z8
	VPXORQ   192(SI), Z2, Z9
	VPOPCNTQ Z6, Z6
	VPOPCNTQ Z7, Z7
	VPOPCNTQ Z8, Z8
	VPOPCNTQ Z9, Z9
	VPMINUD  Z7, Z6, Z10
	VPMINUD  Z9, Z8, Z11
	VPMINUD  Z11, Z10, Z10
	VPCMPUQ  $2, Z3, Z10, K1 // Z10 ≤ Z3
	KORTESTB K1, K1
	JNZ      hit1
	MOVL     $0, (DI)

next1:
	ADDQ $256, SI
	ADDQ $4, DI
	SUBQ $4, CX
	CMPQ CX, $4
	JAE  loop1
	VZEROUPPER

rest1:
	MOVQ  DX, ret+40(FP)
	TESTQ CX, CX
	JZ    done1
	MOVQ  SI, 0(SP)
	MOVQ  CX, 8(SP)
	MOVQ  q+16(FP), AX
	MOVQ  AX, 16(SP)
	MOVQ  tau+24(FP), AX
	MOVQ  AX, 24(SP)
	MOVQ  DI, 32(SP)
	CALL  ·withinBits1x1(SB)
	MOVQ  40(SP), DX
	ADDQ  DX, ret+40(FP)

done1:
	RET

// The four mask bytes leave as one word from a register: read back as a
// word for the count, four byte stores have to retire first (5.7 µs
// against 2.7 over 160 KB where every block hits).
hit1:
	VPCMPUQ  $2, Z3, Z6, K2
	VPCMPUQ  $2, Z3, Z7, K3
	VPCMPUQ  $2, Z3, Z8, K4
	VPCMPUQ  $2, Z3, Z9, K5
	KUNPCKBW K2, K3, K2 // K3<<8 | K2
	KUNPCKBW K4, K5, K4
	KMOVW    K2, R8
	KMOVW    K4, R9
	SHLL     $16, R9
	ORL      R9, R8
	MOVL     R8, (DI)
	POPCNTL  R8, R8
	ADDQ     R8, DX
	JMP      next1

// func withinBits1x1(rows *uint64, groups int, q *uint64, tau uint64, out *uint64) int
TEXT ·withinBits1x1(SB), NOSPLIT, $0-48
	XORQ  DX, DX
	MOVQ  groups+8(FP), CX
	TESTQ CX, CX
	JZ    done1x1
	MOVQ  rows+0(FP), SI
	MOVQ  q+16(FP), AX
	MOVQ  out+32(FP), DI
	VPBROADCASTQ (AX), Z2
	VPBROADCASTQ tau+24(FP), Z3

loop1x1:
	VPXORQ   (SI), Z2, Z6
	VPOPCNTQ Z6, Z6
	VPCMPUQ  $2, Z3, Z6, K2
	KMOVB    K2, (DI)
	KMOVB    K2, R8
	POPCNTL  R8, R8
	ADDQ     R8, DX
	ADDQ     $64, SI
	INCQ     DI
	DECQ     CX
	JNZ      loop1x1
	VZEROUPPER

done1x1:
	MOVQ DX, ret+40(FP)
	RET

// func withinBits2(rows *uint64, groups int, q *uint64, tau uint64, out *uint64)
TEXT ·withinBits2(SB), NOSPLIT, $0-40
	MOVQ  groups+8(FP), CX
	TESTQ CX, CX
	JZ    done2
	MOVQ  rows+0(FP), SI
	MOVQ  q+16(FP), AX
	MOVQ  out+32(FP), DI
	VBROADCASTI32X4 (AX), Z2 // [q0 q1] ×4
	VPBROADCASTQ    tau+24(FP), Z3
	VMOVDQU64       evens<>(SB), Z4
	VMOVDQU64       odds<>(SB), Z5

loop2:
	VPXORQ   (SI), Z2, Z6   // rows 0–3, two counts a row
	VPXORQ   64(SI), Z2, Z7 // rows 4–7
	VPOPCNTQ Z6, Z6
	VPOPCNTQ Z7, Z7
	PAIRSUM(Z6, Z7, Z8)     // eight distances, row order
	VPCMPUQ  $2, Z3, Z6, K2
	KMOVB    K2, (DI)
	ADDQ     $128, SI
	INCQ     DI
	DECQ     CX
	JNZ      loop2
	VZEROUPPER

done2:
	RET

// func withinBits4(rows *uint64, groups int, q *uint64, tau uint64, out *uint64)
TEXT ·withinBits4(SB), NOSPLIT, $0-40
	MOVQ  groups+8(FP), CX
	TESTQ CX, CX
	JZ    done4
	MOVQ  rows+0(FP), SI
	MOVQ  q+16(FP), AX
	MOVQ  out+32(FP), DI
	VBROADCASTI64X4 (AX), Z2 // [q0 q1 q2 q3] ×2
	VPBROADCASTQ    tau+24(FP), Z3
	VMOVDQU64       evens<>(SB), Z4
	VMOVDQU64       odds<>(SB), Z5

loop4:
	VPXORQ   (SI), Z2, Z6    // rows 0–1, four counts a row
	VPXORQ   64(SI), Z2, Z7  // rows 2–3
	VPXORQ   128(SI), Z2, Z8 // rows 4–5
	VPXORQ   192(SI), Z2, Z9 // rows 6–7
	VPOPCNTQ Z6, Z6
	VPOPCNTQ Z7, Z7
	VPOPCNTQ Z8, Z8
	VPOPCNTQ Z9, Z9
	PAIRSUM(Z6, Z7, Z10)     // rows 0–3, two half-sums a row
	PAIRSUM(Z8, Z9, Z10)     // rows 4–7
	PAIRSUM(Z6, Z8, Z10)     // eight distances, row order
	VPCMPUQ  $2, Z3, Z6, K2
	KMOVB    K2, (DI)
	ADDQ     $256, SI
	INCQ     DI
	DECQ     CX
	JNZ      loop4
	VZEROUPPER

done4:
	RET
