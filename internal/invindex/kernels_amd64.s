// AVX-512 passes of the content tier: see kernels.go for the contract
// and kernels_amd64.go for the CPUID gate that guards every instruction
// here (AVX512F for the zmm arithmetic, the gather and 16-bit masks,
// AVX512DQ for 8-bit masks, AVX512BW for byte and word lanes, masked
// byte loads, VPSADBW and 32- and 64-bit masks, AVX512_VBMI for VPERMB,
// AVX512_VPOPCNTDQ for VPOPCNTQ).
//
// Every vector is a masked load of exactly its elements' bytes (K6),
// zero elsewhere, then a VPERMB by the index vector in Z1 that puts each
// element in a lane, zero-extended; the lane compares and masks differ
// by lane width alone, so one body a kernel serves every width.

#include "textflag.h"

// REFLISTS is the body of a refs kernel of lanes lanes a vector: bcast
// puts split in every lane, cmp $5 (not less than) marks the lists, knot
// inverts that mark for vmax's merge into the running maximum in Z3, and
// kmov takes the mark out to be shifted into place in the group's word.
#define REFLISTS(bcast, cmp, knot, vmax, kmov, lanes) \
	MOVQ      groups+8(FP), R9;       \
	TESTQ     R9, R9;                 \
	JZ        refsDone;               \
	MOVQ      refs+0(FP), SI;         \
	MOVQ      stride+16(FP), BX;      \
	MOVQ      perm+24(FP), AX;        \
	VMOVDQU64 (AX), Z1;               \
	KMOVQ     load+32(FP), K6;        \
	MOVQ      split+40(FP), AX;       \
	bcast     AX, Z2;                 \
	MOVQ      lists+48(FP), DI;       \
	MOVQ      top+56(FP), AX;         \
	VMOVDQU64 (AX), Z3;               \
refsGroup:                          \
	XORQ       DX, DX;                \
	XORQ       CX, CX;                \
refsVector:                         \
	VMOVDQU8.Z (SI), K6, Z0;          \
	VPERMB     Z0, Z1, Z0;            \
	cmp        $5, Z2, Z0, K1;        \
	knot       K1, K2;                \
	vmax       Z0, Z3, K2, Z3;        \
	kmov       K1, R8;                \
	SHLQ       CX, R8;                \
	ORQ        R8, DX;                \
	ADDQ       BX, SI;                \
	ADDQ       $lanes, CX;            \
	CMPQ       CX, $64;               \
	JB         refsVector;            \
	MOVQ       DX, (DI);              \
	ADDQ       $8, DI;                \
	DECQ       R9;                    \
	JNZ        refsGroup;             \
	VMOVDQU64  Z3, (AX);              \
	VZEROUPPER;                       \
refsDone:                           \
	RET

// REMSASCEND is the body of a remainders kernel of lanes lanes a vector:
// each vector of remainders (SI) is compared with the vector one
// remainder before it (R10), cmp $2 (not above) marking the descents,
// which kmov takes out to be shifted into place in the group's word; the
// group's bucket starts, its 64 mark bytes (DI) tested nonzero, are
// cleared from it and what is left ored into R11. Z3 ors the remainders
// together, folded to a word at the end.
#define REMSASCEND(cmp, kmov, lanes) \
	XORQ      R11, R11;               \
	VPXORQ    Z3, Z3, Z3;             \
	MOVQ      groups+8(FP), R9;       \
	TESTQ     R9, R9;                 \
	JZ        remsDone;               \
	MOVQ      rems+0(FP), SI;         \
	MOVQ      stride+16(FP), BX;      \
	MOVQ      SI, R10;                \
	SUBQ      rl+24(FP), R10;         \
	MOVQ      perm+32(FP), AX;        \
	VMOVDQU64 (AX), Z1;               \
	KMOVQ     load+40(FP), K6;        \
	MOVQ      marks+48(FP), DI;      \
remsGroup:                          \
	XORQ       DX, DX;                \
	XORQ       CX, CX;                \
remsVector:                         \
	VMOVDQU8.Z (SI), K6, Z0;          \
	VMOVDQU8.Z (R10), K6, Z4;         \
	VPERMB     Z0, Z1, Z0;            \
	VPERMB     Z4, Z1, Z4;            \
	cmp        $2, Z4, Z0, K1;        \
	VPORQ      Z0, Z3, Z3;            \
	kmov       K1, R8;                \
	SHLQ       CX, R8;                \
	ORQ        R8, DX;                \
	ADDQ       BX, SI;                \
	ADDQ       BX, R10;               \
	ADDQ       $lanes, CX;            \
	CMPQ       CX, $64;               \
	JB         remsVector;            \
	VMOVDQU64  (DI), Z5;              \
	VPTESTMB   Z5, Z5, K2;            \
	KMOVQ      K2, R8;                \
	NOTQ       R8;                    \
	ANDQ       R8, DX;                \
	ORQ        DX, R11;               \
	ADDQ       $64, DI;               \
	DECQ       R9;                    \
	JNZ        remsGroup;             \
remsDone:                           \
	VEXTRACTI64X4 $1, Z3, Y4;         \
	VPOR          Y4, Y3, Y3;         \
	VEXTRACTI128  $1, Y3, X4;         \
	VPOR          X4, X3, X3;         \
	VPSHUFD       $0x4E, X3, X4;      \
	VPOR          X4, X3, X3;         \
	MOVQ          X3, AX;             \
	MOVQ          R11, bad+56(FP);    \
	MOVQ          AX, seen+64(FP);    \
	VZEROUPPER;                       \
	RET

// DIRASCEND is the body of a directory kernel over offsets of width
// bytes, lanes a vector: each vector of offsets is compared with the
// vector one offset before it, cmp $1 (below) marking the descents,
// which are ored into R11.
#define DIRASCEND(cmp, kmov, lanes, width) \
	XORQ      R11, R11;               \
	MOVQ      groups+8(FP), R9;       \
	TESTQ     R9, R9;                 \
	JZ        dirDone;                \
	MOVQ      dir+0(FP), SI;          \
dirGroup:                           \
	XORQ      CX, CX;                 \
dirVector:                          \
	VMOVDQU64 (SI), Z0;               \
	VMOVDQU64 -width(SI), Z4;         \
	cmp       $1, Z4, Z0, K1;         \
	kmov      K1, R8;                 \
	ORQ       R8, R11;                \
	ADDQ      $64, SI;                \
	ADDQ      $lanes, CX;             \
	CMPQ      CX, $64;                \
	JB        dirVector;              \
	DECQ      R9;                     \
	JNZ       dirGroup;               \
	VZEROUPPER;                       \
dirDone:                            \
	MOVQ      R11, ret+16(FP);        \
	RET

// LOWSUM(at, dst) sets dst to the byte sums of the payload bits (Z15)
// of the bytes flagged in at's top bits: low7 widens each flag to the
// byte's seven low bits.
#define LOWSUM(at, dst) \
	VPSRLQ  $7, at, dst;   \
	VPSUBQ  dst, at, dst;  \
	VPANDQ  Z15, dst, dst; \
	VPSADBW Z31, dst, dst

// PLACESUM(sum, p1, p2, p3, p4) leaves in sum the ids' sum of byte sums
// by place: sum holds the payloads' (place 0), pk those of the bytes at
// place k or more, so sum + 127·(p1 + 128·p2 + 128²·p3 + 128³·p4) is
// Σ payload · 128^place. Clobbers p1 to p4.
#define PLACESUM(sum, p1, p2, p3, p4) \
	VPSLLQ $7, p2, p2;    \
	VPSLLQ $14, p3, p3;   \
	VPSLLQ $21, p4, p4;   \
	VPADDQ p2, p1, p1;    \
	VPADDQ p4, p3, p3;    \
	VPADDQ p3, p1, p1;    \
	VPSLLQ $7, p1, p2;    \
	VPSUBQ p1, p2, p2;    \
	VPADDQ p2, sum, sum

// SINCE(cont, prev, dst, k, m) flags in dst the bytes whose k/8-th byte
// before is a continuation byte: cont shifted up k bits, the qword
// before's (prev) shifted down m = 64 − k into the low bytes.
#define SINCE(cont, prev, dst, k, m) \
	VPSLLQ $k, cont, dst; \
	VPSRLQ $m, prev, Z7;  \
	VPORQ  Z7, dst, dst

// func refLists8(refs *byte, groups, stride int, perm *[64]byte, load, split uint64, lists *uint64, top *[64]byte)
TEXT ·refLists8(SB), NOSPLIT, $0-64
	REFLISTS(VPBROADCASTB, VPCMPUB, KNOTQ, VPMAXUB, KMOVQ, 64)

// func refLists16(refs *byte, groups, stride int, perm *[64]byte, load, split uint64, lists *uint64, top *[64]byte)
TEXT ·refLists16(SB), NOSPLIT, $0-64
	REFLISTS(VPBROADCASTW, VPCMPUW, KNOTD, VPMAXUW, KMOVD, 32)

// func refLists32(refs *byte, groups, stride int, perm *[64]byte, load, split uint64, lists *uint64, top *[64]byte)
TEXT ·refLists32(SB), NOSPLIT, $0-64
	REFLISTS(VPBROADCASTD, VPCMPUD, KNOTW, VPMAXUD, KMOVW, 16)

// func remsAscend8(rems *byte, groups, stride, rl int, perm *[64]byte, load uint64, starts *uint64) (bad, seen uint64)
TEXT ·remsAscend8(SB), NOSPLIT, $0-72
	REMSASCEND(VPCMPUB, KMOVQ, 64)

// func remsAscend16(rems *byte, groups, stride, rl int, perm *[64]byte, load uint64, starts *uint64) (bad, seen uint64)
TEXT ·remsAscend16(SB), NOSPLIT, $0-72
	REMSASCEND(VPCMPUW, KMOVD, 32)

// func remsAscend32(rems *byte, groups, stride, rl int, perm *[64]byte, load uint64, starts *uint64) (bad, seen uint64)
TEXT ·remsAscend32(SB), NOSPLIT, $0-72
	REMSASCEND(VPCMPUD, KMOVW, 16)

// func remsAscend64(rems *byte, groups, stride, rl int, perm *[64]byte, load uint64, starts *uint64) (bad, seen uint64)
TEXT ·remsAscend64(SB), NOSPLIT, $0-72
	REMSASCEND(VPCMPUQ, KMOVB, 8)

// func dirDescents16(dir unsafe.Pointer, groups int) uint64
TEXT ·dirDescents16(SB), NOSPLIT, $0-24
	DIRASCEND(VPCMPUW, KMOVD, 32, 2)

// func dirDescents32(dir unsafe.Pointer, groups int) uint64
TEXT ·dirDescents32(SB), NOSPLIT, $0-24
	DIRASCEND(VPCMPUD, KMOVW, 16, 4)

// func listsOK(arena *byte, size int, offs *uint32, groups int, idLimit uint64, ok *byte)
// Eight lists a group, one a qword lane, lo and hi offsets i and i + 1.
// A lane whose span is 3 to 8 bytes and whose 8 bytes from lo lie in the
// arena gathers them and is judged as varintWordOK judges the span's
// bytes after a one-byte head. A lane whose span is 9 bytes or more, and
// within the arena, is judged after the group's verdict byte is stored,
// as varintsOK judges its bytes after a one-byte head: 64 bytes a chunk,
// the last masked to the list, the sums in qword lanes whose
// continuation bits carry over from the lane before (VALIGNQ). The frame
// holds the group's lo, hi and counts, a qword a lane.
TEXT ·listsOK(SB), NOSPLIT, $192-48
	MOVQ  groups+24(FP), R9
	TESTQ R9, R9
	JZ    listsDone
	MOVQ  arena+0(FP), SI
	MOVQ  offs+16(FP), BX
	MOVQ  ok+40(FP), DI
	VPBROADCASTQ size+8(FP), Z20
	VPBROADCASTQ idLimit+32(FP), Z21
	MOVQ  $0x8080808080808080, AX
	VPBROADCASTQ AX, Z22            // the continuation bits
	VPTERNLOGQ $0xff, Z23, Z23, Z23 // all ones
	MOVQ  $1, AX
	VPBROADCASTQ AX, Z24
	MOVQ  $3, AX
	VPBROADCASTQ AX, Z25
	MOVQ  $5, AX
	VPBROADCASTQ AX, Z26
	MOVQ  $8, AX
	VPBROADCASTQ AX, Z27
	MOVQ  $64, AX
	VPBROADCASTQ AX, Z28
	MOVQ  $0x80, AX
	VPBROADCASTQ AX, Z29
	MOVQ  $0xff, AX
	VPBROADCASTQ AX, Z30
	VPXORQ Z31, Z31, Z31

listsGroup:
	VPMOVZXDQ (BX), Z0           // lo
	VPMOVZXDQ 4(BX), Z1          // hi
	VMOVDQU64 Z0, 0(SP)
	VMOVDQU64 Z1, 64(SP)
	VPSUBQ    Z0, Z1, Z2         // span
	VPSUBQ    Z25, Z2, Z3
	VPCMPUQ   $2, Z26, Z3, K2    // span − 3 ≤ 5: 3 to 8 bytes, hi above lo
	VPADDQ    Z27, Z0, Z4
	VPCMPUQ   $2, Z20, Z4, K1    // lo + 8 ≤ size
	KANDB     K1, K2, K2
	VPADDQ    Z25, Z26, Z3
	VPADDQ    Z24, Z3, Z3        // 9
	VPCMPUQ   $5, Z3, Z2, K4     // a span of 9 bytes or more, or hi below lo
	VPCMPUQ   $1, Z1, Z0, K4, K4 // lo below hi
	VPCMPUQ   $2, Z20, Z1, K4, K4 // hi ≤ size, so lo + 8 ≤ size as well
	VPXORQ    Z5, Z5, Z5
	VPGATHERQQ (SI)(Z0*1), K1, Z5 // the 8 bytes from lo
	VPANDQ    Z30, Z5, Z6        // head
	VPCMPUQ   $1, Z29, Z6, K3    // a head of one byte
	KANDB     K3, K2, K2
	KANDB     K3, K4, K4
	VPADDQ    Z24, Z24, Z7
	VPADDQ    Z7, Z6, Z6         // count = head + 2
	VMOVDQU64 Z6, 128(SP)
	VPSUBQ    Z24, Z2, Z8
	VPSLLQ    $3, Z8, Z8         // 8n, the span's bytes after the head
	VPSUBQ    Z8, Z28, Z9
	VPSRLVQ   Z9, Z23, Z10       // keep: the n low bytes
	VPSRLQ    $8, Z5, Z7
	VPANDQ    Z10, Z7, Z7        // w
	VPANDQ    Z22, Z7, Z11       // cont
	VPANDQ    Z22, Z10, Z12
	VPXORQ    Z12, Z11, Z12      // ends
	VPOPCNTQ  Z12, Z13
	VPCMPEQQ  Z6, Z13, K2, K2    // count terminators
	VPSUBQ    Z24, Z8, Z14
	VPSRLVQ   Z14, Z12, Z14
	VPCMPEQQ  Z24, Z14, K2, K2   // the last byte one of them
	VPANDNQ   Z7, Z22, Z15       // pay
	VPSLLQ    $8, Z11, Z16       // at1
	VPSLLQ    $16, Z11, Z17
	VPANDQ    Z17, Z16, Z17      // at2
	VPSLLQ    $24, Z11, Z18
	VPANDQ    Z18, Z17, Z18      // at3
	VPSLLQ    $32, Z11, Z19
	VPANDQ    Z19, Z18, Z19      // at4
	VPTESTMQ  Z19, Z11, K3       // a fifth continuation byte
	KANDNB    K2, K3, K2
	VPSADBW   Z31, Z15, Z0       // Σ pay
	LOWSUM(Z16, Z1)
	LOWSUM(Z17, Z2)
	LOWSUM(Z18, Z3)
	LOWSUM(Z19, Z4)
	PLACESUM(Z0, Z1, Z2, Z3, Z4)
	VPCMPUQ   $1, Z21, Z0, K2, K2 // below idLimit
	KMOVB     K2, (DI)
	KMOVB     K4, R13

longNext:
	TESTQ R13, R13
	JZ    groupDone
	BSFQ  R13, R8                // lane j
	LEAQ  -1(R13), AX
	ANDQ  AX, R13
	MOVQ  0(SP)(R8*8), R10       // lo
	MOVQ  64(SP)(R8*8), CX       // hi
	INCQ  R10                    // the ids start after the head
	SUBQ  R10, CX                // the ids' bytes, 8 or more
	ADDQ  SI, R10
	XORQ  R11, R11               // terminators
	KXORQ K5, K5, K5             // fifth continuation bytes
	VPXORQ Z9, Z9, Z9            // the chunk before's continuation bits
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14

longChunk:
	MOVQ  $-1, AX
	CMPQ  CX, $64
	JAE   longWhole
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX

longWhole:
	KMOVQ      AX, K1
	VMOVDQU8.Z (R10), K1, Z0
	VPMOVB2M   Z0, K3
	KMOVQ      K3, DX
	NOTQ       DX
	ANDQ       AX, DX
	POPCNTQ    DX, DX
	ADDQ       DX, R11
	VPANDQ     Z22, Z0, Z1       // cont
	VALIGNQ    $7, Z9, Z1, Z2    // the cont of the qword before
	SINCE(Z1, Z2, Z3, 8, 56)     // at1
	SINCE(Z1, Z2, Z4, 16, 48)
	VPANDQ     Z4, Z3, Z4        // at2
	SINCE(Z1, Z2, Z5, 24, 40)
	VPANDQ     Z5, Z4, Z5        // at3
	SINCE(Z1, Z2, Z6, 32, 32)
	VPANDQ     Z6, Z5, Z6        // at4
	VPTESTMQ   Z6, Z1, K6
	KORB       K6, K5, K5
	VPANDNQ    Z0, Z22, Z15      // pay
	VPSADBW    Z31, Z15, Z7
	VPADDQ     Z7, Z10, Z10
	LOWSUM(Z3, Z7)
	VPADDQ     Z7, Z11, Z11
	LOWSUM(Z4, Z7)
	VPADDQ     Z7, Z12, Z12
	LOWSUM(Z5, Z7)
	VPADDQ     Z7, Z13, Z13
	LOWSUM(Z6, Z7)
	VPADDQ     Z7, Z14, Z14
	VMOVDQA64  Z1, Z9
	ADDQ       $64, R10
	SUBQ       $64, CX
	JG         longChunk
	KMOVQ      K3, DX            // the last chunk's continuation bytes
	MOVQ       AX, R12
	SHRQ       $1, R12
	XORQ       R12, AX           // its last byte
	TESTQ      AX, DX
	JNZ        longNext
	KORTESTB   K5, K5
	JNZ        longNext
	CMPQ       R11, 128(SP)(R8*8)
	JNE        longNext
	PLACESUM(Z10, Z11, Z12, Z13, Z14)
	VEXTRACTI64X4 $1, Z10, Y11
	VPADDQ     Y11, Y10, Y10
	VEXTRACTI128 $1, Y10, X11
	VPADDQ     X11, X10, X10
	VPSHUFD    $0x4E, X10, X11
	VPADDQ     X11, X10, X10
	MOVQ       X10, AX
	CMPQ       AX, idLimit+32(FP)
	JAE        longNext
	MOVQ       R8, CX
	MOVQ       $1, AX
	SHLQ       CX, AX
	ORB        AL, (DI)
	JMP        longNext

groupDone:
	ADDQ      $32, BX
	INCQ      DI
	DECQ      R9
	JNZ       listsGroup
	VZEROUPPER

listsDone:
	RET
