// The PEXT projector: see project_amd64.go for the contract and
// internal/cpu for the gate that guards it (BMI2 for PEXTQ and SHLXQ).

#include "textflag.h"

// func pextProject(q *uint64, pieces *pextPiece, n int, out *uint64)
// A piece is {mask uint64; src uint32; at uint32}: AX accumulates an
// output word, R11 holds the zero that restarts it.
TEXT ·pextProject(SB), NOSPLIT, $0-32
	MOVQ q+0(FP), SI
	MOVQ pieces+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ out+24(FP), R8
	XORQ AX, AX
	XORQ R11, R11

loop:
	MOVL    8(DI), DX       // src
	MOVL    12(DI), R10     // at
	MOVQ    (SI)(DX*8), R9
	PEXTQ   0(DI), R9, R9   // the bits of q[src] under mask, packed low
	SHLXQ   R10, R9, R9     // to bit at%64: SHLX takes the count mod 64
	TESTL   $63, R10
	CMOVQEQ R11, AX         // a piece at bit 0 starts its word over
	ORQ     R9, AX
	SHRL    $6, R10
	MOVQ    AX, (R8)(R10*8)
	ADDQ    $16, DI
	DECQ    CX
	JNZ     loop
	RET
