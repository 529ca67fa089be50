// AVX2+FMA kernels for the vector primitives that hold the profile. Every
// kernel works on raw pointers (the Go wrappers check the last index
// first), reads and writes exactly [p, p+n), and has a portable Go twin
// that it is tested against. Unaligned loads throughout; tails of 1-3
// elements run scalar VEX code and the narrow product masks its loads and
// stores, so no kernel touches an element it was not given.

#include "textflag.h"

// The macros come first: go vet reads a #define between two TEXT blocks as
// part of the function above it.

// HSUM folds the four lanes of Y0 into the low lane of X0.
#define HSUM \
	VEXTRACTF128 $1, Y0, X1; \
	VADDPD       X1, X0, X0; \
	VUNPCKHPD    X0, X0, X1; \
	VADDSD       X1, X0, X0

// RANK1, RANK4 and RANK8 add b0.. (broadcast in Y0..) times four elements
// of the rows at R8-R13, SI, DX, off bytes past index AX, into acc; the
// RANKnS forms do the same for one element.
#define RANK1(off, acc) \
	VFMADD231PD off(R8)(AX*8), Y0, acc

#define RANK4(off, acc) \
	RANK1(off, acc); \
	VFMADD231PD off(R9)(AX*8), Y1, acc; \
	VFMADD231PD off(R10)(AX*8), Y2, acc; \
	VFMADD231PD off(R11)(AX*8), Y3, acc

#define RANK8(off, acc) \
	RANK4(off, acc); \
	VFMADD231PD off(R12)(AX*8), Y4, acc; \
	VFMADD231PD off(R13)(AX*8), Y5, acc; \
	VFMADD231PD off(SI)(AX*8), Y6, acc; \
	VFMADD231PD off(DX)(AX*8), Y7, acc

#define RANK1S(acc) \
	VFMADD231SD (R8)(AX*8), X0, acc

#define RANK4S(acc) \
	RANK1S(acc); \
	VFMADD231SD (R9)(AX*8), X1, acc; \
	VFMADD231SD (R10)(AX*8), X2, acc; \
	VFMADD231SD (R11)(AX*8), X3, acc

#define RANK8S(acc) \
	RANK4S(acc); \
	VFMADD231SD (R12)(AX*8), X4, acc; \
	VFMADD231SD (R13)(AX*8), X5, acc; \
	VFMADD231SD (SI)(AX*8), X6, acc; \
	VFMADD231SD (DX)(AX*8), X7, acc

// UPDATE is the rank-k update c[0:n) += RANK over the c at DI, n in CX:
// one load and one store of c per k multiplies, 8 elements per pass, then
// 4, then 1.
#define UPDATE(RANK, RANKS) \
	XORQ AX, AX; \
	MOVQ CX, BX; \
	ANDQ $-8, BX; \
	JMP  c8; \
b8: \
	VMOVUPD (DI)(AX*8), Y8; \
	VMOVUPD 32(DI)(AX*8), Y9; \
	RANK(0, Y8); \
	RANK(32, Y9); \
	VMOVUPD Y8, (DI)(AX*8); \
	VMOVUPD Y9, 32(DI)(AX*8); \
	ADDQ    $8, AX; \
c8: \
	CMPQ AX, BX; \
	JLT  b8; \
	MOVQ CX, BX; \
	ANDQ $-4, BX; \
	CMPQ AX, BX; \
	JGE  c1; \
	VMOVUPD (DI)(AX*8), Y8; \
	RANK(0, Y8); \
	VMOVUPD Y8, (DI)(AX*8); \
	ADDQ    $4, AX; \
	JMP     c1; \
b1: \
	VMOVSD (DI)(AX*8), X8; \
	RANKS(X8); \
	VMOVSD X8, (DI)(AX*8); \
	INCQ   AX; \
c1: \
	CMPQ AX, CX; \
	JLT  b1; \
	VZEROUPPER; \
	RET

// NSTEP2 is two steps of the common dimension for the output row at p: its
// A elements at p and p+R12 are broadcast and multiplied into the two B
// rows held in Y8 (even step, sums in even) and Y9 (odd step, sums in odd).
#define NSTEP2(p, even, odd) \
	VBROADCASTSD (p), Y10; \
	VBROADCASTSD (p)(R12*1), Y11; \
	VFMADD231PD  Y8, Y10, even; \
	VFMADD231PD  Y9, Y11, odd; \
	LEAQ         (p)(R12*2), p

#define NSTEP1(p, even) \
	VBROADCASTSD (p), Y10; \
	VFMADD231PD  Y8, Y10, even

// ROWPTRS points R8-R11 at four rows stride bytes apart from base; the
// rows past the BX that are left alias the first one.
#define ROWPTRS(base, stride) \
	MOVQ    base, R8; \
	LEAQ    (R8)(stride*1), R9; \
	CMPQ    BX, $2; \
	CMOVQLT R8, R9; \
	LEAQ    (R9)(stride*1), R10; \
	CMPQ    BX, $3; \
	CMOVQLT R8, R10; \
	LEAQ    (R10)(stride*1), R11; \
	CMPQ    BX, $4; \
	CMOVQLT R8, R11

// BINARY is c = a OP b element-wise: 8 per pass, then 4, then 1.
#define BINARY(OPPD, OPSD) \
	MOVQ a+0(FP), SI; \
	MOVQ b+8(FP), DX; \
	MOVQ c+16(FP), DI; \
	MOVQ n+24(FP), CX; \
	XORQ AX, AX; \
	MOVQ CX, BX; \
	ANDQ $-8, BX; \
	JMP  c8; \
b8: \
	VMOVUPD (SI)(AX*8), Y0; \
	VMOVUPD 32(SI)(AX*8), Y1; \
	OPPD    (DX)(AX*8), Y0, Y0; \
	OPPD    32(DX)(AX*8), Y1, Y1; \
	VMOVUPD Y0, (DI)(AX*8); \
	VMOVUPD Y1, 32(DI)(AX*8); \
	ADDQ    $8, AX; \
c8: \
	CMPQ AX, BX; \
	JLT  b8; \
	MOVQ CX, BX; \
	ANDQ $-4, BX; \
	CMPQ AX, BX; \
	JGE  c1; \
	VMOVUPD (SI)(AX*8), Y0; \
	OPPD    (DX)(AX*8), Y0, Y0; \
	VMOVUPD Y0, (DI)(AX*8); \
	ADDQ    $4, AX; \
	JMP     c1; \
b1: \
	VMOVSD (SI)(AX*8), X0; \
	OPSD   (DX)(AX*8), X0, X0; \
	VMOVSD X0, (DI)(AX*8); \
	INCQ   AX; \
c1: \
	CMPQ AX, CX; \
	JLT  b1; \
	VZEROUPPER; \
	RET

// SCALAR is c = s OP a element-wise with s broadcast in Y15; + and * are
// commutative, so the same operand order serves a OP s and s - a.
#define SCALAR(OPPD, OPSD) \
	MOVQ         a+0(FP), SI; \
	VBROADCASTSD s+8(FP), Y15; \
	MOVQ         c+16(FP), DI; \
	MOVQ         n+24(FP), CX; \
	XORQ         AX, AX; \
	MOVQ         CX, BX; \
	ANDQ         $-8, BX; \
	JMP          c8; \
b8: \
	OPPD    (SI)(AX*8), Y15, Y0; \
	OPPD    32(SI)(AX*8), Y15, Y1; \
	VMOVUPD Y0, (DI)(AX*8); \
	VMOVUPD Y1, 32(DI)(AX*8); \
	ADDQ    $8, AX; \
c8: \
	CMPQ AX, BX; \
	JLT  b8; \
	MOVQ CX, BX; \
	ANDQ $-4, BX; \
	CMPQ AX, BX; \
	JGE  c1; \
	OPPD    (SI)(AX*8), Y15, Y0; \
	VMOVUPD Y0, (DI)(AX*8); \
	ADDQ    $4, AX; \
	JMP     c1; \
b1: \
	OPSD   (SI)(AX*8), X15, X0; \
	VMOVSD X0, (DI)(AX*8); \
	INCQ   AX; \
c1: \
	CMPQ AX, CX; \
	JLT  b1; \
	VZEROUPPER; \
	RET

// func cpuHasAVX2FMA() bool
// CPUID.1:ECX FMA(12) OSXSAVE(27) AVX(28), XCR0 bits 1-2 (the OS saves
// YMM state), CPUID.7:EBX AVX2(5).
TEXT ·cpuHasAVX2FMA(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	ANDL $0x18001000, CX
	CMPL CX, $0x18001000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  no
	MOVB $1, ret+0(FP)
no:
	RET

// func dotAsm(a, b *float64, n int) float64
// Four accumulators of four lanes over 16 elements per pass, then 4, then 1.
TEXT ·dotAsm(SB), NOSPLIT, $0-32
	MOVQ   a+0(FP), SI
	MOVQ   b+8(FP), DI
	MOVQ   n+16(FP), CX
	XORQ   AX, AX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   CX, BX
	ANDQ   $-16, BX
	JMP    c16
b16:
	VMOVUPD     (SI)(AX*8), Y4
	VMOVUPD     32(SI)(AX*8), Y5
	VMOVUPD     64(SI)(AX*8), Y6
	VMOVUPD     96(SI)(AX*8), Y7
	VFMADD231PD (DI)(AX*8), Y4, Y0
	VFMADD231PD 32(DI)(AX*8), Y5, Y1
	VFMADD231PD 64(DI)(AX*8), Y6, Y2
	VFMADD231PD 96(DI)(AX*8), Y7, Y3
	ADDQ        $16, AX
c16:
	CMPQ AX, BX
	JLT  b16
	MOVQ CX, BX
	ANDQ $-4, BX
	JMP  c4
b4:
	VMOVUPD     (SI)(AX*8), Y4
	VFMADD231PD (DI)(AX*8), Y4, Y0
	ADDQ        $4, AX
c4:
	CMPQ   AX, BX
	JLT    b4
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	HSUM
	JMP    c1
b1:
	VMOVSD      (SI)(AX*8), X4
	VFMADD231SD (DI)(AX*8), X4, X0
	INCQ        AX
c1:
	CMPQ AX, CX
	JLT  b1
	VZEROUPPER
	VMOVSD X0, ret+24(FP)
	RET

// func sumAsm(a *float64, n int) float64
TEXT ·sumAsm(SB), NOSPLIT, $0-24
	MOVQ   a+0(FP), SI
	MOVQ   n+8(FP), CX
	XORQ   AX, AX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   CX, BX
	ANDQ   $-16, BX
	JMP    c16
b16:
	VADDPD (SI)(AX*8), Y0, Y0
	VADDPD 32(SI)(AX*8), Y1, Y1
	VADDPD 64(SI)(AX*8), Y2, Y2
	VADDPD 96(SI)(AX*8), Y3, Y3
	ADDQ   $16, AX
c16:
	CMPQ AX, BX
	JLT  b16
	MOVQ CX, BX
	ANDQ $-4, BX
	JMP  c4
b4:
	VADDPD (SI)(AX*8), Y0, Y0
	ADDQ   $4, AX
c4:
	CMPQ   AX, BX
	JLT    b4
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	HSUM
	JMP    c1
b1:
	VADDSD (SI)(AX*8), X0, X0
	INCQ   AX
c1:
	CMPQ AX, CX
	JLT  b1
	VZEROUPPER
	VMOVSD X0, ret+16(FP)
	RET

// func multAddAsm(a *float64, b float64, c *float64, n int)
// c += b*a.
TEXT ·multAddAsm(SB), NOSPLIT, $0-32
	MOVQ         a+0(FP), R8
	VBROADCASTSD b+8(FP), Y0
	MOVQ         c+16(FP), DI
	MOVQ         n+24(FP), CX
	UPDATE(RANK1, RANK1S)

// func multAdd4Asm(a0, a1, a2, a3 *float64, b0, b1, b2, b3 float64, c *float64, n int)
// c += b0*a0 + b1*a1 + b2*a2 + b3*a3.
TEXT ·multAdd4Asm(SB), NOSPLIT, $0-80
	MOVQ         a0+0(FP), R8
	MOVQ         a1+8(FP), R9
	MOVQ         a2+16(FP), R10
	MOVQ         a3+24(FP), R11
	VBROADCASTSD b0+32(FP), Y0
	VBROADCASTSD b1+40(FP), Y1
	VBROADCASTSD b2+48(FP), Y2
	VBROADCASTSD b3+56(FP), Y3
	MOVQ         c+64(FP), DI
	MOVQ         n+72(FP), CX
	UPDATE(RANK4, RANK4S)

// func multAdd8Asm(a0, a1, a2, a3, a4, a5, a6, a7 *float64, b0, b1, b2, b3, b4, b5, b6, b7 float64, c *float64, n int)
TEXT ·multAdd8Asm(SB), NOSPLIT, $0-144
	MOVQ         a0+0(FP), R8
	MOVQ         a1+8(FP), R9
	MOVQ         a2+16(FP), R10
	MOVQ         a3+24(FP), R11
	MOVQ         a4+32(FP), R12
	MOVQ         a5+40(FP), R13
	MOVQ         a6+48(FP), SI
	MOVQ         a7+56(FP), DX
	VBROADCASTSD b0+64(FP), Y0
	VBROADCASTSD b1+72(FP), Y1
	VBROADCASTSD b2+80(FP), Y2
	VBROADCASTSD b3+88(FP), Y3
	VBROADCASTSD b4+96(FP), Y4
	VBROADCASTSD b5+104(FP), Y5
	VBROADCASTSD b6+112(FP), Y6
	VBROADCASTSD b7+120(FP), Y7
	MOVQ         c+128(FP), DI
	MOVQ         n+136(FP), CX
	UPDATE(RANK8, RANK8S)

// func narrowAsm(a *float64, arow, ak int, b *float64, bstride int, c *float64, cstride, rows, k int, mask *[4]int64)
// The narrow-output product: C (rows x w at c, cstride apart, w <= 4 lanes
// set in mask) += A %*% B, where A's element (i, kk) is a[i*arow + kk*ak]
// and B's row kk starts at b[kk*bstride]. Four output rows are interleaved,
// their sums held in registers over the whole common dimension (two steps
// of it per pass, so eight independent FMA chains); per A element the cost
// is one broadcast and one FMA, per B row one masked load shared by the
// four rows. A group of fewer than four rows points its spare rows at the
// group's first row, in A and in C. arow = astride, ak = 1 is
// A %*% B; arow = 1, ak = astride is t(A) %*% B.
TEXT ·narrowAsm(SB), NOSPLIT, $0-80
	MOVQ    a+0(FP), R13
	MOVQ    arow+8(FP), AX
	SHLQ    $3, AX
	MOVQ    ak+16(FP), R12
	SHLQ    $3, R12
	MOVQ    bstride+32(FP), DX
	SHLQ    $3, DX
	MOVQ    c+40(FP), DI
	MOVQ    mask+72(FP), BX
	VMOVDQU (BX), Y15
	MOVQ    rows+56(FP), BX
group:
	ROWPTRS(R13, AX)
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   b+24(FP), SI
	MOVQ   k+64(FP), CX
	SUBQ   $2, CX
	JLT    klast
k2:
	VMASKMOVPD (SI), Y15, Y8
	VMASKMOVPD (SI)(DX*1), Y15, Y9
	NSTEP2(R8, Y0, Y4)
	NSTEP2(R9, Y1, Y5)
	NSTEP2(R10, Y2, Y6)
	NSTEP2(R11, Y3, Y7)
	LEAQ       (SI)(DX*2), SI
	SUBQ       $2, CX
	JGE        k2
klast:
	CMPQ       CX, $-1
	JNE        store
	VMASKMOVPD (SI), Y15, Y8
	NSTEP1(R8, Y0)
	NSTEP1(R9, Y1)
	NSTEP1(R10, Y2)
	NSTEP1(R11, Y3)
store:
	// All four loads of C come before the stores, and the first row is
	// stored last: a masked load never waits on an overlapping store of
	// the row beside it, and a spare row's store lands under the real one.
	MOVQ       cstride+48(FP), CX
	SHLQ       $3, CX
	ROWPTRS(DI, CX)
	VADDPD     Y4, Y0, Y0
	VADDPD     Y5, Y1, Y1
	VADDPD     Y6, Y2, Y2
	VADDPD     Y7, Y3, Y3
	VMASKMOVPD (R8), Y15, Y8
	VMASKMOVPD (R9), Y15, Y9
	VMASKMOVPD (R10), Y15, Y10
	VMASKMOVPD (R11), Y15, Y11
	VADDPD     Y0, Y8, Y8
	VADDPD     Y1, Y9, Y9
	VADDPD     Y2, Y10, Y10
	VADDPD     Y3, Y11, Y11
	VMASKMOVPD Y11, Y15, (R11)
	VMASKMOVPD Y10, Y15, (R10)
	VMASKMOVPD Y9, Y15, (R9)
	VMASKMOVPD Y8, Y15, (R8)
	LEAQ       (DI)(CX*4), DI
	LEAQ       (R13)(AX*4), R13
	SUBQ       $4, BX
	JGT        group
	VZEROUPPER
	RET

// func multWriteAsm(a, b, c *float64, n int)
TEXT ·multWriteAsm(SB), NOSPLIT, $0-32
	BINARY(VMULPD, VMULSD)

// func addWriteAsm(a, b, c *float64, n int)
TEXT ·addWriteAsm(SB), NOSPLIT, $0-32
	BINARY(VADDPD, VADDSD)

// func minusWriteAsm(a, b, c *float64, n int)
TEXT ·minusWriteAsm(SB), NOSPLIT, $0-32
	BINARY(VSUBPD, VSUBSD)

// func multScalarAsm(a *float64, s float64, c *float64, n int)
TEXT ·multScalarAsm(SB), NOSPLIT, $0-32
	SCALAR(VMULPD, VMULSD)

// func addScalarAsm(a *float64, s float64, c *float64, n int)
TEXT ·addScalarAsm(SB), NOSPLIT, $0-32
	SCALAR(VADDPD, VADDSD)

// func scalarMinusAsm(a *float64, s float64, c *float64, n int)
TEXT ·scalarMinusAsm(SB), NOSPLIT, $0-32
	SCALAR(VSUBPD, VSUBSD)
