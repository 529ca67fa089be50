// AVX2+FMA kernels for the vector primitives that hold the profile. Every
// kernel works on raw pointers (the Go wrappers check the last index
// first), reads and writes exactly [p, p+n), and has a portable Go twin
// that it is tested against. Unaligned loads throughout; tails of 1-3
// elements run scalar VEX code in the reductions and rank-k updates, the
// CSR-row kernels read and write rows of 2-16 cells as exact pieces of 4, 2
// and 1 lanes, and masked loads and stores cover the tails everywhere else
// (the narrow products, the tile kernels, exp/log/sigmoid), so no kernel
// touches an element it was not given.

#include "textflag.h"

// 1.0 and the NaN math.NaN returns, +Inf and the sign bit.
DATA kconst<>+0(SB)/8, $0x3ff0000000000000
DATA kconst<>+8(SB)/8, $0x7ff8000000000001
DATA kconst<>+16(SB)/8, $0x7ff0000000000000
DATA kconst<>+24(SB)/8, $0x8000000000000000
GLOBL kconst<>(SB), RODATA|NOPTR, $32

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

// TILE is c = a OP b over a rows x w tile, c row-major, a's rows R8 bytes
// apart: 8 elements of a row per pass, then 4, then the last w%4 under the
// mask in Y15. VV forms read b like a (LOADV*, rows R9 bytes apart, into
// Y2/Y3); VS forms broadcast one b per row into Y12 (ROWS*, R9 bytes apart)
// and read nothing else. OP(b, r, t, u) is r = r OP b with scratch t, u.
#define TILE(ROWB, LOADB8, LOADB4, LOADBT, B0, B1, OP) \
	MOVQ         a+8(FP), SI; \
	MOVQ         astride+16(FP), R8; \
	SHLQ         $3, R8; \
	MOVQ         b+24(FP), DX; \
	MOVQ         bstride+32(FP), R9; \
	SHLQ         $3, R9; \
	MOVQ         c+40(FP), DI; \
	MOVQ         rows+48(FP), R10; \
	MOVQ         w+56(FP), CX; \
	MOVQ         mask+64(FP), AX; \
	VMOVDQU      (AX), Y15; \
	VBROADCASTSD kconst<>+0(SB), Y14; \
	VBROADCASTSD kconst<>+8(SB), Y13; \
	MOVQ         CX, R11; \
	ANDQ         $-8, R11; \
	MOVQ         CX, R12; \
	ANDQ         $-4, R12; \
row: \
	ROWB; \
	XORQ AX, AX; \
	JMP  c8; \
b8: \
	VMOVUPD (SI)(AX*8), Y0; \
	VMOVUPD 32(SI)(AX*8), Y1; \
	LOADB8; \
	OP(B0, Y0, Y4, Y5); \
	OP(B1, Y1, Y6, Y7); \
	VMOVUPD Y0, (DI)(AX*8); \
	VMOVUPD Y1, 32(DI)(AX*8); \
	ADDQ    $8, AX; \
c8: \
	CMPQ AX, R11; \
	JLT  b8; \
	CMPQ AX, R12; \
	JGE  tail; \
	VMOVUPD (SI)(AX*8), Y0; \
	LOADB4; \
	OP(B0, Y0, Y4, Y5); \
	VMOVUPD Y0, (DI)(AX*8); \
	ADDQ    $4, AX; \
tail: \
	CMPQ AX, CX; \
	JGE  next; \
	VMASKMOVPD (SI)(AX*8), Y15, Y0; \
	LOADBT; \
	OP(B0, Y0, Y4, Y5); \
	VMASKMOVPD Y0, Y15, (DI)(AX*8); \
next: \
	ADDQ R8, SI; \
	ADDQ R9, DX; \
	LEAQ (DI)(CX*8), DI; \
	DECQ R10; \
	JNZ  row; \
	VZEROUPPER; \
	RET

#define NONE
#define LOADV8 \
	VMOVUPD (DX)(AX*8), Y2; \
	VMOVUPD 32(DX)(AX*8), Y3
#define LOADV4 VMOVUPD (DX)(AX*8), Y2
#define LOADVT VMASKMOVPD (DX)(AX*8), Y15, Y2
#define ROWS VBROADCASTSD (DX), Y12
// a / s is a * (1/s): one scalar division per row.
#define ROWSRECIP \
	VMOVSD       (DX), X12; \
	VDIVSD       X12, X14, X12; \
	VBROADCASTSD X12, Y12

#define TILEVV(OP) TILE(NONE, LOADV8, LOADV4, LOADVT, Y2, Y3, OP)
#define TILEVS(ROWB, OP) TILE(ROWB, NONE, NONE, NONE, Y12, Y12, OP)

// The operations. Comparisons select the bits of 1.0 (Y14) under the
// predicate's mask, with the predicates that are Go's operators on NaN.
// Min and max are Min2/Max2: both operand orders of VMINPD/VMAXPD (which
// return their second operand for zeros and NaN) combined, so that -0 < +0,
// then the canonical NaN (Y13) wherever an operand was one.
#define ADDOP(b, r, t, u) VADDPD b, r, r
#define SUBOP(b, r, t, u) VSUBPD b, r, r
#define RSUBOP(b, r, t, u) VSUBPD r, b, r
#define MULOP(b, r, t, u) VMULPD b, r, r
#define DIVOP(b, r, t, u) VDIVPD b, r, r
#define RDIVOP(b, r, t, u) VDIVPD r, b, r
#define EQOP(b, r, t, u) \
	VCMPPD $0x00, b, r, r; \
	VANDPD Y14, r, r
#define NEQOP(b, r, t, u) \
	VCMPPD $0x04, b, r, r; \
	VANDPD Y14, r, r
#define LTOP(b, r, t, u) \
	VCMPPD $0x11, b, r, r; \
	VANDPD Y14, r, r
#define LEOP(b, r, t, u) \
	VCMPPD $0x12, b, r, r; \
	VANDPD Y14, r, r
#define GTOP(b, r, t, u) \
	VCMPPD $0x1E, b, r, r; \
	VANDPD Y14, r, r
#define GEOP(b, r, t, u) \
	VCMPPD $0x1D, b, r, r; \
	VANDPD Y14, r, r
#define MINOP(b, r, t, u) \
	VCMPPD    $3, b, r, u; \
	VMINPD    b, r, t; \
	VMINPD    r, b, r; \
	VORPD     t, r, r; \
	VBLENDVPD u, Y13, r, r
#define MAXOP(b, r, t, u) \
	VCMPPD    $3, b, r, u; \
	VMAXPD    b, r, t; \
	VMAXPD    r, b, r; \
	VANDPD    t, r, r; \
	VBLENDVPD u, Y13, r, r

// MIN3 is r = Min2(r, b) short of the canonical NaN: a NaN operand leaves
// some NaN in r, and keeps doing so down a chain of MIN3s (FIXNAN ends it).
// Max is the same chain over negated values.
#define MIN3(b, r, t) \
	VMINPD b, r, t; \
	VMINPD r, b, r; \
	VORPD  t, r, r
#define ADD3(b, r, t) VADDPD b, r, r
#define FIXNAN \
	VCMPPD    $3, Y0, Y0, Y2; \
	VBLENDVPD Y2, Y13, Y0, Y0
#define NEGFIXNAN \
	VXORPD Y11, Y0, Y0; \
	FIXNAN

// PLUSZERO adds +0 to the sums, as the Go loop starts from it: a row of
// four -0 lanes (w = 4, no masked lane to add a +0) sums to +0.
#define PLUSZERO \
	VXORPD Y2, Y2, Y2; \
	VADDPD Y2, Y0, Y0

// ROWRED reduces each row of a narrow tile (w < 8, rows CX bytes apart:
// lanes 0-3 under the mask in Y15, lanes 4-7, when there are any, under
// Y14) to d[t], four rows per pass: each row's two halves are combined,
// then a transposing reduction leaves the four results in the lanes of Y0.
// PREP(r, m) readies the loaded lanes and makes the lanes outside m neutral
// (the masked load left them 0); FIN finishes Y0. A last group of fewer than
// four rows reads its first row in place of the missing ones and stores
// under the mask in Y10.
#define ROWRED(PREP, OP, FIN) \
	MOVQ         a+8(FP), SI; \
	MOVQ         astride+16(FP), CX; \
	SHLQ         $3, CX; \
	MOVQ         d+24(FP), DI; \
	MOVQ         rows+32(FP), BX; \
	MOVQ         lo+40(FP), AX; \
	VMOVDQU      (AX), Y15; \
	MOVQ         hi+48(FP), AX; \
	VMOVDQU      (AX), Y14; \
	MOVQ         (AX), R12; \
	MOVQ         tail+56(FP), AX; \
	VMOVDQU      (AX), Y10; \
	VBROADCASTSD kconst<>+8(SB), Y13; \
	VBROADCASTSD kconst<>+16(SB), Y12; \
	VBROADCASTSD kconst<>+24(SB), Y11; \
group: \
	ROWPTRS(SI, CX); \
	VMASKMOVPD (R8), Y15, Y0; \
	VMASKMOVPD (R9), Y15, Y1; \
	VMASKMOVPD (R10), Y15, Y2; \
	VMASKMOVPD (R11), Y15, Y3; \
	PREP(Y0, Y15); \
	PREP(Y1, Y15); \
	PREP(Y2, Y15); \
	PREP(Y3, Y15); \
	TESTQ      R12, R12; \
	JZ         fold; \
	VMASKMOVPD 32(R8), Y14, Y4; \
	VMASKMOVPD 32(R9), Y14, Y5; \
	VMASKMOVPD 32(R10), Y14, Y6; \
	VMASKMOVPD 32(R11), Y14, Y7; \
	PREP(Y4, Y14); \
	PREP(Y5, Y14); \
	PREP(Y6, Y14); \
	PREP(Y7, Y14); \
	OP(Y4, Y0, Y8); \
	OP(Y5, Y1, Y8); \
	OP(Y6, Y2, Y8); \
	OP(Y7, Y3, Y8); \
fold: \
	VUNPCKLPD  Y1, Y0, Y4; \
	VUNPCKHPD  Y1, Y0, Y5; \
	VUNPCKLPD  Y3, Y2, Y6; \
	VUNPCKHPD  Y3, Y2, Y7; \
	OP(Y5, Y4, Y8); \
	OP(Y7, Y6, Y8); \
	VPERM2F128 $0x20, Y6, Y4, Y0; \
	VPERM2F128 $0x31, Y6, Y4, Y1; \
	OP(Y1, Y0, Y8); \
	FIN; \
	CMPQ       BX, $4; \
	JLT        last; \
	VMOVUPD    Y0, (DI); \
	LEAQ       (SI)(CX*4), SI; \
	ADDQ       $32, DI; \
	SUBQ       $4, BX; \
	JGT        group; \
	VZEROUPPER; \
	RET; \
last: \
	VMASKMOVPD Y0, Y10, (DI); \
	VZEROUPPER; \
	RET

#define ASIS(r, m)
#define SQUARE(r, m) VMULPD r, r, r
#define ORINF(r, m) VBLENDVPD m, r, Y12, r
#define NEGORINF(r, m) \
	VXORPD    Y11, r, r; \
	VBLENDVPD m, r, Y12, r

// MINMAX is the minimum of n >= 8 elements: two accumulators of four
// lanes, 8 elements per pass, and the last 8 once more in place of a tail
// (a minimum does not mind seeing an element twice).
#define MINMAX(LOAD, FIN) \
	MOVQ         a+0(FP), SI; \
	MOVQ         n+8(FP), CX; \
	VBROADCASTSD kconst<>+8(SB), Y13; \
	VBROADCASTSD kconst<>+24(SB), Y11; \
	LOAD(0(SI), Y0); \
	LOAD(32(SI), Y1); \
	MOVQ         $8, AX; \
	MOVQ         CX, BX; \
	ANDQ         $-8, BX; \
	JMP          c8; \
b8: \
	LOAD(0(SI)(AX*8), Y2); \
	LOAD(32(SI)(AX*8), Y3); \
	MIN3(Y2, Y0, Y4); \
	MIN3(Y3, Y1, Y5); \
	ADDQ $8, AX; \
c8: \
	CMPQ AX, BX; \
	JLT  b8; \
	LEAQ -64(SI)(CX*8), SI; \
	LOAD(0(SI), Y2); \
	LOAD(32(SI), Y3); \
	MIN3(Y2, Y0, Y4); \
	MIN3(Y3, Y1, Y5); \
	MIN3(Y1, Y0, Y4); \
	VEXTRACTF128 $1, Y0, X1; \
	MIN3(X1, X0, X2); \
	VUNPCKHPD    X0, X0, X1; \
	MIN3(X1, X0, X2); \
	FIN; \
	VZEROUPPER; \
	VMOVSD X0, ret+16(FP); \
	RET

#define LOADPOS(m, r) VMOVUPD m, r
#define LOADNEG(m, r) \
	VMOVUPD m, r; \
	VXORPD  Y11, r, r

// UNARY maps n elements four lanes at a time, the last n%4 under the tail
// mask (see laneKernel in unary.go). CORE computes Y1 = f(Y0) with the
// constants at R11 and sets Y7 in the lanes it declines, which keep their
// argument; the group that has such lanes is the last one done.
#define UNARY(TAB, CORE) \
	MOVQ     a+0(FP), SI; \
	MOVQ     c+8(FP), DI; \
	MOVQ     n+16(FP), CX; \
	MOVQ     tail+24(FP), DX; \
	MOVQ     TAB, R11; \
	VPCMPEQD Y15, Y15, Y15; \
	XORQ     AX, AX; \
	XORQ     BX, BX; \
lanes: \
	MOVQ    CX, R8; \
	SUBQ    AX, R8; \
	JLE     done; \
	CMPQ    R8, $4; \
	JGE     full; \
	VMOVDQU (DX), Y15; \
full: \
	VMASKMOVPD (SI)(AX*8), Y15, Y0; \
	CORE; \
	VANDPD     Y15, Y7, Y7; \
	VBLENDVPD  Y7, Y0, Y1, Y1; \
	VMASKMOVPD Y1, Y15, (DI)(AX*8); \
	VMOVMSKPD  Y7, BX; \
	TESTQ      BX, BX; \
	JNZ        done; \
	ADDQ       $4, AX; \
	JMP        lanes; \
done: \
	MOVQ AX, group+32(FP); \
	MOVQ BX, bad+40(FP); \
	VZEROUPPER; \
	RET

// EXPCORE is Y1 = exp(x) for |x| <= 708 (expTab in unary.go): k = round(x
// log2 e), r = (x - k ln2) / 16 by two FMAs, P = r (1 + r/2 + ... + r^7/8!)
// = e^r - 1, squared up four times as P (P + 2), and k added to the exponent.
#define EXPCORE(x) \
	VANDPD       0(R11), x, Y2; \
	VCMPPD       $6, 32(R11), Y2, Y7; \
	VMULPD       64(R11), x, Y2; \
	VCVTPD2DQY   Y2, X2; \
	VCVTDQ2PD    X2, Y3; \
	VMOVAPD      x, Y4; \
	VFNMADD231PD 96(R11), Y3, Y4; \
	VFNMADD231PD 128(R11), Y3, Y4; \
	VMULPD       160(R11), Y4, Y4; \
	VMOVUPD      192(R11), Y1; \
	VFMADD213PD  224(R11), Y4, Y1; \
	VFMADD213PD  256(R11), Y4, Y1; \
	VFMADD213PD  288(R11), Y4, Y1; \
	VFMADD213PD  320(R11), Y4, Y1; \
	VFMADD213PD  352(R11), Y4, Y1; \
	VFMADD213PD  384(R11), Y4, Y1; \
	VFMADD213PD  416(R11), Y4, Y1; \
	VMULPD       Y1, Y4, Y4; \
	VADDPD       448(R11), Y4, Y1; \
	VMULPD       Y1, Y4, Y4; \
	VADDPD       448(R11), Y4, Y1; \
	VMULPD       Y1, Y4, Y4; \
	VADDPD       448(R11), Y4, Y1; \
	VMULPD       Y1, Y4, Y4; \
	VADDPD       448(R11), Y4, Y1; \
	VFMADD213PD  416(R11), Y1, Y4; \
	VPMOVSXDQ    X2, Y2; \
	VPSLLQ       $52, Y2, Y2; \
	VPADDQ       Y2, Y4, Y1

#define EXPOF EXPCORE(Y0)
#define SIGMOIDOF \
	VXORPD  480(R11), Y0, Y6; \
	EXPCORE(Y6); \
	VADDPD  416(R11), Y1, Y1; \
	VMOVUPD 416(R11), Y2; \
	VDIVPD  Y1, Y2, Y1

// LOGOF is Y1 = ln(Y0) for positive normal arguments (logTab in unary.go),
// fdlibm's evaluation in math.Log's order of operations: x = 2^k (1 + f)
// with 1 + f in [sqrt(1/2), sqrt 2), s = f / (2 + f), R = s^2 L(s^4) + s^4
// L'(s^4), ln x = k ln2hi - ((f^2/2 - (s (f^2/2 + R) + k ln2lo)) - f).
#define LOGOF \
	VCMPPD  $0x09, 0(R11), Y0, Y7; \
	VCMPPD  $0x05, 32(R11), Y0, Y2; \
	VORPD   Y2, Y7, Y7; \
	VANDPD  64(R11), Y0, Y2; \
	VORPD   96(R11), Y2, Y2; \
	VPSRLQ  $52, Y0, Y3; \
	VPOR    128(R11), Y3, Y3; \
	VSUBPD  160(R11), Y3, Y3; \
	VMOVUPD 192(R11), Y4; \
	VCMPPD  $5, Y2, Y4, Y4; \
	VANDPD  224(R11), Y4, Y4; \
	VSUBPD  Y4, Y3, Y3; \
	VADDPD  224(R11), Y4, Y4; \
	VMULPD  Y4, Y2, Y2; \
	VSUBPD  224(R11), Y2, Y2; \
	VADDPD  256(R11), Y2, Y4; \
	VDIVPD  Y4, Y2, Y4; \
	VMULPD  Y4, Y4, Y5; \
	VMULPD  Y5, Y5, Y6; \
	VMULPD  288(R11), Y6, Y1; \
	VADDPD  320(R11), Y1, Y1; \
	VMULPD  Y6, Y1, Y1; \
	VADDPD  352(R11), Y1, Y1; \
	VMULPD  Y6, Y1, Y1; \
	VADDPD  384(R11), Y1, Y1; \
	VMULPD  Y1, Y5, Y5; \
	VMULPD  416(R11), Y6, Y1; \
	VADDPD  448(R11), Y1, Y1; \
	VMULPD  Y6, Y1, Y1; \
	VADDPD  480(R11), Y1, Y1; \
	VMULPD  Y1, Y6, Y6; \
	VADDPD  Y6, Y5, Y5; \
	VMULPD  96(R11), Y2, Y1; \
	VMULPD  Y2, Y1, Y1; \
	VADDPD  Y1, Y5, Y5; \
	VMULPD  Y5, Y4, Y4; \
	VMULPD  512(R11), Y3, Y5; \
	VADDPD  Y5, Y4, Y4; \
	VSUBPD  Y4, Y1, Y1; \
	VSUBPD  Y2, Y1, Y1; \
	VMULPD  544(R11), Y3, Y3; \
	VSUBPD  Y1, Y3, Y1

// CH1-CH8 walk the four-lane chunks of a row of at most 32 cells: F(off, r,
// r2) for every full chunk and M(off, r, r2) for the last one (1-4 lanes
// under the mask in Y15), off the chunk's byte offset, r = Y<chunk> and r2 =
// Y<chunk+4> while there are at most four chunks (r2 = r past that).
#define CH1(F, M) M(0, Y0, Y4)
#define CH2(F, M) F(0, Y0, Y4); M(32, Y1, Y5)
#define CH3(F, M) F(0, Y0, Y4); F(32, Y1, Y5); M(64, Y2, Y6)
#define CH4(F, M) F(0, Y0, Y4); F(32, Y1, Y5); F(64, Y2, Y6); M(96, Y3, Y7)
#define CH5(F, M) F(0, Y0, Y0); F(32, Y1, Y1); F(64, Y2, Y2); F(96, Y3, Y3); M(128, Y4, Y4)
#define CH6(F, M) F(0, Y0, Y0); F(32, Y1, Y1); F(64, Y2, Y2); F(96, Y3, Y3); F(128, Y4, Y4); M(160, Y5, Y5)
#define CH7(F, M) F(0, Y0, Y0); F(32, Y1, Y1); F(64, Y2, Y2); F(96, Y3, Y3); F(128, Y4, Y4); F(160, Y5, Y5); M(192, Y6, Y6)
#define CH8(F, M) F(0, Y0, Y0); F(32, Y1, Y1); F(64, Y2, Y2); F(96, Y3, Y3); F(128, Y4, Y4); F(160, Y5, Y5); F(192, Y6, Y6); M(224, Y7, Y7)

// DOTROWS is d[t] += row t of A . v for rows of the cells CH covers: v lives
// in Y0-Y7 for the whole call; four rows per pass, each summed in one
// accumulator (Y8-Y11), then a transposing reduction and one add to d for
// the four. A last group of fewer than four rows reads its first row in
// place of the missing ones and adds under the mask in Y14. PRO ends the
// prologue, PTRS points R8-R11 at a group's rows and NEXT moves past them,
// and END follows the last return: the rows are consecutive (ROWS4) or
// named by indexes (IDXROWS4).
#define VLOAD(off, r, r2) VMOVUPD off(SI), r
#define VLOADM(off, r, r2) VMASKMOVPD off(SI), Y15, r
#define DOT4(off, r, r2) \
	VFMADD231PD off(R8), r, Y8; \
	VFMADD231PD off(R9), r, Y9; \
	VFMADD231PD off(R10), r, Y10; \
	VFMADD231PD off(R11), r, Y11
#define DOT4M(off, r, r2) \
	VMASKMOVPD  off(R8), Y15, Y12; \
	VMASKMOVPD  off(R9), Y15, Y13; \
	VFMADD231PD Y12, r, Y8; \
	VFMADD231PD Y13, r, Y9; \
	VMASKMOVPD  off(R10), Y15, Y12; \
	VMASKMOVPD  off(R11), Y15, Y13; \
	VFMADD231PD Y12, r, Y10; \
	VFMADD231PD Y13, r, Y11
#define DOTROWS(CH, PRO, PTRS, NEXT, END) \
	MOVQ    a+8(FP), R13; \
	MOVQ    astride+16(FP), AX; \
	SHLQ    $3, AX; \
	MOVQ    v+24(FP), SI; \
	MOVQ    d+32(FP), DI; \
	MOVQ    rows+40(FP), BX; \
	MOVQ    mask+48(FP), CX; \
	VMOVDQU (CX), Y15; \
	MOVQ    tail+56(FP), CX; \
	VMOVDQU (CX), Y14; \
	CH(VLOAD, VLOADM); \
	PRO; \
group: \
	PTRS; \
	VXORPD     Y8, Y8, Y8; \
	VXORPD     Y9, Y9, Y9; \
	VXORPD     Y10, Y10, Y10; \
	VXORPD     Y11, Y11, Y11; \
	CH(DOT4, DOT4M); \
	VUNPCKLPD  Y9, Y8, Y12; \
	VUNPCKHPD  Y9, Y8, Y13; \
	VADDPD     Y13, Y12, Y12; \
	VUNPCKLPD  Y11, Y10, Y8; \
	VUNPCKHPD  Y11, Y10, Y9; \
	VADDPD     Y9, Y8, Y8; \
	VPERM2F128 $0x20, Y8, Y12, Y9; \
	VPERM2F128 $0x31, Y8, Y12, Y10; \
	VADDPD     Y10, Y9, Y8; \
	CMPQ       BX, $4; \
	JLT        last; \
	VADDPD     (DI), Y8, Y8; \
	VMOVUPD    Y8, (DI); \
	NEXT; \
	ADDQ       $32, DI; \
	SUBQ       $4, BX; \
	JGT        group; \
	VZEROUPPER; \
	RET; \
last: \
	VMASKMOVPD (DI), Y14, Y9; \
	VADDPD     Y9, Y8, Y8; \
	VMASKMOVPD Y8, Y14, (DI); \
	VZEROUPPER; \
	RET; \
	END
#define ROWS4 ROWPTRS(R13, AX)
#define NEXTROWS4 LEAQ (R13)(AX*4), R13

// The indexed form reads the indexes at SI, four per group, and stops at
// bad, returning the rows done, when a row would start past the last one
// (R12 bytes past R13; unsigned: a negative index is past it too).
#define IDXPRO \
	MOVQ ix+64(FP), SI; \
	MOVQ last+72(FP), R12; \
	SHLQ $3, R12; \
	MOVQ BX, ret+80(FP)
#define IDXROW(off, r) \
	MOVQ  off(SI), r; \
	IMULQ AX, r; \
	CMPQ  r, R12; \
	JA    bad; \
	ADDQ  R13, r
#define IDXROWS4 \
	IDXROW(0, R8); \
	MOVQ R8, R9; \
	MOVQ R8, R10; \
	MOVQ R8, R11; \
	CMPQ BX, $2; \
	JLT  ready; \
	IDXROW(8, R9); \
	CMPQ BX, $3; \
	JLT  ready; \
	IDXROW(16, R10); \
	CMPQ BX, $4; \
	JLT  ready; \
	IDXROW(24, R11); \
ready:
#define NEXTIDX4 ADDQ $32, SI
#define IDXEND \
bad: \
	MOVQ rows+40(FP), CX; \
	SUBQ BX, CX; \
	MOVQ CX, ret+80(FP); \
	VZEROUPPER; \
	RET

// TDOT is c[0:m) += t(A) %*% b for rows of the m cells CH covers: the sums
// live in Y0-Y7 for the whole tile, and b's value for a row is broadcast
// once for all its chunks. Rows go two per pass; up to four chunks the
// second row adds into a second set of sums (r2, Y4-Y7), which FOLD adds to
// the first at the end, so that two rows' FMA chains run side by side.
#define TZERO(off, r, r2) \
	VXORPD r, r, r; \
	VXORPD r2, r2, r2
#define TROW2(off, r, r2) \
	VFMADD231PD off(R8), Y8, r; \
	VFMADD231PD off(R9), Y9, r2
#define TROW2M(off, r, r2) \
	VMASKMOVPD  off(R8), Y15, Y10; \
	VMASKMOVPD  off(R9), Y15, Y11; \
	VFMADD231PD Y10, Y8, r; \
	VFMADD231PD Y11, Y9, r2
#define TROW1(off, r, r2) VFMADD231PD off(R8), Y8, r
#define TROW1M(off, r, r2) \
	VMASKMOVPD  off(R8), Y15, Y10; \
	VFMADD231PD Y10, Y8, r
#define TFOLD(off, r, r2) VADDPD r2, r, r
#define NOFOLD(off, r, r2)
#define TSTORE(off, r, r2) \
	VADDPD  off(DI), r, r; \
	VMOVUPD r, off(DI)
#define TSTOREM(off, r, r2) \
	VMASKMOVPD off(DI), Y15, Y10; \
	VADDPD     Y10, r, r; \
	VMASKMOVPD r, Y15, off(DI)
#define TDOT(CH, FOLD) \
	MOVQ    a+8(FP), R8; \
	MOVQ    astride+16(FP), AX; \
	SHLQ    $3, AX; \
	MOVQ    b+24(FP), SI; \
	MOVQ    bstride+32(FP), DX; \
	SHLQ    $3, DX; \
	MOVQ    c+40(FP), DI; \
	MOVQ    rows+48(FP), BX; \
	MOVQ    mask+56(FP), CX; \
	VMOVDQU (CX), Y15; \
	CH(TZERO, TZERO); \
	SUBQ    $2, BX; \
	JLT     odd; \
pair: \
	LEAQ         (R8)(AX*1), R9; \
	VBROADCASTSD (SI), Y8; \
	VBROADCASTSD (SI)(DX*1), Y9; \
	CH(TROW2, TROW2M); \
	LEAQ         (R8)(AX*2), R8; \
	LEAQ         (SI)(DX*2), SI; \
	SUBQ         $2, BX; \
	JGE          pair; \
odd: \
	CMPQ         BX, $-1; \
	JNE          sum; \
	VBROADCASTSD (SI), Y8; \
	CH(TROW1, TROW1M); \
sum: \
	CH(FOLD, FOLD); \
	CH(TSTORE, TSTOREM); \
	VZEROUPPER; \
	RET

// The CSR-row kernels, one per 1 < m <= 16 (the width of the dense
// operand): a row of m cells is read and written as exact pieces of 4, 2 and
// 1 lanes (Pm(Y, X, S, ry, rx, rs) applies Y, X and S to them, with the
// registers of each), never wider, so that rows m apart do not overlap and a
// store forwards to the next load. From m = 8 a row is two to four pieces
// of 4 and a tail, in the fixed registers Y0-Y3, X4 and X5 (Pm ignores ry,
// rx and rs). MULm(r) turns row index r into the index of the row's first
// element.
#define P2(Y, X, S, ry, rx, rs) X(0, rx)
#define P3(Y, X, S, ry, rx, rs) X(0, rx); S(16, rs)
#define P4(Y, X, S, ry, rx, rs) Y(0, ry)
#define P5(Y, X, S, ry, rx, rs) Y(0, ry); S(32, rs)
#define P6(Y, X, S, ry, rx, rs) Y(0, ry); X(32, rx)
#define P7(Y, X, S, ry, rx, rs) Y(0, ry); X(32, rx); S(48, rs)
#define P8(Y, X, S, ry, rx, rs) Y(0, Y0); Y(32, Y1)
#define P9(Y, X, S, ry, rx, rs) P8(Y, X, S, ry, rx, rs); S(64, X4)
#define P10(Y, X, S, ry, rx, rs) P8(Y, X, S, ry, rx, rs); X(64, X4)
#define P11(Y, X, S, ry, rx, rs) P10(Y, X, S, ry, rx, rs); S(80, X5)
#define P12(Y, X, S, ry, rx, rs) P8(Y, X, S, ry, rx, rs); Y(64, Y2)
#define P13(Y, X, S, ry, rx, rs) P12(Y, X, S, ry, rx, rs); S(96, X4)
#define P14(Y, X, S, ry, rx, rs) P12(Y, X, S, ry, rx, rs); X(96, X4)
#define P15(Y, X, S, ry, rx, rs) P14(Y, X, S, ry, rx, rs); S(112, X5)
#define P16(Y, X, S, ry, rx, rs) P12(Y, X, S, ry, rx, rs); Y(96, Y3)
#define MUL2(r) ADDQ r, r
#define MUL3(r) LEAQ (r)(r*2), r
#define MUL4(r) SHLQ $2, r
#define MUL5(r) LEAQ (r)(r*4), r
#define MUL6(r) LEAQ (r)(r*2), r; ADDQ r, r
#define MUL7(r) IMUL3Q $7, r, r
#define MUL8(r) SHLQ $3, r
#define MUL9(r) IMUL3Q $9, r, r
#define MUL10(r) IMUL3Q $10, r, r
#define MUL11(r) IMUL3Q $11, r, r
#define MUL12(r) IMUL3Q $12, r, r
#define MUL13(r) IMUL3Q $13, r, r
#define MUL14(r) IMUL3Q $14, r, r
#define MUL15(r) IMUL3Q $15, r, r
#define MUL16(r) SHLQ $4, r

// CELL reads cell AX of the row (index at SI, value at R10), leaves the
// element index of its row in R8 and stops at bad when that is past the
// last row, R11 (unsigned: a negative index is past it too), and its value
// broadcast in Y8.
#define CELL(MUL, bad) \
	MOVQ         (SI)(AX*8), R8; \
	MUL(R8); \
	CMPQ         R8, R11; \
	JA           bad; \
	VBROADCASTSD (R10)(AX*8), Y8

// SPMAT is c[0:m) += the sum over the row's cells of value times its row
// of B (at BX): four cells per pass into four sets of sums (Y0-Y3, X4-X7,
// X12-X15 for the pieces of 4, 2 and 1 lanes), then the sets are added,
// and the sum is added to c. SPMATW, for m >= 8, keeps one set of sums.
#define MY(off, r) VFMADD231PD off(BX)(R8*8), Y8, r
#define MX(off, r) VFMADD231PD off(BX)(R8*8), X8, r
#define MS(off, r) VFMADD231SD off(BX)(R8*8), X8, r
#define AV(off, r) \
	VADDPD  off(DI), r, r; \
	VMOVUPD r, off(DI)
#define AS(off, r) \
	VADDSD off(DI), r, r; \
	VMOVSD r, off(DI)
#define FY(off, r) \
	VADDPD Y1, Y0, Y0; \
	VADDPD Y3, Y2, Y2; \
	VADDPD Y2, Y0, Y0; \
	AV(off, Y0)
#define FX(off, r) \
	VADDPD X5, X4, X4; \
	VADDPD X7, X6, X6; \
	VADDPD X6, X4, X4; \
	AV(off, X4)
#define FS(off, r) \
	VADDSD X13, X12, X12; \
	VADDSD X15, X14, X14; \
	VADDSD X14, X12, X12; \
	AS(off, X12)
#define Z(off, r) VXORPD r, r, r
#define SPMAT(P, MUL) \
	MOVQ vals+8(FP), R10; \
	MOVQ ix+16(FP), SI; \
	MOVQ nnz+24(FP), CX; \
	MOVQ b+32(FP), BX; \
	MOVQ last+40(FP), R11; \
	P(Z, Z, Z, Y0, X4, X12); \
	P(Z, Z, Z, Y1, X5, X13); \
	P(Z, Z, Z, Y2, X6, X14); \
	P(Z, Z, Z, Y3, X7, X15); \
	XORQ AX, AX; \
	MOVQ   CX, R9; \
	ANDQ   $-4, R9; \
	JMP    c4; \
b4: \
	CELL(MUL, bad); \
	P(MY, MX, MS, Y0, X4, X12); \
	INCQ AX; \
	CELL(MUL, bad); \
	P(MY, MX, MS, Y1, X5, X13); \
	INCQ AX; \
	CELL(MUL, bad); \
	P(MY, MX, MS, Y2, X6, X14); \
	INCQ AX; \
	CELL(MUL, bad); \
	P(MY, MX, MS, Y3, X7, X15); \
	INCQ AX; \
c4: \
	CMPQ AX, R9; \
	JLT  b4; \
	JMP  c1; \
b1: \
	CELL(MUL, bad); \
	P(MY, MX, MS, Y0, X4, X12); \
	INCQ AX; \
c1: \
	CMPQ AX, CX; \
	JLT  b1; \
	MOVQ c+48(FP), DI; \
	P(FY, FX, FS, Y0, X4, X12); \
bad: \
	MOVQ AX, ret+56(FP); \
	VZEROUPPER; \
	RET

#define SPMATW(P, MUL) \
	MOVQ vals+8(FP), R10; \
	MOVQ ix+16(FP), SI; \
	MOVQ nnz+24(FP), CX; \
	MOVQ b+32(FP), BX; \
	MOVQ last+40(FP), R11; \
	P(Z, Z, Z, Y0, X4, X5); \
	XORQ AX, AX; \
cell: \
	CELL(MUL, bad); \
	P(MY, MX, MS, Y0, X4, X5); \
	INCQ AX; \
	CMPQ AX, CX; \
	JLT  cell; \
	MOVQ c+48(FP), DI; \
	P(AV, AV, AS, Y0, X4, X5); \
bad: \
	MOVQ AX, ret+56(FP); \
	VZEROUPPER; \
	RET

// SPOUTER is, for each cell of the row, its row of C (at DI) += value times
// b (pieces in Y9, X10, X11): a load, FMA and store per piece and cell. The
// cells' rows are distinct, so the cells are independent. The next cell's
// index and value are read before the cell's stores (its row in R9, its
// value in Y7), so that no read of them waits on a store whose address
// matches theirs in the low 12 bits.
#define LY(off, r) VMOVUPD off(BX), r
#define LX(off, r) VMOVUPD off(BX), r
#define LS(off, r) VMOVSD off(BX), r
#define OY(off, r) \
	VMOVUPD     off(DI)(R9*8), Y12; \
	VFMADD231PD r, Y7, Y12; \
	VMOVUPD     Y12, off(DI)(R9*8)
#define OX(off, r) \
	VMOVUPD     off(DI)(R9*8), X13; \
	VFMADD231PD r, X7, X13; \
	VMOVUPD     X13, off(DI)(R9*8)
#define OS(off, r) \
	VMOVSD      off(DI)(R9*8), X14; \
	VFMADD231SD r, X7, X14; \
	VMOVSD      X14, off(DI)(R9*8)
#define SPOUTER(P, MUL) \
	MOVQ vals+8(FP), R10; \
	MOVQ ix+16(FP), SI; \
	MOVQ nnz+24(FP), CX; \
	MOVQ b+32(FP), BX; \
	MOVQ last+40(FP), R11; \
	MOVQ c+48(FP), DI; \
	P(LY, LX, LS, Y9, X10, X11); \
	XORQ AX, AX; \
	CELL(MUL, done); \
next: \
	MOVQ    R8, R9; \
	VMOVAPD Y8, Y7; \
	INCQ    AX; \
	CMPQ    AX, CX; \
	JGE     last; \
	CELL(MUL, last); \
	P(OY, OX, OS, Y9, X10, X11); \
	JMP     next; \
last: \
	P(OY, OX, OS, Y9, X10, X11); \
done: \
	MOVQ AX, ret+56(FP); \
	VZEROUPPER; \
	RET

// VARIANT(tab, off, sym, body) is the kernel sym, entry off of the jump
// table tab: it finds its arguments where the entry point found them.
#define VARIANT(tab, off, sym, body) \
	DATA tab+off(SB)/8, $sym(SB); \
	TEXT sym(SB), NOSPLIT, $0-88; \
	body

// NSTEP8 is one step of the common dimension for the output row at p in
// narrow8Asm: its A element broadcast once, times both lane groups of the
// B row (Y8, Y9).
#define NSTEP8(p, lo, hi) \
	VBROADCASTSD (p), Y10; \
	VFMADD231PD  Y8, Y10, lo; \
	VFMADD231PD  Y9, Y10, hi; \
	ADDQ         R12, p

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

// func narrow8Asm(a *float64, arow, ak int, b *float64, bstride int, c *float64, cstride, rows, k int, hi *[4]int64)
// narrowAsm for 5-8 output columns in one pass: lanes 0-3 whole and lanes
// 4-7 under the mask hi share each broadcast of an A element. Four output
// rows at a time, their eight sums in registers over the whole common
// dimension (eight FMA chains, one step of it per pass); C's loads, stores
// and spare rows as in narrowAsm.
TEXT ·narrow8Asm(SB), NOSPLIT, $0-80
	MOVQ    a+0(FP), R13
	MOVQ    arow+8(FP), AX
	SHLQ    $3, AX
	MOVQ    ak+16(FP), R12
	SHLQ    $3, R12
	MOVQ    bstride+32(FP), DX
	SHLQ    $3, DX
	MOVQ    c+40(FP), DI
	MOVQ    hi+72(FP), BX
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
step:
	VMOVUPD    (SI), Y8
	VMASKMOVPD 32(SI), Y15, Y9
	NSTEP8(R8, Y0, Y4)
	NSTEP8(R9, Y1, Y5)
	NSTEP8(R10, Y2, Y6)
	NSTEP8(R11, Y3, Y7)
	ADDQ       DX, SI
	DECQ       CX
	JNZ        step
	MOVQ       cstride+48(FP), CX
	SHLQ       $3, CX
	ROWPTRS(DI, CX)
	VMASKMOVPD 32(R8), Y15, Y8
	VMASKMOVPD 32(R9), Y15, Y9
	VMASKMOVPD 32(R10), Y15, Y10
	VMASKMOVPD 32(R11), Y15, Y11
	VADDPD     (R8), Y0, Y0
	VADDPD     (R9), Y1, Y1
	VADDPD     (R10), Y2, Y2
	VADDPD     (R11), Y3, Y3
	VADDPD     Y8, Y4, Y4
	VADDPD     Y9, Y5, Y5
	VADDPD     Y10, Y6, Y6
	VADDPD     Y11, Y7, Y7
	VMOVUPD    Y3, (R11)
	VMASKMOVPD Y7, Y15, 32(R11)
	VMOVUPD    Y2, (R10)
	VMASKMOVPD Y6, Y15, 32(R10)
	VMOVUPD    Y1, (R9)
	VMASKMOVPD Y5, Y15, 32(R9)
	VMOVUPD    Y0, (R8)
	VMASKMOVPD Y4, Y15, 32(R8)
	LEAQ       (DI)(CX*4), DI
	LEAQ       (R13)(AX*4), R13
	SUBQ       $4, BX
	JGT        group
	VZEROUPPER
	RET

// func dotRowsAsm(chunks int, a *float64, astride int, v, d *float64, rows int, mask, tail *[4]int64)
// d[t] += row t of A (rows astride apart) . v for rows of at most 32 cells
// in chunks of four lanes, the last one under mask; tail covers rows%4.
TEXT ·dotRowsAsm(SB), NOSPLIT, $0-64
	MOVQ chunks+0(FP), AX
	LEAQ dottab<>(SB), BX
	MOVQ -8(BX)(AX*8), BX
	JMP  BX

// func dotIdxAsm(chunks int, a *float64, astride int, v, d *float64, rows int, mask, tail *[4]int64, ix *int, last int) (done int)
// dotRowsAsm over the rows of A whose indexes are at ix, the last row's
// first element at last; returns rows, or the position of the group of
// four that holds the first index past the last row, the groups before it
// done.
TEXT ·dotIdxAsm(SB), NOSPLIT, $0-88
	MOVQ chunks+0(FP), AX
	LEAQ dotidxtab<>(SB), BX
	MOVQ -8(BX)(AX*8), BX
	JMP  BX

// func tDotAsm(chunks int, a *float64, astride int, b *float64, bstride int, c *float64, rows int, mask *[4]int64)
// c[0:m) += t(A) %*% b: A is rows x m, astride apart, m cells in chunks of
// four lanes, the last one under mask; b has one value per row, bstride
// apart (0 repeats one value).
TEXT ·tDotAsm(SB), NOSPLIT, $0-64
	MOVQ chunks+0(FP), AX
	LEAQ tdottab<>(SB), BX
	MOVQ -8(BX)(AX*8), BX
	JMP  BX

// func spMatAsm(m int, vals *float64, ix *int, nnz int, b *float64, last int, c *float64) (done int)
// c[0:m) += the CSR row (vals, ix) %*% B, B's rows m apart, 1 < m <= 16;
// returns nnz, or the position of the first index past the last row (its
// first element at last) having written nothing.
TEXT ·spMatAsm(SB), NOSPLIT, $0-64
	MOVQ m+0(FP), AX
	LEAQ spmattab<>(SB), BX
	MOVQ -16(BX)(AX*8), BX
	JMP  BX

// func spOuterAsm(m int, vals *float64, ix *int, nnz int, b *float64, last int, c *float64) (done int)
// Row ix[k] of C (rows m apart, 1 < m <= 16) += vals[k] * b[0:m) for each
// cell; returns nnz, or the position of the first index past the last row,
// the cells before it done.
TEXT ·spOuterAsm(SB), NOSPLIT, $0-64
	MOVQ m+0(FP), AX
	LEAQ spoutertab<>(SB), BX
	MOVQ -16(BX)(AX*8), BX
	JMP  BX

// The tile kernels are reached through three entry points that jump to the
// kernel of an operation: the arguments stay where the caller put them, with
// the operation in front of them.

// func tileVV(op int, a *float64, astride int, b *float64, bstride int, c *float64, rows, w int, mask *[4]int64)
// c = a op b, b a tile like a; op is a vector.Op that has a kernel (vvOps).
TEXT ·tileVV(SB), NOSPLIT, $0-72
	MOVQ op+0(FP), AX
	LEAQ vvtab<>(SB), BX
	MOVQ (BX)(AX*8), BX
	JMP  BX

// func tileVS(op int, a *float64, astride int, s *float64, sstride int, c *float64, rows, w int, mask *[4]int64)
// c = a op s, one s per row (vsOps), or s op a for op = numOps + Op (svOps).
TEXT ·tileVS(SB), NOSPLIT, $0-72
	MOVQ op+0(FP), AX
	LEAQ vstab<>(SB), BX
	MOVQ (BX)(AX*8), BX
	JMP  BX

// func rowReduceAsm(op int, a *float64, astride int, d *float64, rows int, lo, hi, tail *[4]int64)
// d[t] = the op (a vector.Reduce) of row t.
TEXT ·rowReduceAsm(SB), NOSPLIT, $0-64
	MOVQ op+0(FP), AX
	LEAQ redtab<>(SB), BX
	MOVQ (BX)(AX*8), BX
	JMP  BX

// Indexed by vector.Op: + - * / ^ min max == != < <= > >= & |.
DATA vvtab<>+0(SB)/8, $·addVV<>(SB)
DATA vvtab<>+8(SB)/8, $·subVV<>(SB)
DATA vvtab<>+16(SB)/8, $·mulVV<>(SB)
DATA vvtab<>+24(SB)/8, $·divVV<>(SB)
DATA vvtab<>+40(SB)/8, $·minVV<>(SB)
DATA vvtab<>+48(SB)/8, $·maxVV<>(SB)
DATA vvtab<>+56(SB)/8, $·eqVV<>(SB)
DATA vvtab<>+64(SB)/8, $·neqVV<>(SB)
DATA vvtab<>+72(SB)/8, $·ltVV<>(SB)
DATA vvtab<>+80(SB)/8, $·leVV<>(SB)
GLOBL vvtab<>(SB), RODATA, $120

DATA vstab<>+0(SB)/8, $·addVS<>(SB)
DATA vstab<>+8(SB)/8, $·subVS<>(SB)
DATA vstab<>+16(SB)/8, $·mulVS<>(SB)
DATA vstab<>+24(SB)/8, $·divVS<>(SB)
DATA vstab<>+40(SB)/8, $·minVS<>(SB)
DATA vstab<>+48(SB)/8, $·maxVS<>(SB)
DATA vstab<>+56(SB)/8, $·eqVS<>(SB)
DATA vstab<>+64(SB)/8, $·neqVS<>(SB)
DATA vstab<>+72(SB)/8, $·ltVS<>(SB)
DATA vstab<>+80(SB)/8, $·leVS<>(SB)
DATA vstab<>+88(SB)/8, $·gtVS<>(SB)
DATA vstab<>+96(SB)/8, $·geVS<>(SB)
DATA vstab<>+128(SB)/8, $·rsubVS<>(SB)
DATA vstab<>+144(SB)/8, $·rdivVS<>(SB)
GLOBL vstab<>(SB), RODATA, $240

DATA redtab<>+0(SB)/8, $·rowSumAsm<>(SB)
DATA redtab<>+8(SB)/8, $·rowSumSqAsm<>(SB)
DATA redtab<>+16(SB)/8, $·rowMinAsm<>(SB)
DATA redtab<>+24(SB)/8, $·rowMaxAsm<>(SB)
GLOBL redtab<>(SB), RODATA, $32

TEXT ·addVV<>(SB), NOSPLIT, $0-72
	TILEVV(ADDOP)

TEXT ·subVV<>(SB), NOSPLIT, $0-72
	TILEVV(SUBOP)

TEXT ·mulVV<>(SB), NOSPLIT, $0-72
	TILEVV(MULOP)

TEXT ·divVV<>(SB), NOSPLIT, $0-72
	TILEVV(DIVOP)

TEXT ·minVV<>(SB), NOSPLIT, $0-72
	TILEVV(MINOP)

TEXT ·maxVV<>(SB), NOSPLIT, $0-72
	TILEVV(MAXOP)

TEXT ·eqVV<>(SB), NOSPLIT, $0-72
	TILEVV(EQOP)

TEXT ·neqVV<>(SB), NOSPLIT, $0-72
	TILEVV(NEQOP)

TEXT ·ltVV<>(SB), NOSPLIT, $0-72
	TILEVV(LTOP)

TEXT ·leVV<>(SB), NOSPLIT, $0-72
	TILEVV(LEOP)

// One b per row; rsubVS and rdivVS are b - a and b / a.
TEXT ·addVS<>(SB), NOSPLIT, $0-72
	TILEVS(ROWS, ADDOP)

TEXT ·subVS<>(SB), NOSPLIT, $0-72
	TILEVS(ROWS, SUBOP)

TEXT ·rsubVS<>(SB), NOSPLIT, $0-72
	TILEVS(ROWS, RSUBOP)

TEXT ·mulVS<>(SB), NOSPLIT, $0-72
	TILEVS(ROWS, MULOP)

TEXT ·divVS<>(SB), NOSPLIT, $0-72
	TILEVS(ROWSRECIP, MULOP)

TEXT ·rdivVS<>(SB), NOSPLIT, $0-72
	TILEVS(ROWS, RDIVOP)

TEXT ·minVS<>(SB), NOSPLIT, $0-72
	TILEVS(ROWS, MINOP)

TEXT ·maxVS<>(SB), NOSPLIT, $0-72
	TILEVS(ROWS, MAXOP)

TEXT ·eqVS<>(SB), NOSPLIT, $0-72
	TILEVS(ROWS, EQOP)

TEXT ·neqVS<>(SB), NOSPLIT, $0-72
	TILEVS(ROWS, NEQOP)

TEXT ·ltVS<>(SB), NOSPLIT, $0-72
	TILEVS(ROWS, LTOP)

TEXT ·leVS<>(SB), NOSPLIT, $0-72
	TILEVS(ROWS, LEOP)

TEXT ·gtVS<>(SB), NOSPLIT, $0-72
	TILEVS(ROWS, GTOP)

TEXT ·geVS<>(SB), NOSPLIT, $0-72
	TILEVS(ROWS, GEOP)

TEXT ·rowSumAsm<>(SB), NOSPLIT, $0-64
	ROWRED(ASIS, ADD3, PLUSZERO)

TEXT ·rowSumSqAsm<>(SB), NOSPLIT, $0-64
	ROWRED(SQUARE, ADD3, NONE)

TEXT ·rowMinAsm<>(SB), NOSPLIT, $0-64
	ROWRED(ORINF, MIN3, FIXNAN)

TEXT ·rowMaxAsm<>(SB), NOSPLIT, $0-64
	ROWRED(NEGORINF, MIN3, NEGFIXNAN)

// func minAsm(a *float64, n int) float64
TEXT ·minAsm(SB), NOSPLIT, $0-24
	MINMAX(LOADPOS, FIXNAN)

// func maxAsm(a *float64, n int) float64
TEXT ·maxAsm(SB), NOSPLIT, $0-24
	MINMAX(LOADNEG, NEGFIXNAN)

// func expAsm(a, c *float64, n int, tail *[4]int64) (group, bad int)
TEXT ·expAsm(SB), NOSPLIT, $0-48
	UNARY(·expTab(SB), EXPOF)

// func sigmoidAsm(a, c *float64, n int, tail *[4]int64) (group, bad int)
TEXT ·sigmoidAsm(SB), NOSPLIT, $0-48
	UNARY(·expTab(SB), SIGMOIDOF)

// func logAsm(a, c *float64, n int, tail *[4]int64) (group, bad int)
TEXT ·logAsm(SB), NOSPLIT, $0-48
	UNARY(·logTab(SB), LOGOF)

// The kernels behind dotRowsAsm, dotIdxAsm and tDotAsm, by number of
// chunks, and behind spMatAsm and spOuterAsm, by m. Up to four chunks tDot's
// odd rows sum into a second set of registers.
VARIANT(dottab<>, 0, ·dotRows1<>, DOTROWS(CH1, NONE, ROWS4, NEXTROWS4, NONE))
VARIANT(dottab<>, 8, ·dotRows2<>, DOTROWS(CH2, NONE, ROWS4, NEXTROWS4, NONE))
VARIANT(dottab<>, 16, ·dotRows3<>, DOTROWS(CH3, NONE, ROWS4, NEXTROWS4, NONE))
VARIANT(dottab<>, 24, ·dotRows4<>, DOTROWS(CH4, NONE, ROWS4, NEXTROWS4, NONE))
VARIANT(dottab<>, 32, ·dotRows5<>, DOTROWS(CH5, NONE, ROWS4, NEXTROWS4, NONE))
VARIANT(dottab<>, 40, ·dotRows6<>, DOTROWS(CH6, NONE, ROWS4, NEXTROWS4, NONE))
VARIANT(dottab<>, 48, ·dotRows7<>, DOTROWS(CH7, NONE, ROWS4, NEXTROWS4, NONE))
VARIANT(dottab<>, 56, ·dotRows8<>, DOTROWS(CH8, NONE, ROWS4, NEXTROWS4, NONE))
GLOBL dottab<>(SB), RODATA, $64
VARIANT(dotidxtab<>, 0, ·dotIdx1<>, DOTROWS(CH1, IDXPRO, IDXROWS4, NEXTIDX4, IDXEND))
VARIANT(dotidxtab<>, 8, ·dotIdx2<>, DOTROWS(CH2, IDXPRO, IDXROWS4, NEXTIDX4, IDXEND))
VARIANT(dotidxtab<>, 16, ·dotIdx3<>, DOTROWS(CH3, IDXPRO, IDXROWS4, NEXTIDX4, IDXEND))
VARIANT(dotidxtab<>, 24, ·dotIdx4<>, DOTROWS(CH4, IDXPRO, IDXROWS4, NEXTIDX4, IDXEND))
VARIANT(dotidxtab<>, 32, ·dotIdx5<>, DOTROWS(CH5, IDXPRO, IDXROWS4, NEXTIDX4, IDXEND))
VARIANT(dotidxtab<>, 40, ·dotIdx6<>, DOTROWS(CH6, IDXPRO, IDXROWS4, NEXTIDX4, IDXEND))
VARIANT(dotidxtab<>, 48, ·dotIdx7<>, DOTROWS(CH7, IDXPRO, IDXROWS4, NEXTIDX4, IDXEND))
VARIANT(dotidxtab<>, 56, ·dotIdx8<>, DOTROWS(CH8, IDXPRO, IDXROWS4, NEXTIDX4, IDXEND))
GLOBL dotidxtab<>(SB), RODATA, $64
VARIANT(tdottab<>, 0, ·tDot1<>, TDOT(CH1, TFOLD))
VARIANT(tdottab<>, 8, ·tDot2<>, TDOT(CH2, TFOLD))
VARIANT(tdottab<>, 16, ·tDot3<>, TDOT(CH3, TFOLD))
VARIANT(tdottab<>, 24, ·tDot4<>, TDOT(CH4, TFOLD))
VARIANT(tdottab<>, 32, ·tDot5<>, TDOT(CH5, NOFOLD))
VARIANT(tdottab<>, 40, ·tDot6<>, TDOT(CH6, NOFOLD))
VARIANT(tdottab<>, 48, ·tDot7<>, TDOT(CH7, NOFOLD))
VARIANT(tdottab<>, 56, ·tDot8<>, TDOT(CH8, NOFOLD))
GLOBL tdottab<>(SB), RODATA, $64
VARIANT(spmattab<>, 0, ·spMat2<>, SPMAT(P2, MUL2))
VARIANT(spmattab<>, 8, ·spMat3<>, SPMAT(P3, MUL3))
VARIANT(spmattab<>, 16, ·spMat4<>, SPMAT(P4, MUL4))
VARIANT(spmattab<>, 24, ·spMat5<>, SPMAT(P5, MUL5))
VARIANT(spmattab<>, 32, ·spMat6<>, SPMAT(P6, MUL6))
VARIANT(spmattab<>, 40, ·spMat7<>, SPMAT(P7, MUL7))
VARIANT(spmattab<>, 48, ·spMat8<>, SPMATW(P8, MUL8))
VARIANT(spmattab<>, 56, ·spMat9<>, SPMATW(P9, MUL9))
VARIANT(spmattab<>, 64, ·spMat10<>, SPMATW(P10, MUL10))
VARIANT(spmattab<>, 72, ·spMat11<>, SPMATW(P11, MUL11))
VARIANT(spmattab<>, 80, ·spMat12<>, SPMATW(P12, MUL12))
VARIANT(spmattab<>, 88, ·spMat13<>, SPMATW(P13, MUL13))
VARIANT(spmattab<>, 96, ·spMat14<>, SPMATW(P14, MUL14))
VARIANT(spmattab<>, 104, ·spMat15<>, SPMATW(P15, MUL15))
VARIANT(spmattab<>, 112, ·spMat16<>, SPMATW(P16, MUL16))
GLOBL spmattab<>(SB), RODATA, $120
VARIANT(spoutertab<>, 0, ·spOuter2<>, SPOUTER(P2, MUL2))
VARIANT(spoutertab<>, 8, ·spOuter3<>, SPOUTER(P3, MUL3))
VARIANT(spoutertab<>, 16, ·spOuter4<>, SPOUTER(P4, MUL4))
VARIANT(spoutertab<>, 24, ·spOuter5<>, SPOUTER(P5, MUL5))
VARIANT(spoutertab<>, 32, ·spOuter6<>, SPOUTER(P6, MUL6))
VARIANT(spoutertab<>, 40, ·spOuter7<>, SPOUTER(P7, MUL7))
VARIANT(spoutertab<>, 48, ·spOuter8<>, SPOUTER(P8, MUL8))
VARIANT(spoutertab<>, 56, ·spOuter9<>, SPOUTER(P9, MUL9))
VARIANT(spoutertab<>, 64, ·spOuter10<>, SPOUTER(P10, MUL10))
VARIANT(spoutertab<>, 72, ·spOuter11<>, SPOUTER(P11, MUL11))
VARIANT(spoutertab<>, 80, ·spOuter12<>, SPOUTER(P12, MUL12))
VARIANT(spoutertab<>, 88, ·spOuter13<>, SPOUTER(P13, MUL13))
VARIANT(spoutertab<>, 96, ·spOuter14<>, SPOUTER(P14, MUL14))
VARIANT(spoutertab<>, 104, ·spOuter15<>, SPOUTER(P15, MUL15))
VARIANT(spoutertab<>, 112, ·spOuter16<>, SPOUTER(P16, MUL16))
GLOBL spoutertab<>(SB), RODATA, $120
