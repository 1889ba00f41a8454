#include "textflag.h"

// AVX2 implementation of the float64 row-sum pass (see rowSums64Go in
// fused.go for the contract it must match bit for bit, and rowSums64 in
// rowsums_amd64.go for the preconditions its caller establishes).
//
// What golden64_test.go pins is the order of the additions: one running
// sum per row, entry by entry. The products are independent IEEE
// multiplies, so a group of four is formed four wide — four cols loaded,
// four src values gathered (VGATHERDPD), one VMULPD with vals as the first
// operand, as the compiler's MULSD has it — and then added into the running
// sum one lane at a time with scalar VADDSDs, in entry order. No lanes, no
// FMA, no reassociation.
//
// Every row is ceil(len/4) identical trips. A trip covers min(remaining, 4)
// entries under a prefix mask read from prefixmask<>: the masked loads and
// the masked gather touch no memory behind an inactive lane, so the last
// trip of the last row may end exactly at len(cols). An inactive lane's
// product is -0.0 — the gather leaves its seed of -0.0 in place, the masked
// vals load supplies +0.0, and (+0.0)·(-0.0) = -0.0 — and x + (-0.0) is x
// bit for bit for every float64 x a running sum can hold (either zero,
// denormals, infinities, quiet NaNs; a sum is never a signalling NaN), so
// the four adds run unconditionally.
//
// Bounds: the Go loop's implicit checks are kept. Per row,
// 0 <= rowPtr[i] <= rowPtr[i+1] <= min(len(vals), len(cols)), as two
// unsigned compares; per trip, every loaded col (inactive lanes load 0) is
// below len(src) as an unsigned 32-bit compare against
// min(len(src), 1<<31)-1, which also rejects negative cols. On a violation
// the kernel stops before touching the row and returns its index; the
// caller finishes from there with rowSums64Go, which panics where it
// always did. The two branches are never taken on a valid matrix.

// prefixmask<>+16 + 4*m, for m in [-4, -1], is a 16-byte window of -m
// all-ones dwords followed by zeros.
DATA prefixmask<>+0(SB)/8, $0xffffffffffffffff
DATA prefixmask<>+8(SB)/8, $0xffffffffffffffff
DATA prefixmask<>+16(SB)/8, $0
DATA prefixmask<>+24(SB)/8, $0
GLOBL prefixmask<>(SB), RODATA|NOPTR, $32

// func rowSums64AVX(rowPtr []int64, vals []float64, cols []int32, src, sums []float64, lo, hi int) (next int)
TEXT ·rowSums64AVX(SB), NOSPLIT, $0-144
	MOVQ rowPtr_base+0(FP), R8
	MOVQ vals_base+24(FP), R9
	MOVQ cols_base+48(FP), R10
	MOVQ src_base+72(FP), R11
	MOVQ sums_base+96(FP), R12
	MOVQ lo+120(FP), SI
	MOVQ hi+128(FP), DI

	MOVQ    vals_len+32(FP), BX
	MOVQ    cols_len+56(FP), AX
	CMPQ    AX, BX
	CMOVQLT AX, BX               // BX = min(len(vals), len(cols))

	MOVQ         src_len+80(FP), AX
	TESTQ        AX, AX
	JZ           done            // no col is in range: leave every row to Go
	DECQ         AX
	MOVQ         $0x7fffffff, CX
	CMPQ         AX, CX
	CMOVQGT      CX, AX
	MOVQ         AX, X14
	VPBROADCASTD X14, X14        // max valid col, as four unsigned dwords

	VPCMPEQD Y15, Y15, Y15
	VPSLLQ   $63, Y15, Y15       // four -0.0
	LEAQ     prefixmask<>+16(SB), DX

	CMPQ SI, DI
	JGE  done

rowloop:
	MOVQ   (R8)(SI*8), R13       // p = rowPtr[i]
	MOVQ   8(R8)(SI*8), R14      // e = rowPtr[i+1]
	CMPQ   R13, R14
	JHI    done                  // p > e, or p < 0
	CMPQ   R14, BX
	JHI    done                  // e > min(len(vals), len(cols)), or e < 0
	VXORPD X0, X0, X0            // sum = +0.0
	MOVQ   R13, CX
	SUBQ   R14, CX               // CX = p - e, minus the entries left
	JZ     store

trip:
	MOVQ       $-4, AX
	CMPQ       CX, AX
	CMOVQGT    CX, AX                  // AX = -min(entries left, 4)
	VMOVDQU    (DX)(AX*4), X1          // dword prefix mask
	VPMOVSXDQ  X1, Y2                  // qword prefix mask
	VPMASKMOVD (R10)(R13*4), X1, X3    // cols[p..], 0 in inactive lanes
	VPMAXUD    X14, X3, X4
	VPCMPEQD   X14, X4, X4             // all-ones where col <= max valid col
	VPMOVMSKB  X4, AX
	CMPL       AX, $0xffff
	JNE        done
	VMASKMOVPD (R9)(R13*8), Y2, Y7     // vals[p..], +0.0 in inactive lanes
	VMOVAPD    Y15, Y5                 // inactive lanes keep -0.0
	VGATHERDPD Y2, (R11)(X3*8), Y5     // src[cols[p..]]; clears the mask
	VMULPD     Y5, Y7, Y7              // vals·src, four independent products
	VADDSD     X7, X0, X0              // sum += product 0
	VPERMILPD  $1, X7, X8
	VADDSD     X8, X0, X0              // sum += product 1
	VEXTRACTF128 $1, Y7, X8
	VADDSD     X8, X0, X0              // sum += product 2
	VPERMILPD  $1, X8, X8
	VADDSD     X8, X0, X0              // sum += product 3
	ADDQ       $4, R13
	ADDQ       $4, CX
	JLT        trip

store:
	VMOVSD X0, (R12)(SI*8)
	INCQ   SI
	CMPQ   SI, DI
	JLT    rowloop

done:
	MOVQ SI, next+136(FP)
	VZEROUPPER
	RET

// The pair pass, rowSums64PairGo's bits: two interleaved columns, one
// running sum per column per row, so each lane of X0 is the solo pass's
// sum over its column. Per entry: one VMOVDDUP puts vals[p] in both lanes,
// one 16-byte VMULPD (vals first, as above) forms both products against
// src[2c], src[2c+1] — adjacent, so there is no gather — and one VADDPD
// adds each into its own lane. The bounds contract is rowSums64AVX's, with
// a column in range when c <= min(len(src)/2, 1<<31)-1, as one unsigned
// compare of the zero-extended col (a negative col is above any bound).

// func rowSums64PairAVX(rowPtr []int64, vals []float64, cols []int32, src, sums []float64, lo, hi int) (next int)
TEXT ·rowSums64PairAVX(SB), NOSPLIT, $0-144
	MOVQ rowPtr_base+0(FP), R8
	MOVQ vals_base+24(FP), R9
	MOVQ cols_base+48(FP), R10
	MOVQ src_base+72(FP), R11
	MOVQ sums_base+96(FP), R12
	MOVQ lo+120(FP), SI
	MOVQ hi+128(FP), DI

	MOVQ    vals_len+32(FP), BX
	MOVQ    cols_len+56(FP), AX
	CMPQ    AX, BX
	CMOVQLT AX, BX               // BX = min(len(vals), len(cols))

	MOVQ    src_len+80(FP), DX
	SHRQ    $1, DX               // columns src holds a pair for
	JZ      pairdone             // none: leave every row to Go
	DECQ    DX
	MOVQ    $0x7fffffff, CX
	CMPQ    DX, CX
	CMOVQGT CX, DX               // DX = max valid col

	CMPQ SI, DI
	JGE  pairdone

pairrow:
	MOVQ   (R8)(SI*8), R13       // p = rowPtr[i]
	MOVQ   8(R8)(SI*8), R14      // e = rowPtr[i+1]
	CMPQ   R13, R14
	JHI    pairdone              // p > e, or p < 0
	CMPQ   R14, BX
	JHI    pairdone              // e > min(len(vals), len(cols)), or e < 0
	VXORPD X0, X0, X0            // both sums = +0.0
	CMPQ   R13, R14
	JEQ    pairstore

pairentry:
	MOVL     (R10)(R13*4), AX    // c = cols[p], zero-extended
	CMPQ     AX, DX
	JHI      pairdone
	SHLQ     $4, AX
	VMOVDDUP (R9)(R13*8), X1     // vals[p], vals[p]
	VMULPD   (R11)(AX*1), X1, X1 // vals[p]·src[2c], vals[p]·src[2c+1]
	VADDPD   X1, X0, X0          // each sum += its product
	INCQ     R13
	CMPQ     R13, R14
	JLT      pairentry

pairstore:
	MOVQ    SI, AX
	SHLQ    $4, AX
	VMOVUPD X0, (R12)(AX*1)      // sums[2i], sums[2i+1]
	INCQ    SI
	CMPQ    SI, DI
	JLT     pairrow

pairdone:
	MOVQ SI, next+136(FP)
	VZEROUPPER
	RET
