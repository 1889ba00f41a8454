#include "textflag.h"

// AVX2 implementation of the float32 row-sum pass (see rowSums32Go in
// fused.go for the summation contract it must match bit for bit, and
// rowSums32 in rowsums_amd64.go for the preconditions its caller
// establishes).
//
// Lane discipline: the four float64 accumulator lanes [s0,s1,s2,s3] live in
// Y0, lane j holding element j of each four-entry group. A full group
// gathers four float32 src elements (VGATHERDPS), widens both operands to
// float64 (VCVTPS2PD — exact), multiplies (VMULPD — one correctly-rounded
// float64 multiply per lane, identical to Go's float64(a)*float64(b)) and
// adds lane-wise (VADDPD, identical to the Go loop's per-lane +=).
//
// The tail of a row (1–3 entries) is one masked trip, as in
// rowsums64_amd64.s: masked cols and vals loads and a masked gather under a
// prefix mask from its ·prefixMask, which touch no memory behind an
// inactive lane, so the tail of the last row may end exactly at len(cols); one
// four-wide convert and multiply; then three scalar VADDSDs into s0, in
// entry order. An inactive lane's product is -0.0 — the gather leaves its
// seed of -0.0f in place, the masked vals load supplies +0.0f, and
// (+0.0)·(-0.0) = -0.0 — and x + (-0.0) is x bit for bit for every float64
// a running sum can hold, so the three adds run unconditionally. After
// full groups the upper lanes [s2,s3] are set aside before the tail (a VEX
// scalar op zeroes them), s1 rides untouched above s0, and lanes combine
// as (s0+s1)+(s2+s3). A row of 0-3 entries has no group: s1 = s2 = s3 =
// +0.0, and a running sum that starts at +0.0 is never -0.0 (x + (-x) is
// +0.0 when rounding to nearest), so (s0+0)+(0+0) is s0 bit for bit and
// such a row, two of three in a web graph's Mᵀ, stores s0 with no combine.
// Every float64 operation matches the Go loop's operand pairing exactly.
//
// Bounds: the Go loop's implicit checks are kept, as in rowSums64AVX. Per
// row, 0 <= rowPtr[i] <= rowPtr[i+1] <= min(len(vals), len(cols)), as two
// unsigned compares; per group or tail, every loaded col (inactive lanes
// load 0) is below len(src) as one unsigned 32-bit max compare against
// min(len(src), 1<<31)-1, which also rejects negative cols. On a violation
// the kernel stops before storing the row and returns its index; the
// caller finishes from there with rowSums32Go, which panics where it
// always did. The two branches are never taken on a valid matrix.

// TAILTRIP adds the products of the last 1-3 entries of a row, from p =
// R13 with CX = p - e, into s0 (X0's low lane; its high lane is left as it
// is) under the prefix mask, or leaves the row to Go on a bad col.
#define TAILTRIP \
	VMOVDQU      (DX)(CX*4), X1;       /* dword prefix mask */ \
	VPMASKMOVD   (R10)(R13*4), X1, X3; /* cols[p..], 0 in inactive lanes */ \
	VPMAXUD      X14, X3, X4; \
	VPCMPEQD     X14, X4, X4; \
	VPMOVMSKB    X4, AX; \
	CMPL         AX, $0xffff; \
	JNE          done; \
	VMASKMOVPS   (R9)(R13*4), X1, X4;  /* vals[p..], +0.0f in inactive lanes */ \
	VMOVAPS      X15, X5;              /* inactive lanes keep -0.0f */ \
	VGATHERDPS   X1, (R11)(X3*4), X5;  /* src[cols[p..]]; clears the mask */ \
	VCVTPS2PD    X5, Y5; \
	VCVTPS2PD    X4, Y4; \
	VMULPD       Y4, Y5, Y5;           /* four independent products */ \
	VADDSD       X5, X0, X0;           /* s0 += product 0 */ \
	VPERMILPD    $1, X5, X7; \
	VADDSD       X7, X0, X0;           /* s0 += product 1 */ \
	VEXTRACTF128 $1, Y5, X7; \
	VADDSD       X7, X0, X0            /* s0 += product 2 */

// func rowSums32AVX(rowPtr []int64, vals []float32, cols []int32, src []float32, acc []float64, lo, hi int) (next int)
TEXT ·rowSums32AVX(SB), NOSPLIT, $0-144
	MOVQ rowPtr_base+0(FP), R8
	MOVQ vals_base+24(FP), R9
	MOVQ cols_base+48(FP), R10
	MOVQ src_base+72(FP), R11
	MOVQ acc_base+96(FP), R12
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

	VPCMPEQD X15, X15, X15
	VPSLLD   $31, X15, X15       // four -0.0f
	LEAQ     ·prefixMask+16(SB), DX

	CMPQ SI, DI
	JGE  done

rowloop:
	MOVQ   (R8)(SI*8), R13       // p = rowPtr[i]
	MOVQ   8(R8)(SI*8), R14      // e = rowPtr[i+1]
	CMPQ   R13, R14
	JHI    done                  // p > e, or p < 0
	CMPQ   R14, BX
	JHI    done                  // e > min(len(vals), len(cols)), or e < 0
	VXORPD X0, X0, X0            // s0 = +0.0
	MOVQ   R13, CX
	SUBQ   R14, CX               // CX = p - e, minus the entries left
	CMPQ   CX, $-4
	JLE    long
	TESTQ  CX, CX
	JZ     store
	TAILTRIP                     // a short row: s1 = s2 = s3 = +0.0, and
	JMP    store                 // (s0+0)+(0+0) is s0, which is never -0.0

long:
	VXORPD Y0, Y0, Y0            // [s0,s1,s2,s3] = 0

group:
	VMOVDQU    (R10)(R13*4), X3  // cols[p..p+3]
	VPMAXUD    X14, X3, X4
	VPCMPEQD   X14, X4, X4       // all-ones where col <= max valid col
	VPMOVMSKB  X4, AX
	CMPL       AX, $0xffff
	JNE        done
	VPCMPEQD   X2, X2, X2        // fresh all-ones gather mask
	VGATHERDPS X2, (R11)(X3*4), X5
	VCVTPS2PD  X5, Y5            // gathered src, widened
	VCVTPS2PD  (R9)(R13*4), Y4   // vals[p..p+3], widened
	VMULPD     Y4, Y5, Y5
	VADDPD     Y5, Y0, Y0
	ADDQ       $4, R13
	ADDQ       $4, CX
	CMPQ       CX, $-4
	JLE        group

	VEXTRACTF128 $1, Y0, X6      // X6 = [s2,s3]; X0 = [s0,s1]
	TESTQ        CX, CX
	JZ           combine
	TAILTRIP

combine:
	VPERMILPD $1, X0, X7 // [s1,s0]
	VADDSD    X7, X0, X0 // s0+s1
	VPERMILPD $1, X6, X7 // [s3,s2]
	VADDSD    X7, X6, X6 // s2+s3
	VADDSD    X6, X0, X0 // (s0+s1)+(s2+s3)

store:
	VMOVSD X0, (R12)(SI*8)
	INCQ   SI
	CMPQ   SI, DI
	JLT    rowloop

done:
	MOVQ SI, next+136(FP)
	VZEROUPPER
	RET

// func cpuHasAVX2() bool
//
// AVX2 is usable when the OS saves YMM state (OSXSAVE set, XCR0 covers
// XMM+YMM) and CPUID leaf 7 reports AVX2.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	MOVL  CX, R8
	ANDL  $(1<<27), R8 // OSXSAVE
	JZ    no
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX       // XMM and YMM state enabled
	CMPL  AX, $6
	JNE   no
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	ANDL  $(1<<5), BX  // AVX2
	JZ    no
	MOVB  $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
