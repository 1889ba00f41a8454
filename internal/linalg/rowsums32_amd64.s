#include "textflag.h"

// AVX2 implementation of the float32 row-sum kernel (see rowsums_amd64.go
// and rowSums32Go in fused.go for the summation contract it must match bit
// for bit).
//
// Lane discipline: the four float64 accumulator lanes [s0,s1,s2,s3] live in
// Y0, lane j holding element j of each four-entry group. One group iteration
// gathers four float32 src elements (VGATHERDPS), widens both operands to
// float64 (VCVTPS2PD — exact), multiplies (VMULPD — one correctly-rounded
// float64 multiply per lane, identical to Go's float64(a)*float64(b)) and
// adds lane-wise (VADDPD, identical to the Go loop's per-lane +=). The tail
// (fewer than four remaining entries) accumulates scalar products into lane
// 0 only (VADDSD preserves the upper lane), and lanes combine as
// (s0+s1)+(s2+s3). Every float64 operation matches the pure-Go scheme's
// operand pairing exactly, so results are bitwise identical to rowSums32Go.
//
// The gather mask is reset to all-ones before every VGATHERDPS (the
// instruction clears it); all indices are in-bounds CSR column indices, so
// no element is masked off.

// func rowSums32AVX(rowPtr []int64, vals []float32, cols []int32, src []float32, acc []float64, lo, hi int)
TEXT ·rowSums32AVX(SB), NOSPLIT, $0-136
	MOVQ rowPtr_base+0(FP), R8
	MOVQ vals_base+24(FP), R9
	MOVQ cols_base+48(FP), R10
	MOVQ src_base+72(FP), R11
	MOVQ acc_base+96(FP), R12
	MOVQ lo+120(FP), SI
	MOVQ hi+128(FP), DI
	CMPQ SI, DI
	JGE  done

rowloop:
	MOVQ   (R8)(SI*8), R13  // p = rowPtr[i]
	MOVQ   8(R8)(SI*8), R14 // e = rowPtr[i+1]
	VXORPD Y0, Y0, Y0       // [s0,s1,s2,s3] = 0
	MOVQ   R13, R15
	ADDQ   $4, R15          // next group end

grouploop:
	CMPQ       R15, R14
	JG         tailsetup          // stop while p+4 > e
	VMOVDQU    (R10)(R13*4), X1   // cols[p..p+3]
	VPCMPEQD   X2, X2, X2         // fresh all-ones gather mask
	VGATHERDPS X2, (R11)(X1*4), X3
	VCVTPS2PD  X3, Y3             // gathered src, widened
	VMOVUPS    (R9)(R13*4), X4    // vals[p..p+3]
	VCVTPS2PD  X4, Y4
	VMULPD     Y4, Y3, Y5
	VADDPD     Y5, Y0, Y0
	MOVQ       R15, R13
	ADDQ       $4, R15
	JMP        grouploop

tailsetup:
	VEXTRACTF128 $1, Y0, X6 // X6 = [s2,s3]; X0 = [s0,s1]

tailloop:
	CMPQ      R13, R14
	JGE       combine
	MOVL      (R10)(R13*4), AX  // col (zero-extended)
	VMOVSS    (R11)(AX*4), X5
	VCVTSS2SD X5, X5, X5
	VMOVSS    (R9)(R13*4), X7
	VCVTSS2SD X7, X7, X7
	VMULSD    X7, X5, X5
	VADDSD    X5, X0, X0        // s0 += prod, s1 untouched
	INCQ      R13
	JMP       tailloop

combine:
	VPERMILPD $1, X0, X7 // [s1,s0]
	VADDSD    X7, X0, X0 // s0+s1
	VPERMILPD $1, X6, X7 // [s3,s2]
	VADDSD    X7, X6, X6 // s2+s3
	VADDSD    X6, X0, X0 // (s0+s1)+(s2+s3)
	VMOVSD    X0, (R12)(SI*8)
	INCQ      SI
	CMPQ      SI, DI
	JL        rowloop

done:
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
