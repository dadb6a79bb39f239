// AVX2 forms of the three band primitives of band.go. Every element sees
// the IEEE operations of the pure-Go loops in the same order — one multiply
// then one add per band (no FMA), a true division, |v-x| by clearing the
// sign bit, and a max that a NaN never enters — four doubles at a time with
// a scalar tail, so the two paths agree bit for bit. All loads and stores
// are unaligned; every slice argument must hold at least len(first
// argument) elements, which the callers in sparse.go establish by slicing.

#include "textflag.h"

DATA absMask<>+0(SB)/8, $0x7fffffffffffffff
GLOBL absMask<>(SB), RODATA|NOPTR, $8

// func hasAVX2() bool
//
// AVX2 is usable when CPUID reports AVX, OSXSAVE and AVX2 and XGETBV says
// the OS saves both XMM and YMM state across context switches.
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27), AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV               // XCR0 bits 1 and 2: XMM and YMM state
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x20, BX      // leaf 7 EBX bit 5: AVX2
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func mulAVX2(out, d, x []float64)
//
// out[j] = d[j] * x[j]
TEXT ·mulAVX2(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ d_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $~15, BX
	JMP  mul16check

mul16:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y1
	VMOVUPD 64(SI)(AX*8), Y2
	VMOVUPD 96(SI)(AX*8), Y3
	VMULPD  (DX)(AX*8), Y0, Y0
	VMULPD  32(DX)(AX*8), Y1, Y1
	VMULPD  64(DX)(AX*8), Y2, Y2
	VMULPD  96(DX)(AX*8), Y3, Y3
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	ADDQ    $16, AX

mul16check:
	CMPQ AX, BX
	JLT  mul16
	MOVQ CX, BX
	ANDQ $~3, BX
	JMP  mul4check

mul4:
	VMOVUPD (SI)(AX*8), Y0
	VMULPD  (DX)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

mul4check:
	CMPQ AX, BX
	JLT  mul4
	JMP  mul1check

mul1:
	VMOVSD (SI)(AX*8), X0
	VMULSD (DX)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX

mul1check:
	CMPQ AX, CX
	JLT  mul1
	VZEROUPPER
	RET

// func mulAddAVX2(acc, d, x []float64)
//
// acc[j] += d[j] * x[j], the product rounded before the add.
TEXT ·mulAddAVX2(SB), NOSPLIT, $0-72
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), CX
	MOVQ d_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $~15, BX
	JMP  mad16check

mad16:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y1
	VMOVUPD 64(SI)(AX*8), Y2
	VMOVUPD 96(SI)(AX*8), Y3
	VMULPD  (DX)(AX*8), Y0, Y0
	VMULPD  32(DX)(AX*8), Y1, Y1
	VMULPD  64(DX)(AX*8), Y2, Y2
	VMULPD  96(DX)(AX*8), Y3, Y3
	VADDPD  (DI)(AX*8), Y0, Y0
	VADDPD  32(DI)(AX*8), Y1, Y1
	VADDPD  64(DI)(AX*8), Y2, Y2
	VADDPD  96(DI)(AX*8), Y3, Y3
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	ADDQ    $16, AX

mad16check:
	CMPQ AX, BX
	JLT  mad16
	MOVQ CX, BX
	ANDQ $~3, BX
	JMP  mad4check

mad4:
	VMOVUPD (SI)(AX*8), Y0
	VMULPD  (DX)(AX*8), Y0, Y0
	VADDPD  (DI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

mad4check:
	CMPQ AX, BX
	JLT  mad4
	JMP  mad1check

mad1:
	VMOVSD (SI)(AX*8), X0
	VMULSD (DX)(AX*8), X0, X0
	VADDSD (DI)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX

mad1check:
	CMPQ AX, CX
	JLT  mad1
	VZEROUPPER
	RET

// func relaxAVX2(dst, xs, bs, ax, ds []float64, gamma, maxd float64) float64
//
// v = xs[j] + gamma*(bs[j]-ax[j])/ds[j]; dst[j] = v; maxd = max(maxd, |v-xs[j]|).
// dst may be xs or ax: element j is loaded from every source before it is
// stored. VMAXPD returns its second source (in the Go operand order, the
// first) unless the other one is greater, so with the running max there a
// NaN difference is dropped exactly as `if d > maxd` drops it.
TEXT ·relaxAVX2(SB), NOSPLIT, $0-144
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         xs_base+24(FP), SI
	MOVQ         bs_base+48(FP), DX
	MOVQ         ax_base+72(FP), R8
	MOVQ         ds_base+96(FP), R9
	VBROADCASTSD gamma+120(FP), Y15
	VBROADCASTSD maxd+128(FP), Y13
	VBROADCASTSD absMask<>(SB), Y14
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $~7, BX
	JMP          rlx8check

rlx8:
	VMOVUPD (DX)(AX*8), Y0
	VMOVUPD 32(DX)(AX*8), Y1
	VSUBPD  (R8)(AX*8), Y0, Y0   // bs - ax
	VSUBPD  32(R8)(AX*8), Y1, Y1
	VMULPD  Y0, Y15, Y0          // gamma * (bs - ax)
	VMULPD  Y1, Y15, Y1
	VDIVPD  (R9)(AX*8), Y0, Y0   // ... / ds
	VDIVPD  32(R9)(AX*8), Y1, Y1
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD 32(SI)(AX*8), Y3
	VADDPD  Y0, Y2, Y0           // v = xs + ...
	VADDPD  Y1, Y3, Y1
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VSUBPD  Y2, Y0, Y0           // v - xs
	VSUBPD  Y3, Y1, Y1
	VANDPD  Y14, Y0, Y0
	VANDPD  Y14, Y1, Y1
	VMAXPD  Y13, Y0, Y13
	VMAXPD  Y13, Y1, Y13
	ADDQ    $8, AX

rlx8check:
	CMPQ AX, BX
	JLT  rlx8
	MOVQ CX, BX
	ANDQ $~3, BX
	CMPQ AX, BX
	JGE  rlxfold
	VMOVUPD (DX)(AX*8), Y0
	VSUBPD  (R8)(AX*8), Y0, Y0
	VMULPD  Y0, Y15, Y0
	VDIVPD  (R9)(AX*8), Y0, Y0
	VMOVUPD (SI)(AX*8), Y2
	VADDPD  Y0, Y2, Y0
	VMOVUPD Y0, (DI)(AX*8)
	VSUBPD  Y2, Y0, Y0
	VANDPD  Y14, Y0, Y0
	VMAXPD  Y13, Y0, Y13
	ADDQ    $4, AX

rlxfold:
	// No lane of Y13 is a NaN, so the order of the fold does not matter.
	VEXTRACTF128 $1, Y13, X0
	VMAXPD       X13, X0, X13
	VPERMILPD    $1, X13, X0
	VMAXSD       X13, X0, X13
	JMP          rlx1check

rlx1:
	VMOVSD (DX)(AX*8), X0
	VSUBSD (R8)(AX*8), X0, X0
	VMULSD X0, X15, X0
	VDIVSD (R9)(AX*8), X0, X0
	VMOVSD (SI)(AX*8), X2
	VADDSD X0, X2, X0
	VMOVSD X0, (DI)(AX*8)
	VSUBSD X2, X0, X0
	VANDPD X14, X0, X0
	VMAXSD X13, X0, X13
	INCQ   AX

rlx1check:
	CMPQ AX, CX
	JLT  rlx1
	VMOVSD X13, ret+136(FP)
	VZEROUPPER
	RET
