#include "textflag.h"

// Vector kernels for amd64 hosts with AVX2 (simd_amd64.go). Every product
// is VMULPD/VMULSD with the value as the first operand and every sum is
// VADDPD/VADDSD with the accumulator first, in the order of the Go loop each
// kernel replaces, and there is no FMA, so y comes out bit-identical.

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

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// func rowSpanAVX2(y, x []float64, rowPtr []int64, colIdx []int32, vals []float64)
//
// For each row i < len(y): y[i] = sum of vals[k]*x[colIdx[k]] over
// k in [rowPtr[i], rowPtr[i+1]), added one product at a time in column
// order. Four products at a time come from one gather and one multiply;
// the row's last one to three are scalar. No index is checked: the caller
// holds the format's proof that every row pointer and column index is in
// range.
TEXT ·rowSpanAVX2(SB), NOSPLIT, $0-120
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ rowPtr_base+48(FP), R8
	MOVQ colIdx_base+72(FP), R9
	MOVQ vals_base+96(FP), R10
	TESTQ CX, CX
	JEQ  rowsDone
	MOVQ (R8), AX // k = rowPtr[0]

row:
	MOVQ   8(R8), BX // end = rowPtr[i+1]
	ADDQ   $8, R8
	VXORPD X0, X0, X0 // acc = +0
	LEAQ   4(AX), DX
	CMPQ   DX, BX
	JGT    rowTail

rowQuad:
	VMOVDQU    (R9)(AX*4), X1
	VPCMPEQD   Y2, Y2, Y2
	VGATHERDPD Y2, (SI)(X1*8), Y3
	VMOVUPD    (R10)(AX*8), Y4
	VMULPD     Y3, Y4, Y4 // vals * x
	VADDSD     X4, X0, X0
	VPERMILPD  $1, X4, X5
	VADDSD     X5, X0, X0
	VEXTRACTF128 $1, Y4, X4
	VADDSD     X4, X0, X0
	VPERMILPD  $1, X4, X5
	VADDSD     X5, X0, X0
	MOVQ       DX, AX
	LEAQ       4(AX), DX
	CMPQ       DX, BX
	JLE        rowQuad

rowTail:
	CMPQ    AX, BX
	JGE     rowStore
	MOVLQSX (R9)(AX*4), DX
	VMOVSD  (R10)(AX*8), X4
	VMULSD  (SI)(DX*8), X4, X4
	VADDSD  X4, X0, X0
	INCQ    AX
	JMP     rowTail

rowStore:
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	DECQ   CX
	JNE    row

rowsDone:
	VZEROUPPER
	RET

// func span4AVX2(y, xs, vals []float64, cols []int32, chunkOff []int64, rowOrder []int32, add bool) (done int)
//
// Runs the len(chunkOff)-1 full C=4 chunks that chunkOff and rowOrder
// describe: lane l of chunk j sums vals*xs[cols] down its lane into lane l
// of one accumulator, and its sum is stored (or added, when add is set) to
// y[rowOrder[4*j+l]]. Column indices are not checked: the caller checked
// the segment's largest one against len(xs). Chunk offsets and rows are:
// at the first chunk whose offsets leave vals or cols, run backwards, or
// whose rows leave y, the kernel stops before touching y and returns how
// many chunks it ran, so the caller's Go loop meets the fault itself.
TEXT ·span4AVX2(SB), NOSPLIT, $0-160
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), R13
	MOVQ xs_base+24(FP), SI
	MOVQ vals_base+48(FP), R8
	MOVQ vals_len+56(FP), R12
	MOVQ cols_base+72(FP), R9
	MOVQ cols_len+80(FP), DX
	CMPQ DX, R12
	CMOVQLT DX, R12
	SHRQ $2, R12 // positions addressable in both vals and cols
	MOVQ chunkOff_base+96(FP), R10
	MOVQ chunkOff_len+104(FP), CX
	MOVQ rowOrder_base+120(FP), R11
	DECQ CX
	JLE  span4Done

span4Chunk:
	MOVQ (R10), AX
	MOVQ 8(R10), BX
	CMPQ BX, R12
	JHI  span4Done
	CMPQ AX, BX
	JHI  span4Done
	MOVLQSX (R11), DX
	CMPQ    DX, R13
	JCC     span4Done
	MOVLQSX 4(R11), DX
	CMPQ    DX, R13
	JCC     span4Done
	MOVLQSX 8(R11), DX
	CMPQ    DX, R13
	JCC     span4Done
	MOVLQSX 12(R11), DX
	CMPQ    DX, R13
	JCC     span4Done
	VXORPD Y0, Y0, Y0
	SHLQ   $2, AX
	SHLQ   $2, BX
	CMPQ   AX, BX
	JEQ    span4Store

span4Pos:
	VMOVDQU    (R9)(AX*4), X1
	VPCMPEQD   Y2, Y2, Y2
	VGATHERDPD Y2, (SI)(X1*8), Y3
	VMOVUPD    (R8)(AX*8), Y4
	VMULPD     Y3, Y4, Y4
	VADDPD     Y4, Y0, Y0
	ADDQ       $4, AX
	CMPQ       AX, BX
	JLT        span4Pos

span4Store:
	VEXTRACTF128 $1, Y0, X1
	CMPB add+144(FP), $0
	JNE  span4Add
	MOVLQSX (R11), DX
	VMOVSD  X0, (DI)(DX*8)
	MOVLQSX 4(R11), DX
	VMOVHPD X0, (DI)(DX*8)
	MOVLQSX 8(R11), DX
	VMOVSD  X1, (DI)(DX*8)
	MOVLQSX 12(R11), DX
	VMOVHPD X1, (DI)(DX*8)
	JMP     span4Next

span4Add:
	VPERMILPD $1, X0, X2
	VPERMILPD $1, X1, X3
	MOVLQSX (R11), DX
	VMOVSD  (DI)(DX*8), X4
	VADDSD  X0, X4, X4
	VMOVSD  X4, (DI)(DX*8)
	MOVLQSX 4(R11), DX
	VMOVSD  (DI)(DX*8), X4
	VADDSD  X2, X4, X4
	VMOVSD  X4, (DI)(DX*8)
	MOVLQSX 8(R11), DX
	VMOVSD  (DI)(DX*8), X4
	VADDSD  X1, X4, X4
	VMOVSD  X4, (DI)(DX*8)
	MOVLQSX 12(R11), DX
	VMOVSD  (DI)(DX*8), X4
	VADDSD  X3, X4, X4
	VMOVSD  X4, (DI)(DX*8)

span4Next:
	ADDQ $8, R10
	ADDQ $16, R11
	DECQ CX
	JNE  span4Chunk

span4Done:
	SUBQ chunkOff_base+96(FP), R10
	SHRQ $3, R10
	MOVQ R10, done+152(FP)
	VZEROUPPER
	RET

// func span8AVX2(y, xs, vals []float64, cols []int32, chunkOff []int64, rowOrder []int32, add bool) (done int)
//
// span4AVX2 for C=8: two gathers per position, lanes 0-3 in Y0 and lanes
// 4-7 in Y9.
TEXT ·span8AVX2(SB), NOSPLIT, $0-160
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), R13
	MOVQ xs_base+24(FP), SI
	MOVQ vals_base+48(FP), R8
	MOVQ vals_len+56(FP), R12
	MOVQ cols_base+72(FP), R9
	MOVQ cols_len+80(FP), DX
	CMPQ DX, R12
	CMOVQLT DX, R12
	SHRQ $3, R12
	MOVQ chunkOff_base+96(FP), R10
	MOVQ chunkOff_len+104(FP), CX
	MOVQ rowOrder_base+120(FP), R11
	DECQ CX
	JLE  span8Done

span8Chunk:
	MOVQ (R10), AX
	MOVQ 8(R10), BX
	CMPQ BX, R12
	JHI  span8Done
	CMPQ AX, BX
	JHI  span8Done
	MOVLQSX (R11), DX
	CMPQ    DX, R13
	JCC     span8Done
	MOVLQSX 4(R11), DX
	CMPQ    DX, R13
	JCC     span8Done
	MOVLQSX 8(R11), DX
	CMPQ    DX, R13
	JCC     span8Done
	MOVLQSX 12(R11), DX
	CMPQ    DX, R13
	JCC     span8Done
	MOVLQSX 16(R11), DX
	CMPQ    DX, R13
	JCC     span8Done
	MOVLQSX 20(R11), DX
	CMPQ    DX, R13
	JCC     span8Done
	MOVLQSX 24(R11), DX
	CMPQ    DX, R13
	JCC     span8Done
	MOVLQSX 28(R11), DX
	CMPQ    DX, R13
	JCC     span8Done
	VXORPD Y0, Y0, Y0
	VXORPD Y9, Y9, Y9
	SHLQ   $3, AX
	SHLQ   $3, BX
	CMPQ   AX, BX
	JEQ    span8Store

span8Pos:
	VMOVDQU    (R9)(AX*4), X1
	VMOVDQU    16(R9)(AX*4), X5
	VPCMPEQD   Y2, Y2, Y2
	VPCMPEQD   Y6, Y6, Y6
	VGATHERDPD Y2, (SI)(X1*8), Y3
	VGATHERDPD Y6, (SI)(X5*8), Y7
	VMOVUPD    (R8)(AX*8), Y4
	VMOVUPD    32(R8)(AX*8), Y8
	VMULPD     Y3, Y4, Y4
	VMULPD     Y7, Y8, Y8
	VADDPD     Y4, Y0, Y0
	VADDPD     Y8, Y9, Y9
	ADDQ       $8, AX
	CMPQ       AX, BX
	JLT        span8Pos

span8Store:
	VEXTRACTF128 $1, Y0, X1
	VEXTRACTF128 $1, Y9, X10
	CMPB add+144(FP), $0
	JNE  span8Add
	MOVLQSX (R11), DX
	VMOVSD  X0, (DI)(DX*8)
	MOVLQSX 4(R11), DX
	VMOVHPD X0, (DI)(DX*8)
	MOVLQSX 8(R11), DX
	VMOVSD  X1, (DI)(DX*8)
	MOVLQSX 12(R11), DX
	VMOVHPD X1, (DI)(DX*8)
	MOVLQSX 16(R11), DX
	VMOVSD  X9, (DI)(DX*8)
	MOVLQSX 20(R11), DX
	VMOVHPD X9, (DI)(DX*8)
	MOVLQSX 24(R11), DX
	VMOVSD  X10, (DI)(DX*8)
	MOVLQSX 28(R11), DX
	VMOVHPD X10, (DI)(DX*8)
	JMP     span8Next

span8Add:
	VPERMILPD $1, X0, X2
	VPERMILPD $1, X1, X3
	VPERMILPD $1, X9, X11
	VPERMILPD $1, X10, X12
	MOVLQSX (R11), DX
	VMOVSD  (DI)(DX*8), X4
	VADDSD  X0, X4, X4
	VMOVSD  X4, (DI)(DX*8)
	MOVLQSX 4(R11), DX
	VMOVSD  (DI)(DX*8), X4
	VADDSD  X2, X4, X4
	VMOVSD  X4, (DI)(DX*8)
	MOVLQSX 8(R11), DX
	VMOVSD  (DI)(DX*8), X4
	VADDSD  X1, X4, X4
	VMOVSD  X4, (DI)(DX*8)
	MOVLQSX 12(R11), DX
	VMOVSD  (DI)(DX*8), X4
	VADDSD  X3, X4, X4
	VMOVSD  X4, (DI)(DX*8)
	MOVLQSX 16(R11), DX
	VMOVSD  (DI)(DX*8), X4
	VADDSD  X9, X4, X4
	VMOVSD  X4, (DI)(DX*8)
	MOVLQSX 20(R11), DX
	VMOVSD  (DI)(DX*8), X4
	VADDSD  X11, X4, X4
	VMOVSD  X4, (DI)(DX*8)
	MOVLQSX 24(R11), DX
	VMOVSD  (DI)(DX*8), X4
	VADDSD  X10, X4, X4
	VMOVSD  X4, (DI)(DX*8)
	MOVLQSX 28(R11), DX
	VMOVSD  (DI)(DX*8), X4
	VADDSD  X12, X4, X4
	VMOVSD  X4, (DI)(DX*8)

span8Next:
	ADDQ $8, R10
	ADDQ $32, R11
	DECQ CX
	JNE  span8Chunk

span8Done:
	SUBQ chunkOff_base+96(FP), R10
	SHRQ $3, R10
	MOVQ R10, done+152(FP)
	VZEROUPPER
	RET
