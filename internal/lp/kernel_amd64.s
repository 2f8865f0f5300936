#include "textflag.h"

// func eliminateAVX2(rows [][]float64, fs []float64, src []float64)
TEXT ·eliminateAVX2(SB), NOSPLIT, $0-72
	MOVQ   rows_base+0(FP), R8
	MOVQ   rows_len+8(FP), R9
	MOVQ   fs_base+24(FP), R10
	MOVQ   src_base+48(FP), R11
	MOVQ   src_len+56(FP), R12
	VXORPD X5, X5, X5
	TESTQ  R9, R9
	JZ     done

row:
	// Skip the row when fs[i] == 0 (either sign); NaN compares
	// unordered and is processed, as in the Go loop.
	VMOVSD   (R10), X0
	VUCOMISD X5, X0
	JNE      update
	JPS      update
	JMP      next

update:
	VBROADCASTSD (R10), Y0
	MOVQ         (R8), DI
	MOVQ         R11, SI
	MOVQ         R12, CX
	MOVQ         CX, DX
	SHRQ         $3, DX
	JZ           tail4

loop8:
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VMOVUPD (DI), Y3
	VMOVUPD 32(DI), Y4
	VSUBPD  Y1, Y3, Y3
	VSUBPD  Y2, Y4, Y4
	VMOVUPD Y3, (DI)
	VMOVUPD Y4, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    DX
	JNZ     loop8

tail4:
	ANDQ    $7, CX
	CMPQ    CX, $4
	JB      tail1
	VMOVUPD (SI), Y1
	VMULPD  Y0, Y1, Y1
	VMOVUPD (DI), Y3
	VSUBPD  Y1, Y3, Y3
	VMOVUPD Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX

tail1:
	TESTQ CX, CX
	JZ    next

loop1:
	VMOVSD (SI), X1
	VMULSD X0, X1, X1
	VMOVSD (DI), X3
	VSUBSD X1, X3, X3
	VMOVSD X3, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    loop1

next:
	ADDQ $24, R8
	ADDQ $8, R10
	DECQ R9
	JNZ  row

done:
	VZEROUPPER
	RET

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

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
