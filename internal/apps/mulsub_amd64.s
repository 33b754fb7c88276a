#include "textflag.h"

// func mulSubAVX2(w, pv []uint32, mult uint32)
TEXT ·mulSubAVX2(SB), NOSPLIT, $0-52
	MOVQ	w_base+0(FP), DI
	MOVQ	pv_base+24(FP), SI
	MOVQ	pv_len+32(FP), CX
	MOVL	mult+48(FP), AX
	XORQ	BX, BX
	MOVQ	CX, DX
	ANDQ	$~7, DX // elements handled eight at a time
	JZ	tail
	MOVL	AX, X0
	VPBROADCASTD	X0, Y0

loop8:
	VPMULLD	(SI)(BX*4), Y0, Y1
	VMOVDQU	(DI)(BX*4), Y2
	VPSUBD	Y1, Y2, Y2
	VMOVDQU	Y2, (DI)(BX*4)
	ADDQ	$8, BX
	CMPQ	BX, DX
	JB	loop8
	VZEROUPPER

tail:
	CMPQ	BX, CX
	JAE	done
	MOVL	(SI)(BX*4), R8
	IMULL	AX, R8
	SUBL	R8, (DI)(BX*4)
	INCQ	BX
	JMP	tail

done:
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL	eaxArg+0(FP), AX
	MOVL	ecxArg+4(FP), CX
	CPUID
	MOVL	AX, eax+8(FP)
	MOVL	BX, ebx+12(FP)
	MOVL	CX, ecx+16(FP)
	MOVL	DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL	$0, CX
	XGETBV
	MOVL	AX, eax+0(FP)
	MOVL	DX, edx+4(FP)
	RET
