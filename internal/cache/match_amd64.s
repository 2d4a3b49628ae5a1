//go:build amd64 && !purego

#include "textflag.h"

// func tagMatch(tags *uint64, groups int, line uint64) uint64
//
// The groups run from the last to the first, so each one's four mask
// bits shift in below the ones already gathered.
TEXT ·tagMatch(SB), NOSPLIT, $0-32
	MOVQ         tags+0(FP), SI
	MOVQ         groups+8(FP), CX
	VPBROADCASTQ line+16(FP), Y0
	MOVQ         CX, DX
	SHLQ         $5, DX
	ADDQ         DX, SI
	XORQ         AX, AX

loop:
	SUBQ      $32, SI
	VPCMPEQQ  (SI), Y0, Y1
	VMOVMSKPD Y1, BX
	SHLQ      $4, AX
	ORQ       BX, AX
	DECQ      CX
	JNZ       loop

	VZEROUPPER
	MOVQ AX, ret+24(FP)
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
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
