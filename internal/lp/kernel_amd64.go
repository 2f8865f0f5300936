package lp

// The AVX2 kernel is installed once, when the CPU supports AVX2 and the
// operating system saves the YMM registers; otherwise eliminateGo stays.
func init() {
	if hasAVX2() {
		eliminate = eliminateAVX2
	}
}

// eliminateAVX2 is eliminate four lanes at a time with VMULPD then
// VSUBPD (never FMA), and the scalar tail with VMULSD then VSUBSD, so
// each entry is rounded exactly as subScaled rounds it.
//
//go:noescape
func eliminateAVX2(rows [][]float64, fs []float64, src []float64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}
