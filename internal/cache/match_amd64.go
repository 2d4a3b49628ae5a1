//go:build amd64 && !purego

package cache

// tagMatch returns the match mask of the 4*groups tags at tags: bit w
// is set when tags[w] == line. It compares four ways per AVX2
// instruction and must only be called when hasAVX2 is true.
//
//go:noescape
func tagMatch(tags *uint64, groups int, line uint64) uint64

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers, checked once when the package loads.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves the XMM and the upper YMM state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// vectorGroups is the number of four-way groups tagMatch compares for a
// cache of the given associativity, or 0 when the scalar scan must be
// used: no AVX2, or a way count that is not a multiple of 4.
func vectorGroups(ways int) int {
	if !hasAVX2 || ways%4 != 0 {
		return 0
	}
	return ways / 4
}
