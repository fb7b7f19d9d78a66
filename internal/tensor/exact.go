package tensor

// Block kernels for the dense sweeps of the exact accumulator
// (internal/emu/shard), with AVX-512 fast paths (see exact_avx512_amd64.s)
// behind the same simdGEMM switch as the other elementwise kernels. Unlike
// the others they have no Go loop of their own: each takes whole blocks of
// ExactBlock coordinates and returns how many leading coordinates it did,
// and the accumulator's scalar code, which is the reference semantics, does
// the rest. On the portable path they do nothing and return 0.
//
// A lane runs the scalar code's IEEE operations in the scalar code's order,
// so what a kernel stores is bit for bit what the scalar code stores. A
// block that needs more than the stores — a residual that neither hi nor lo
// could absorb, or a non-finite operand — is left unstored and ends the
// kernel's run, and the scalar code takes it.

// ExactBlock is the number of coordinates an exact-sum kernel takes at once.
const ExactBlock = 8

// ExactAdd runs the two TwoSums of the accumulator's dense add on whole
// blocks: per coordinate, x = fl(w·x[j]), (s, e) = TwoSum(hi[j], x),
// (t, e2) = TwoSum(lo[j], e), then hi[j], lo[j] = s, t. It stops before the
// first block in which some e2 is not ±0 (a NaN is not), and before a tail
// shorter than a block, and returns the number of coordinates it stored: a
// multiple of ExactBlock. Slices must have equal length.
//
//cmfl:hotpath
func ExactAdd(hi, lo, x []float64, w float64) int {
	if len(hi) != len(x) || len(lo) != len(x) {
		panic("tensor: ExactAdd length mismatch")
	}
	if !simdGEMM || len(x) < ExactBlock {
		return 0
	}
	return int(exactAddAVX(&hi[0], &lo[0], &x[0], uintptr(len(x)/ExactBlock), w))
}

// ExactMerge is ExactAdd for the dense merge of one accumulator's (bhi, blo)
// into another's: (s, e) = TwoSum(hi[j], bhi[j]), (t, e2) = TwoSum(lo[j], e),
// (t, e3) = TwoSum(t, blo[j]), then hi[j], lo[j] = s, t. It stops before the
// first block in which some e2 or e3 is not ±0. Slices must have equal
// length.
//
//cmfl:hotpath
func ExactMerge(hi, lo, bhi, blo []float64) int {
	if len(hi) != len(bhi) || len(lo) != len(bhi) || len(blo) != len(bhi) {
		panic("tensor: ExactMerge length mismatch")
	}
	if !simdGEMM || len(bhi) < ExactBlock {
		return 0
	}
	return int(exactMergeAVX(&hi[0], &lo[0], &bhi[0], &blo[0], uintptr(len(bhi)/ExactBlock)))
}

// ExactRound writes dst[j] = fl(hi[j] + lo[j]), a zero sum as +0, over the
// whole blocks and returns the number of coordinates it wrote. Slices must
// have equal length.
//
//cmfl:hotpath
func ExactRound(dst, hi, lo []float64) int {
	if len(hi) != len(dst) || len(lo) != len(dst) {
		panic("tensor: ExactRound length mismatch")
	}
	blocks := len(dst) / ExactBlock
	if !simdGEMM || blocks == 0 {
		return 0
	}
	exactRoundAVX(&dst[0], &hi[0], &lo[0], uintptr(blocks))
	return blocks * ExactBlock
}
