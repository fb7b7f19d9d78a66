package tensor

// Block kernels for the emulator's wire codec (internal/emu), which carries
// float64 values as big-endian words, with AVX-512 fast paths (see
// wire_avx512_amd64.s) behind the same simdGEMM switch as the other
// elementwise kernels. Like the exact-sum kernels they have no Go loop of
// their own: each takes whole blocks of WireBlock words and returns how many
// leading words it did, and the codec's scalar code, which is the reference
// semantics, does the rest. On the portable path they do nothing and return
// 0.

// WireBlock is the number of words a wire kernel takes at once.
const WireBlock = 8

// DecodeBE sets dst[j] to the float64 whose bits are the big-endian word
// src[8j:8j+8], over whole blocks. It stops before the first block that holds
// a word with an all-ones exponent (±Inf or NaN), and before a tail shorter
// than a block, and returns the number of words it stored: a multiple of
// WireBlock. len(src) must be 8·len(dst).
//
//cmfl:hotpath
func DecodeBE(dst []float64, src []byte) int {
	if len(src) != 8*len(dst) {
		panic("tensor: DecodeBE length mismatch")
	}
	if !simdGEMM || len(dst) < WireBlock {
		return 0
	}
	return int(decodeBEAVX(&dst[0], &src[0], uintptr(len(dst)/WireBlock)))
}

// EncodeBE writes the bits of src[j] as the big-endian word dst[8j:8j+8],
// over whole blocks, and returns the number of words it wrote: a multiple of
// WireBlock. len(dst) must be 8·len(src).
//
//cmfl:hotpath
func EncodeBE(dst []byte, src []float64) int {
	if len(dst) != 8*len(src) {
		panic("tensor: EncodeBE length mismatch")
	}
	blocks := len(src) / WireBlock
	if !simdGEMM || blocks == 0 {
		return 0
	}
	encodeBEAVX(&dst[0], &src[0], uintptr(blocks))
	return blocks * WireBlock
}
