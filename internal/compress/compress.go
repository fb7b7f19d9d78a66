// Package compress implements the update-compression side of the paper's
// related work (Sec. II-C "structured updates and sketched updates",
// Konečný et al.; clustered-codebook updates, Cui et al.): lossy encodings
// that reduce the bits per upload instead of the number of uploads. CMFL's
// relevance gate decides *whether* an update travels; a Codec decides *how
// many bits* it costs. The two compose — the engines apply a Codec only to
// updates that already passed the gate.
//
// Every Codec exposes a scratch-reusing pair, EncodeInto and DecodeInto:
// the caller passes its previous output back in as dst and the codec reuses
// that buffer's capacity, so the steady-state encode path performs zero
// heap allocations per call (the contract the //cmfl:hotpath annotations
// pin and cmfl-vet's transitive hotpathalloc analyzer enforces). Codecs
// hold no mutable state — all working memory is caller-provided or pooled —
// which is what makes them safe for concurrent use.
//
// Codecs compose through Chain (a sparsifying Selector followed by a value
// codec, e.g. top-k → 8-bit quantisation) and travel self-described over
// the emulation's wire format v2 via the Spec encoding in spec.go.
package compress

import (
	"errors"
	"fmt"
	"math"

	"cmfl/internal/tensor"
)

// Codec turns an update vector into a compact byte payload and back.
//
// Implementations must be safe for concurrent use: codecs are plain values
// with immutable configuration, and all scratch is caller-provided (dst) or
// internally pooled.
type Codec interface {
	Name() string
	// EncodeInto compresses update into dst, reusing dst's capacity when it
	// suffices (the returned slice then aliases dst; its previous contents
	// are overwritten). Callers that feed each call's result back in as the
	// next call's dst reach a zero-allocation steady state.
	EncodeInto(dst []byte, update []float64) ([]byte, error)
	// DecodeInto reconstructs a (lossy) update of length dim from payload
	// into dst, with the same capacity-reuse contract as EncodeInto.
	DecodeInto(dst []float64, payload []byte, dim int) ([]float64, error)
}

// Selector is a Codec that transmits a subset of coordinates (top-k, random
// mask). A Selector can serve as the sparsifying first stage of a Chain,
// which then hands only the kept values to the chain's value codec.
type Selector interface {
	Codec
	// SelectInto writes the kept coordinates into idx (ascending, unique)
	// and their values into vals, reusing both buffers' capacity. The two
	// returned slices have equal length.
	SelectInto(idx []uint32, vals []float64, update []float64) ([]uint32, []float64, error)
}

// SparseDecoder is the decode-side mirror of Selector: a Codec whose payload
// names the coordinates it carries, so a consumer can fold or scatter those
// alone instead of walking a dim-long vector that is almost all zeros.
type SparseDecoder interface {
	Codec
	// DecodeSparseInto parses and validates payload into idx, the carried
	// coordinates (strictly ascending, below dim), and vals, their values,
	// reusing both buffers' capacity; every coordinate not named is +0.
	// DecodeInto is this view scattered over zeros: same payloads, same bits.
	DecodeSparseInto(idx []uint32, vals []float64, payload []byte, dim int) ([]uint32, []float64, error)
}

// Encode is the allocating convenience form of EncodeInto.
func Encode(c Codec, update []float64) ([]byte, error) { return c.EncodeInto(nil, update) }

// Decode is the allocating convenience form of DecodeInto.
func Decode(c Codec, payload []byte, dim int) ([]float64, error) {
	return c.DecodeInto(nil, payload, dim)
}

// ErrCorruptPayload reports an undecodable payload.
var ErrCorruptPayload = errors.New("compress: corrupt payload")

// ErrNonFinite reports a NaN or ±Inf coordinate in an update handed to a
// codec whose encoding would smear the damage across every coordinate
// (range quantisation, chunk scales, codebook fitting). Pass-through codecs
// (Identity, TopK, RandomMask) transmit non-finite values verbatim instead:
// there the damage stays on the coordinate that carried it in.
var ErrNonFinite = errors.New("compress: non-finite coordinate in update")

// Uniform8 quantises each coordinate to 8 bits over the update's own
// [min, max] range (a "sketched update" in the paper's terminology).
// Payload: min, max as float64 followed by one byte per coordinate —
// an 8x reduction over float64. Byte b of a coordinate v is
// math.Round((v−min)/(max−min)·255), 0 when max = min, and decodes to
// min + b/255·(max−min).
type Uniform8 struct{}

// Name implements Codec.
func (Uniform8) Name() string { return "quantize8" }

// EncodeInto implements Codec. A non-finite coordinate is rejected with
// ErrNonFinite: it would silently poison lo/hi and thereby every decoded
// value, not just its own. So is a finite update whose range max − min
// overflows to +Inf, which would decode to NaN everywhere.
//
//cmfl:hotpath
func (Uniform8) EncodeInto(dst []byte, update []float64) ([]byte, error) {
	lo, hi, finite := tensor.FiniteRange(update)
	if !finite {
		for i, v := range update {
			if !isFinite(v) { // the first bad coordinate
				return nil, fmt.Errorf("%w: quantize8 coordinate %d = %v", ErrNonFinite, i, v)
			}
		}
	}
	if len(update) == 0 {
		lo, hi = 0, 0
	}
	scale := hi - lo
	if !isFinite(scale) {
		return nil, fmt.Errorf("%w: quantize8 range [%v, %v] overflows", ErrNonFinite, lo, hi)
	}
	dst = growBytes(dst, 16+len(update))
	putU64(dst[:8], math.Float64bits(lo))
	putU64(dst[8:16], math.Float64bits(hi))
	if scale > 0 {
		tensor.Quantize8(dst[16:], update, lo, scale)
	} else {
		clear(dst[16:])
	}
	return dst, nil
}

// q8Levels[b] is b/255, the fraction of the range byte b stands for.
var q8Levels = func() (levels [256]float64) {
	for b := range levels {
		levels[b] = float64(b) / 255
	}
	return levels
}()

// DecodeInto implements Codec. A header whose bounds are not finite, are
// out of order, or span a range that overflows is ErrCorruptPayload: no
// encoder writes one, and it would decode to non-finite values.
//
//cmfl:hotpath
func (Uniform8) DecodeInto(dst []float64, payload []byte, dim int) ([]float64, error) {
	if dim < 0 || len(payload) != 16+dim {
		return nil, fmt.Errorf("%w: quantize8 payload %d bytes for dim %d", ErrCorruptPayload, len(payload), dim)
	}
	lo := math.Float64frombits(getU64(payload[:8]))
	hi := math.Float64frombits(getU64(payload[8:16]))
	scale := hi - lo
	if !isFinite(scale) || !(lo <= hi) {
		return nil, fmt.Errorf("%w: quantize8 range [%v, %v]", ErrCorruptPayload, lo, hi)
	}
	dst = growFloats(dst, dim)
	body, levels := payload[16:16+len(dst)], &q8Levels
	i := 0
	for ; i+4 <= len(dst); i += 4 { // four a step halves the loop's own cost
		d, b := dst[i:i+4:i+4], body[i:i+4:i+4]
		d[0] = lo + levels[b[0]]*scale
		d[1] = lo + levels[b[1]]*scale
		d[2] = lo + levels[b[2]]*scale
		d[3] = lo + levels[b[3]]*scale
	}
	for ; i < len(dst); i++ {
		dst[i] = lo + levels[body[i]]*scale
	}
	return dst, nil
}

// TopK keeps only the K largest-magnitude coordinates (a "structured
// update"). Payload: K (index uint32, value float64) pairs in ascending
// index order; all other coordinates decode to zero.
//
// Which K is decided by a total order — |v| descending, then index
// ascending, NaN ranking as +Inf — so equal magnitudes never make the kept
// set arbitrary: the lower index wins.
type TopK struct {
	K int
}

// Name implements Codec.
func (c TopK) Name() string { return fmt.Sprintf("top%d", c.K) }

// EncodeInto implements Codec.
//
//cmfl:hotpath
func (c TopK) EncodeInto(dst []byte, update []float64) ([]byte, error) {
	ip := u32Scratch.Get().(*[]uint32)
	idx, err := c.selectIndices(*ip, update)
	*ip = idx
	if err != nil {
		u32Scratch.Put(ip)
		return nil, err
	}
	dst = growBytes(dst, len(idx)*12)
	off := 0
	for _, i := range idx {
		putU32(dst[off:off+4], i)
		putU64(dst[off+4:off+12], math.Float64bits(update[i]))
		off += 12
	}
	u32Scratch.Put(ip)
	return dst, nil
}

// selectIndices fills idx with the K first-ranked coordinate indices of
// update, ascending, reusing idx's capacity. A strided sample sets a
// magnitude floor that a few more than K coordinates reach; one vector
// sweep collects those candidates in index order (in the rare case that
// fewer than K came through, a second sweep tries a floor twice as far
// below, and only if that misses too does a third take every coordinate);
// an exact cut among the candidates alone drops whatever ranks after the
// K-th, which leaves the kept set already ascending.
//
//cmfl:hotpath
func (c TopK) selectIndices(idx []uint32, update []float64) ([]uint32, error) {
	if c.K <= 0 {
		return idx, errors.New("compress: TopK requires K > 0")
	}
	k := min(c.K, len(update))
	if k == 0 {
		return idx[:0], nil
	}
	kp := f64Scratch.Get().(*[]float64)
	floor, room := sampledFloor(kp, update, k, 1)
	idx = candidates(idx, update, floor, room)
	if len(idx) < k {
		floor, room = sampledFloor(kp, update, k, 2)
		if idx = candidates(idx, update, floor, room); len(idx) < k {
			idx = candidates(idx, update, 0, len(update))
		}
	}
	if len(idx) > k {
		idx = cutAt(idx, kp, update, k)
	}
	f64Scratch.Put(kp)
	return idx, nil
}

// The floor's sample: sampleSize magnitudes read at a stride, from updates
// of at least minSampled coordinates (shorter ones are swept whole).
const (
	sampleSize = 1024
	minSampled = 8 * sampleSize
)

// samplePoint is the coordinate of an n-long update that sample j reads.
func samplePoint(j, n int) int { return j * n / sampleSize }

// sampledFloor returns a magnitude key that a few more than k of update's
// coordinates reach, and how many candidates to make room for. Of the
// sampled keys, e = k·sampleSize/n are expected to rank among the top k;
// the floor is the r-th largest sampled key with r = ⌈e + margin·(3√e + 2)⌉:
// at margin 1, three standard deviations and two keys beyond, so that fewer
// than k coordinates reach it only rarely; the retry's margin 2 doubles
// that. An update too short to sample, or a k whose margin takes in the
// whole sample, gets floor 0: every coordinate is a candidate. kp lends the
// sample its storage.
func sampledFloor(kp *[]float64, update []float64, k, margin int) (floor uint64, room int) {
	n := len(update)
	e := float64(k) * sampleSize / float64(n)
	r := int(math.Ceil(e + float64(margin)*3*math.Sqrt(e) + float64(2*margin)))
	if n < minSampled || r >= sampleSize {
		return 0, n
	}
	keys := growFloats(*kp, sampleSize)
	*kp = keys
	for j := range keys {
		keys[j] = magnitude(update[samplePoint(j, n)])
	}
	floor, _ = nthLargest(keys, r)
	return floor, 2 * r * n / sampleSize
}

// candidates overwrites idx with the ascending indices of update whose
// magnitude key is at least floor, sized for room of them and resized for
// all of update when they outnumber that.
func candidates(idx []uint32, update []float64, floor uint64, room int) []uint32 {
	idx, ok := tensor.IndicesAtLeast(growU32(idx, room+16), update, floor)
	if !ok {
		idx, _ = tensor.IndicesAtLeast(growU32(idx, len(update)+16), update, floor)
	}
	return idx
}

// cutAt keeps the k first-ranked of the more than k ascending candidates in
// idx. Their magnitudes, gathered into kp's contiguous storage, give up the
// k-th largest; then, in index order, every candidate above it is kept, and
// of those equal to it the first k − (the number above) — the lower index
// wins a tie.
func cutAt(idx []uint32, kp *[]float64, update []float64, k int) []uint32 {
	keys := growFloats(*kp, len(idx))
	*kp = keys
	for j, i := range idx {
		keys[j] = magnitude(update[i])
	}
	cutKey, above := nthLargest(keys, k)
	ties, kept := k-above, 0
	for _, i := range idx {
		key := magKey(update[i])
		if key < cutKey || key == cutKey && ties == 0 {
			continue
		}
		if key == cutKey {
			ties--
		}
		idx[kept] = i
		kept++
	}
	return idx[:kept]
}

// SelectInto implements Selector.
func (c TopK) SelectInto(idx []uint32, vals []float64, update []float64) ([]uint32, []float64, error) {
	idx, err := c.selectIndices(idx, update)
	if err != nil {
		return idx, vals, err
	}
	vals = growFloats(vals, len(idx))
	for j, i := range idx {
		vals[j] = update[i]
	}
	return idx, vals, nil
}

// DecodeSparseInto implements SparseDecoder.
//
//cmfl:hotpath
func (c TopK) DecodeSparseInto(idx []uint32, vals []float64, payload []byte, dim int) ([]uint32, []float64, error) {
	n := len(payload) / 12
	if dim < 0 || len(payload)%12 != 0 || n > dim {
		return idx, vals, fmt.Errorf("%w: topk payload %d bytes for dim %d", ErrCorruptPayload, len(payload), dim)
	}
	idx, err := decodeIndices(idx, payload, n, 12, dim)
	if err != nil {
		return idx, vals, err
	}
	vals = growFloats(vals, n)
	for j := range vals {
		vals[j] = math.Float64frombits(getU64(payload[j*12+4 : j*12+12]))
	}
	return idx, vals, nil
}

// DecodeInto implements Codec.
//
//cmfl:hotpath
func (c TopK) DecodeInto(dst []float64, payload []byte, dim int) ([]float64, error) {
	ip, vp := u32Scratch.Get().(*[]uint32), f64Scratch.Get().(*[]float64)
	idx, vals, err := c.DecodeSparseInto(*ip, *vp, payload, dim)
	return densify(dst, dim, ip, vp, idx, vals, err)
}

// RandomMask transmits a pseudo-random Fraction of coordinates chosen by a
// seed shared between encoder and decoder, so only the kept values travel
// (the random-mask structured update). The mask depends on (Seed, dim) and
// a per-call counter is unnecessary because federated updates are
// idempotent per round.
type RandomMask struct {
	Fraction float64
	Seed     uint64
}

// Name implements Codec.
func (c RandomMask) Name() string { return fmt.Sprintf("mask%.0f%%", c.Fraction*100) }

// maskKeep reproduces the deterministic keep-decision for coordinate i.
func (c RandomMask) maskKeep(i, dim int) bool {
	// SplitMix64 over (seed, i): cheap, stateless, identical on both ends.
	z := c.Seed + uint64(i)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11)/float64(1<<53) < c.Fraction
}

func (c RandomMask) validate() error {
	if c.Fraction <= 0 || c.Fraction > 1 {
		return errors.New("compress: RandomMask fraction must be in (0, 1]")
	}
	return nil
}

// EncodeInto implements Codec.
//
//cmfl:hotpath
func (c RandomMask) EncodeInto(dst []byte, update []float64) ([]byte, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	kept := 0
	for i := range update {
		if c.maskKeep(i, len(update)) {
			kept++
		}
	}
	dst = growBytes(dst, kept*8)
	off := 0
	for i, v := range update {
		if c.maskKeep(i, len(update)) {
			putU64(dst[off:off+8], math.Float64bits(v))
			off += 8
		}
	}
	return dst, nil
}

// SelectInto implements Selector.
func (c RandomMask) SelectInto(idx []uint32, vals []float64, update []float64) ([]uint32, []float64, error) {
	if err := c.validate(); err != nil {
		return idx, vals, err
	}
	kept := 0
	for i := range update {
		if c.maskKeep(i, len(update)) {
			kept++
		}
	}
	idx = growU32(idx, kept)
	vals = growFloats(vals, kept)
	j := 0
	for i, v := range update {
		if c.maskKeep(i, len(update)) {
			idx[j] = uint32(i)
			vals[j] = v
			j++
		}
	}
	return idx, vals, nil
}

// DecodeInto implements Codec.
//
//cmfl:hotpath
func (c RandomMask) DecodeInto(dst []float64, payload []byte, dim int) ([]float64, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	if dim < 0 {
		return nil, fmt.Errorf("%w: mask negative dim", ErrCorruptPayload)
	}
	dst = growFloats(dst, dim)
	off := 0
	for i := 0; i < dim; i++ {
		if !c.maskKeep(i, dim) {
			dst[i] = 0
			continue
		}
		if off+8 > len(payload) {
			return nil, fmt.Errorf("%w: mask payload too short", ErrCorruptPayload)
		}
		dst[i] = math.Float64frombits(getU64(payload[off : off+8]))
		off += 8
	}
	if off != len(payload) {
		return nil, fmt.Errorf("%w: mask payload has %d trailing bytes", ErrCorruptPayload, len(payload)-off)
	}
	return dst, nil
}

// Identity is the no-compression control (full float64 payload).
type Identity struct{}

// Name implements Codec.
func (Identity) Name() string { return "identity" }

// EncodeInto implements Codec.
//
//cmfl:hotpath
func (Identity) EncodeInto(dst []byte, update []float64) ([]byte, error) {
	dst = growBytes(dst, len(update)*8)
	for i, v := range update {
		putU64(dst[i*8:(i+1)*8], math.Float64bits(v))
	}
	return dst, nil
}

// DecodeInto implements Codec.
//
//cmfl:hotpath
func (Identity) DecodeInto(dst []float64, payload []byte, dim int) ([]float64, error) {
	if dim < 0 || len(payload) != dim*8 {
		return nil, fmt.Errorf("%w: identity payload %d bytes for dim %d", ErrCorruptPayload, len(payload), dim)
	}
	dst = growFloats(dst, dim)
	for i := range dst {
		dst[i] = math.Float64frombits(getU64(payload[i*8 : (i+1)*8]))
	}
	return dst, nil
}
