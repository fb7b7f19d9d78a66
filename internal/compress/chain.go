package compress

import (
	"errors"
	"fmt"
)

// Chain composes a sparsifying Selector with a value codec: the Selector
// picks which coordinates travel, the value codec compresses just the kept
// values (e.g. top-k → quantize8 sends k indices plus k bytes instead of k
// float64s). This is the structured-then-sketched composition from the
// related work, and it stacks with CMFL gating: gate → select → quantise.
//
// Payload: [u32 nKept][nKept × u32 ascending index][value-codec payload of
// the kept values].
type Chain struct {
	Selector Selector
	Values   Codec
}

// NewChain builds the common two-stage chain.
func NewChain(sel Selector, values Codec) Chain { return Chain{Selector: sel, Values: values} }

func (c Chain) validate() error {
	if c.Selector == nil || c.Values == nil {
		return errors.New("compress: Chain requires both a Selector and a value codec")
	}
	if _, nested := c.Values.(Chain); nested {
		return errors.New("compress: Chain value codec cannot itself be a Chain")
	}
	return nil
}

// Name implements Codec.
func (c Chain) Name() string {
	if c.Selector == nil || c.Values == nil {
		return "chain(invalid)"
	}
	return c.Selector.Name() + "+" + c.Values.Name()
}

// EncodeInto implements Codec. The selection and kept-value scratch are
// pooled; the interface method calls on Selector/Values are dynamic
// dispatch, so each concrete codec carries its own hot-path annotation.
//
//cmfl:hotpath
func (c Chain) EncodeInto(dst []byte, update []float64) ([]byte, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	ip := u32Scratch.Get().(*[]uint32)
	vp := f64Scratch.Get().(*[]float64)
	bp := byteScratch.Get().(*[]byte)
	idx, vals, err := c.Selector.SelectInto(*ip, *vp, update)
	*ip, *vp = idx, vals
	if err == nil {
		var payload []byte
		payload, err = c.Values.EncodeInto(*bp, vals)
		if err == nil {
			*bp = payload
			dst = growBytes(dst, 4+len(idx)*4+len(payload))
			putU32(dst[:4], uint32(len(idx)))
			for j, i := range idx {
				putU32(dst[4+j*4:4+(j+1)*4], i)
			}
			copy(dst[4+len(idx)*4:], payload)
		}
	}
	u32Scratch.Put(ip)
	f64Scratch.Put(vp)
	byteScratch.Put(bp)
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// DecodeSparseInto implements SparseDecoder: the index block is the sparse
// view's coordinates as it stands, and the value codec reconstructs only
// the kept values.
//
//cmfl:hotpath
func (c Chain) DecodeSparseInto(idx []uint32, vals []float64, payload []byte, dim int) ([]uint32, []float64, error) {
	if err := c.validate(); err != nil {
		return idx, vals, err
	}
	if dim < 0 || len(payload) < 4 {
		return idx, vals, fmt.Errorf("%w: chain payload %d bytes", ErrCorruptPayload, len(payload))
	}
	nKept := int(getU32(payload[:4]))
	if nKept > dim || len(payload) < 4+nKept*4 {
		return idx, vals, fmt.Errorf("%w: chain keeps %d of dim %d in %d bytes", ErrCorruptPayload, nKept, dim, len(payload))
	}
	idx, err := decodeIndices(idx, payload[4:], nKept, 4, dim)
	if err != nil {
		return idx, vals, err
	}
	decoded, err := c.Values.DecodeInto(vals, payload[4+nKept*4:], nKept)
	if err != nil {
		return idx, vals, err
	}
	return idx, decoded, nil
}

// DecodeInto implements Codec.
//
//cmfl:hotpath
func (c Chain) DecodeInto(dst []float64, payload []byte, dim int) ([]float64, error) {
	ip, vp := u32Scratch.Get().(*[]uint32), f64Scratch.Get().(*[]float64)
	idx, vals, err := c.DecodeSparseInto(*ip, *vp, payload, dim)
	return densify(dst, dim, ip, vp, idx, vals, err)
}
