// Package emu emulates the paper's EC2 deployment (Sec. V-C): a master
// (server) and D slaves (clients) exchange models and updates over real TCP
// connections with a compact binary wire protocol, and every byte on the
// wire is accounted. A client whose update is filtered sends a small skip
// notification in place of the full weight vector, exactly as the paper's
// implementation note describes.
//
// The package runs equally as separate processes (cmd/cmfl-server and
// cmd/cmfl-client) or as an in-process localhost cluster (RunCluster) for
// tests, examples and benches.
package emu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"cmfl/internal/emu/shard"
	"cmfl/internal/tensor"
)

// Message types on the wire.
const (
	msgHello  byte = 1 // client -> server: clientID [+ codec spec, wire v2]
	msgModel  byte = 2 // server -> client: round, params
	msgUpdate byte = 3 // client -> server: clientID, round, relevance, loss, dim, delta
	msgSkip   byte = 4 // client -> server: clientID, round, relevance, loss
	msgDone   byte = 5 // server -> client: training finished
	// Kind 6 was msgUpdateC (wire v1): a compressed update whose payload
	// repeated the codec name on every frame. Retired by wire v2 — the codec
	// is negotiated once in the hello — and the id stays reserved so a stale
	// v1 client fails loudly instead of being misparsed.
	msgUpdateCRetired byte = 6
	msgUpdate2        byte = 7 // client -> server: clientID, round, relevance, loss, dim, codec payload
)

// helloV2 is the version tag of the extended hello payload. A 4-byte hello
// is the v1 form: raw float64 updates, no codec.
const helloV2 = 2

// maxFrame bounds a frame to protect against corrupt length prefixes
// (64 MiB covers ~8.4M float64 parameters).
const maxFrame = 64 << 20

// maxHello bounds a hello frame: the v2 form's 7 bytes and a spec whose
// length fits its 16-bit field.
const maxHello = 7 + 0xFFFF

// frameOverhead is the per-frame framing cost: 4-byte length + 1-byte type.
const frameOverhead = 5

// ErrFrameTooLarge reports a frame longer than its reader's bound: maxFrame,
// or less on a connection whose frames are known to be smaller.
var ErrFrameTooLarge = errors.New("emu: frame exceeds maximum size")

// frame is one decoded protocol message.
type frame struct {
	kind    byte
	payload []byte
}

// wireSize returns the total bytes the frame occupies on the wire.
func (f *frame) wireSize() int64 { return int64(frameOverhead + len(f.payload)) }

// writeFrame sends one frame and returns the bytes written.
func writeFrame(w io.Writer, kind byte, payload []byte) (int64, error) {
	if len(payload) > maxFrame {
		return 0, ErrFrameTooLarge
	}
	var hdr [frameOverhead]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = kind
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("emu: write frame header: %w", err)
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return 0, fmt.Errorf("emu: write frame payload: %w", err)
		}
	}
	return int64(frameOverhead + len(payload)), nil
}

// readHeader reads a frame header into hdr (frameOverhead bytes) and returns
// the payload length and the kind. A length above limit is ErrFrameTooLarge,
// decided from the prefix alone, before any payload byte is read.
func readHeader(r io.Reader, hdr []byte, limit int) (n int, kind byte, err error) {
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, 0, fmt.Errorf("emu: read frame header: %w", err)
	}
	n64 := uint64(binary.BigEndian.Uint32(hdr[:4]))
	if n64 > uint64(limit) {
		return 0, 0, ErrFrameTooLarge
	}
	return int(n64), hdr[4], nil
}

// readFrameInto receives one frame of at most limit payload bytes, reading
// the header and then the payload into buf's capacity when it is large
// enough. The caller must be done with whatever it last read into buf.
func readFrameInto(r io.Reader, buf []byte, limit int) (frame, error) {
	if cap(buf) < frameOverhead {
		buf = make([]byte, frameOverhead)
	}
	n, kind, err := readHeader(r, buf[:frameOverhead], limit)
	if err != nil {
		return frame{}, err
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return frame{}, fmt.Errorf("emu: read frame payload: %w", err)
	}
	return frame{kind: kind, payload: payload}, nil
}

// vectorWire routes the float codec's sweeps through the tensor block
// kernels, which do nothing on a CPU without them. Turning it off runs the
// scalar code alone; the tests compare the two.
var vectorWire = true

// putFloats appends vals as big-endian float64 bits: the buffer is sized
// once, then written a kernel block, or four words, a step.
func putFloats(buf []byte, vals []float64) []byte {
	n := len(buf)
	buf = slices.Grow(buf, len(vals)*8)[:n+len(vals)*8]
	out := buf[n:]
	if vectorWire {
		j := tensor.EncodeBE(out, vals)
		vals, out = vals[j:], out[8*j:]
	}
	for len(vals) >= 4 && len(out) >= 32 {
		binary.BigEndian.PutUint64(out[0:8], math.Float64bits(vals[0]))
		binary.BigEndian.PutUint64(out[8:16], math.Float64bits(vals[1]))
		binary.BigEndian.PutUint64(out[16:24], math.Float64bits(vals[2]))
		binary.BigEndian.PutUint64(out[24:32], math.Float64bits(vals[3]))
		vals, out = vals[4:], out[32:]
	}
	for i, v := range vals {
		binary.BigEndian.PutUint64(out[i*8:i*8+8], math.Float64bits(v))
	}
	return buf
}

// expOnes is the smallest sign-shifted-out bit pattern whose exponent is all
// ones: bits<<1 >= expOnes exactly when the float is ±Inf or NaN.
const expOnes = 0x7FF << 53

// getFloats decodes n big-endian float64 values into dst, reusing its
// capacity, and rejects a NaN or ±Inf as decodeFloats does.
func getFloats(dst []float64, b []byte, n int) ([]float64, error) {
	if len(b) < n*8 {
		return dst, fmt.Errorf("emu: float payload has %d bytes, need %d", len(b), n*8)
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	return dst, decodeFloats(dst, b[:n*8], 0)
}

// decodeFloats decodes the big-endian words of b, 8·len(dst) bytes, into
// dst. A NaN or ±Inf is rejected in the same sweep: the server's exact sum
// would never lose it (shard.ErrNonFinite), and a client has nothing to
// learn from a model that carries one. The error names the first such
// coordinate, counted from base, the coordinate of dst[0] in the vector dst
// is part of. The kernel takes whole blocks and stops before one holding a
// non-finite word; the rest is taken four words a step, and a group holding
// a non-finite one is left to the word-by-word tail, which names the first.
func decodeFloats(dst []float64, b []byte, base int) error {
	d, src := dst, b
	if vectorWire {
		j := tensor.DecodeBE(d, src)
		d, src = d[j:], src[8*j:]
	}
	for len(d) >= 4 && len(src) >= 32 {
		w0, w1 := binary.BigEndian.Uint64(src[0:8]), binary.BigEndian.Uint64(src[8:16])
		w2, w3 := binary.BigEndian.Uint64(src[16:24]), binary.BigEndian.Uint64(src[24:32])
		if w0<<1 >= expOnes || w1<<1 >= expOnes || w2<<1 >= expOnes || w3<<1 >= expOnes {
			break
		}
		d[0], d[1] = math.Float64frombits(w0), math.Float64frombits(w1)
		d[2], d[3] = math.Float64frombits(w2), math.Float64frombits(w3)
		d, src = d[4:], src[32:]
	}
	for i := range d {
		bits := binary.BigEndian.Uint64(src[i*8 : i*8+8])
		if bits<<1 >= expOnes {
			at := base + len(dst) - len(d) + i
			return fmt.Errorf("emu: float payload coordinate %d = %v: %w", at, math.Float64frombits(bits), shard.ErrNonFinite)
		}
		d[i] = math.Float64frombits(bits)
	}
	return nil
}

// encodeHello builds a hello payload. A client sending raw float64 updates
// uses the 4-byte v1 form; a client with a codec appends the v2 extension —
// version tag, spec length, and the codec's self-describing wire spec
// (compress.AppendSpec) — negotiating the codec once per connection so
// update frames never repeat codec metadata.
func encodeHello(clientID int, codecSpec []byte) []byte {
	if len(codecSpec) == 0 {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(clientID))
		return b[:]
	}
	buf := make([]byte, 7+len(codecSpec))
	binary.BigEndian.PutUint32(buf[:4], uint32(clientID))
	buf[4] = helloV2
	binary.BigEndian.PutUint16(buf[5:7], uint16(len(codecSpec)))
	copy(buf[7:], codecSpec)
	return buf
}

// decodeHello parses either hello form; codecSpec is nil for a v1 (raw)
// client.
func decodeHello(p []byte) (clientID int, codecSpec []byte, err error) {
	if len(p) == 4 {
		return int(binary.BigEndian.Uint32(p)), nil, nil
	}
	if len(p) < 7 {
		return 0, nil, fmt.Errorf("emu: hello payload has %d bytes, want 4 or >= 7", len(p))
	}
	if p[4] != helloV2 {
		return 0, nil, fmt.Errorf("emu: hello version %d, want %d", p[4], helloV2)
	}
	n := int(binary.BigEndian.Uint16(p[5:7]))
	if len(p) != 7+n || n == 0 {
		return 0, nil, fmt.Errorf("emu: hello spec has %d bytes, header claims %d", len(p)-7, n)
	}
	return int(binary.BigEndian.Uint32(p[:4])), p[7:], nil
}

// appendFrameHeader appends the header of a frame of the given kind whose
// payload is n bytes long.
func appendFrameHeader(buf []byte, kind byte, n int) []byte {
	return append(binary.BigEndian.AppendUint32(buf, uint32(n)), kind)
}

// appendModelFrame appends a whole model-broadcast frame to buf: the frame
// header, then the payload (round, dim, params).
func appendModelFrame(buf []byte, round int, params []float64) []byte {
	buf = appendFrameHeader(buf, msgModel, 8+8*len(params))
	buf = binary.BigEndian.AppendUint32(buf, uint32(round))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(params)))
	return putFloats(buf, params)
}

// malformedFrame marks a frame that arrived whole but cannot be accepted.
// Unlike a transport error, reconnecting cannot cure it.
type malformedFrame struct{ err error }

func (e malformedFrame) Error() string { return e.err.Error() }
func (e malformedFrame) Unwrap() error { return e.err }

// readModel streams the n-byte payload of a model frame from r into params,
// which must have the model's dimension: the round and dim, then the
// parameters, read a chunk at a time (len(chunk) is a multiple of 8, at
// least 8) and decoded straight into params. It returns I/O errors as they
// come; a payload that disagrees with len(params), or that carries a NaN or
// ±Inf, is a malformedFrame.
func readModel(r io.Reader, n int, params []float64, chunk []byte) (round int, err error) {
	if n < 8 {
		return 0, malformedFrame{fmt.Errorf("emu: model payload has %d bytes, want >= 8", n)}
	}
	head := chunk[:8]
	if _, err := io.ReadFull(r, head); err != nil {
		return 0, fmt.Errorf("emu: read model: %w", err)
	}
	round = int(binary.BigEndian.Uint32(head[:4]))
	if dim := int(binary.BigEndian.Uint32(head[4:8])); dim != len(params) || n-8 != 8*dim {
		return round, malformedFrame{fmt.Errorf("emu: round %d model has %d params in %d bytes, local model %d", round, dim, n-8, len(params))}
	}
	step := len(chunk) / 8
	for at := 0; at < len(params); at += step {
		part := params[at:min(at+step, len(params))]
		b := chunk[:8*len(part)]
		if _, err := io.ReadFull(r, b); err != nil {
			return round, fmt.Errorf("emu: read model: %w", err)
		}
		if err := decodeFloats(part, b, at); err != nil {
			return round, malformedFrame{err}
		}
	}
	return round, nil
}

// replyHeaderSize is the fixed prefix of the update kinds: clientID, round,
// relevance, loss, dim. A skip is its first skipSize bytes.
const (
	replyHeaderSize = 28
	skipSize        = 24
)

// replyHeader is that prefix. relevance (Eq. 9 of the update against the
// client's feedback, NaN before it has one) and loss (its mean local
// training loss) are diagnostics: the server averages them and checks
// nothing, so a NaN or an infinity there costs the round nothing but its
// means.
type replyHeader struct {
	client, round   int
	relevance, loss float64
	dim             int // an update's; a skip carries none
}

// put fills an uplink reply's fixed prefix; a skip notification uses its
// first skipSize bytes.
func (h *replyHeader) put(b *[replyHeaderSize]byte) {
	binary.BigEndian.PutUint32(b[:4], uint32(h.client))
	binary.BigEndian.PutUint32(b[4:8], uint32(h.round))
	binary.BigEndian.PutUint64(b[8:16], math.Float64bits(h.relevance))
	binary.BigEndian.PutUint64(b[16:24], math.Float64bits(h.loss))
	binary.BigEndian.PutUint32(b[24:28], uint32(h.dim))
}

// getReplyHeader parses the first n bytes of p, skipSize or replyHeaderSize,
// as a reply's fixed prefix.
func getReplyHeader(p []byte, n int) (replyHeader, error) {
	if len(p) < n {
		return replyHeader{}, fmt.Errorf("emu: reply payload has %d bytes, want >= %d", len(p), n)
	}
	dim := 0
	if n == replyHeaderSize {
		dim = int(binary.BigEndian.Uint32(p[24:28]))
	}
	return replyHeader{
		client:    int(binary.BigEndian.Uint32(p[:4])),
		round:     int(binary.BigEndian.Uint32(p[4:8])),
		relevance: math.Float64frombits(binary.BigEndian.Uint64(p[8:16])),
		loss:      math.Float64frombits(binary.BigEndian.Uint64(p[16:24])),
		dim:       dim,
	}, nil
}

// decodeUpdate parses a raw update, decoding the delta into dst's capacity.
func decodeUpdate(dst []float64, p []byte) (replyHeader, []float64, error) {
	h, err := getReplyHeader(p, replyHeaderSize)
	if err != nil {
		return h, dst, err
	}
	delta, err := getFloats(dst, p[replyHeaderSize:], h.dim)
	return h, delta, err
}

// decodeSkip parses the skip-notification payload: clientID, round,
// relevance, loss. This is the paper's "status information" whose size is
// negligible next to a full update.
func decodeSkip(p []byte) (replyHeader, error) {
	if len(p) != skipSize {
		return replyHeader{}, fmt.Errorf("emu: skip payload has %d bytes, want %d", len(p), skipSize)
	}
	return getReplyHeader(p, skipSize)
}

// decodeUpdate2 parses a msgUpdate2 payload, which a client that negotiated
// a codec in its hello (wire v2) sends: the reply header and the codec's
// payload, which the result aliases. No codec metadata travels per frame, so
// the wire cost is exactly header + codec bytes: the bit-reduction of the
// paper's related work measured on a real wire.
func decodeUpdate2(p []byte) (replyHeader, []byte, error) {
	h, err := getReplyHeader(p, replyHeaderSize)
	if err != nil {
		return h, nil, err
	}
	return h, p[replyHeaderSize:], nil
}

// parseReplyHeader reads the (clientID, round) prefix shared by every
// uplink reply kind (msgUpdate, msgUpdate2, msgSkip) without materializing
// the body. The server classifies a frame against the round's quorum state
// first and decodes only accepted frames, so a late or duplicate frame can
// never touch the per-client decode scratch an accepted update aliases.
func parseReplyHeader(f *frame) (clientID, round int, err error) {
	switch f.kind {
	case msgUpdate, msgUpdate2, msgSkip:
	case msgUpdateCRetired:
		return 0, 0, errors.New("emu: received wire-v1 compressed update (kind 6); this server speaks wire v2 — negotiate the codec in the hello")
	default:
		return 0, 0, fmt.Errorf("emu: unexpected frame kind %d", f.kind)
	}
	if len(f.payload) < 8 {
		return 0, 0, fmt.Errorf("emu: frame kind %d reply payload has %d bytes, want >= 8", f.kind, len(f.payload))
	}
	return int(binary.BigEndian.Uint32(f.payload[:4])), int(binary.BigEndian.Uint32(f.payload[4:8])), nil
}
