package emu

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"cmfl/internal/compress"
	"cmfl/internal/xrand"
)

// TestDecodersNeverPanicOnGarbage feeds random byte soup into every decoder
// (the data arrives from the network, so robustness is mandatory) and
// checks that they return errors instead of panicking or fabricating data.
func TestDecodersNeverPanicOnGarbage(t *testing.T) {
	f := func(seed int64, lenRaw uint16) bool {
		rng := xrand.New(seed)
		n := int(lenRaw % 512)
		garbage := make([]byte, n)
		for i := range garbage {
			garbage[i] = byte(rng.Intn(256))
		}
		// None of these may panic. Errors are fine; a "successful" decode is
		// also fine when the garbage happens to be structurally valid.
		decodeHello(garbage)
		decodeModel(nil, garbage)
		decodeUpdate(nil, garbage)
		decodeSkip(garbage)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestReadFrameNeverPanicsOnGarbageStream pushes random bytes through the
// framing layer.
func TestReadFrameNeverPanicsOnGarbageStream(t *testing.T) {
	f := func(seed int64, lenRaw uint16) bool {
		rng := xrand.New(seed)
		n := int(lenRaw % 1024)
		garbage := make([]byte, n)
		for i := range garbage {
			garbage[i] = byte(rng.Intn(256))
		}
		r := bytes.NewReader(garbage)
		for {
			if _, err := readFrame(r); err != nil {
				break
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzProtocol is one of the native fuzz targets behind CI's fuzz-smoke
// step: raw bytes go through the framing layer and every decoder. Nothing
// may panic or allocate proportionally to a lying length field; returning
// an error is the correct answer for garbage. The package has two Fuzz*
// functions (see FuzzWireFloats), so `go test -fuzz` needs an anchored
// pattern selecting exactly one: `-fuzz '^FuzzProtocol$'`.
func FuzzProtocol(f *testing.F) {
	f.Add(encodeHello(3, nil))
	spec, err := compress.EncodeSpec(compress.NewChain(compress.TopK{K: 2}, compress.Uniform8{}))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeHello(3, spec))
	f.Add(encodeModel(7, []float64{1, 2, 3}))
	f.Add(encodeUpdate(1, 2, 0.5, 2.25, []float64{4, 5}))
	f.Add(encodeSkip(2, 9, 0.75, 2.25))
	f.Add(encodeUpdate2(1, 2, 0.5, 2.25, 4, []byte{1, 2, 3}))
	// A peer's relevance and loss are diagnostics the server never checks:
	// these headers decode whole.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(encodeUpdate(1, 2, bad, 2.25, []float64{4, 5}))
		f.Add(encodeUpdate(1, 2, 0.5, bad, []float64{4, 5}))
		f.Add(encodeUpdate2(1, 2, bad, bad, 4, []byte{1, 2, 3}))
		f.Add(encodeSkip(2, 9, bad, 2.25))
		f.Add(encodeSkip(2, 9, 0.75, bad))
	}

	// Injector-shaped corpus: the wire damage the fault classes actually
	// produce (see faults.go), so the fuzzer starts from realistic wrecks.
	mkFrame := func(kind byte, payload []byte) []byte {
		var buf bytes.Buffer
		if _, err := writeFrame(&buf, kind, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	full := mkFrame(msgUpdate, encodeUpdate(0, 3, 0.9, 2.25, []float64{1, -2, 3}))
	f.Add(full[:2]) // FaultDisconnect: truncated length prefix, stream ends
	oversize := append([]byte(nil), full...)
	oversize[0], oversize[1], oversize[2], oversize[3] = 0xFF, 0xFF, 0xFF, 0xFF
	f.Add(oversize) // FaultCorruptFrame: absurd declared length
	flipped := append([]byte(nil), full...)
	flipped[frameOverhead+8] ^= 0x40 // bit-flip inside the payload body
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeHello(data)
		decodeModel(nil, data)
		// A reply that decodes re-encodes to its own bytes, whatever its
		// header's diagnostics hold.
		if h, delta, err := decodeUpdate(nil, data); err == nil {
			if got := encodeUpdate(h.client, h.round, h.relevance, h.loss, delta); !bytes.HasPrefix(data, got) {
				t.Fatalf("update %x re-encodes to %x", data, got)
			}
		}
		if h, err := decodeSkip(data); err == nil {
			if got := encodeSkip(h.client, h.round, h.relevance, h.loss); !bytes.Equal(got, data) {
				t.Fatalf("skip %x re-encodes to %x", data, got)
			}
		}
		if h, payload, err := decodeUpdate2(data); err == nil {
			if got := encodeUpdate2(h.client, h.round, h.relevance, h.loss, h.dim, payload); !bytes.Equal(got, data) {
				t.Fatalf("update2 %x re-encodes to %x", data, got)
			}
		}
		for _, kind := range []byte{msgUpdate, msgUpdate2, msgSkip, msgUpdateCRetired} {
			parseReplyHeader(&frame{kind: kind, payload: data})
		}
		r := bytes.NewReader(data)
		for {
			if _, err := readFrame(r); err != nil {
				break
			}
		}
	})
}

// TestUpdateDecodeRejectsLyingDim guards against a malicious client
// declaring a huge dim with a short payload.
func TestUpdateDecodeRejectsLyingDim(t *testing.T) {
	p := encodeUpdate(1, 2, 0.5, 2.25, []float64{1, 2, 3})
	// Truncate the values but keep the declared dim.
	if _, _, err := decodeUpdate(nil, p[:len(p)-8]); err == nil {
		t.Fatal("expected error for short update payload")
	}
}
