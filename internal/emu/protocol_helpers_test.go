package emu

import (
	"encoding/binary"
	"fmt"
	"io"
)

// The whole-payload forms of the wire codec. The peers stream models and
// updates through their own buffers; tests build and parse frames whole.

// readFrame receives one frame into a payload of its own.
func readFrame(r io.Reader) (*frame, error) {
	f, err := readFrameInto(r, nil, maxFrame)
	if err != nil {
		return nil, err
	}
	return &f, nil
}

// encodeModel builds a model-broadcast payload: round, dim, params.
func encodeModel(round int, params []float64) []byte {
	return appendModelFrame(nil, round, params)[frameOverhead:]
}

// decodeModel parses a model broadcast, the parameters into dst's capacity.
func decodeModel(dst []float64, p []byte) (round int, params []float64, err error) {
	if len(p) < 8 {
		return 0, dst, fmt.Errorf("emu: model payload has %d bytes, want >= 8", len(p))
	}
	round = int(binary.BigEndian.Uint32(p[:4]))
	dim := int(binary.BigEndian.Uint32(p[4:8]))
	params, err = getFloats(dst, p[8:], dim)
	return round, params, err
}

// encodeUpdate builds an update payload: clientID, round, relevance, loss,
// dim, delta.
func encodeUpdate(clientID, round int, relevance, loss float64, delta []float64) []byte {
	var b [replyHeaderSize]byte
	h := replyHeader{client: clientID, round: round, relevance: relevance, loss: loss, dim: len(delta)}
	h.put(&b)
	return putFloats(b[:], delta)
}

// encodeUpdate2 builds the msgUpdate2 payload: clientID, round, relevance,
// loss, dim, codec payload.
func encodeUpdate2(clientID, round int, relevance, loss float64, dim int, payload []byte) []byte {
	var b [replyHeaderSize]byte
	h := replyHeader{client: clientID, round: round, relevance: relevance, loss: loss, dim: dim}
	h.put(&b)
	return append(b[:], payload...)
}

// encodeSkip builds the skip-notification payload: clientID, round,
// relevance, loss.
func encodeSkip(clientID, round int, relevance, loss float64) []byte {
	var b [replyHeaderSize]byte
	h := replyHeader{client: clientID, round: round, relevance: relevance, loss: loss}
	h.put(&b)
	return b[:skipSize]
}
