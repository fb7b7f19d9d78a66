package fl

import (
	"fmt"

	"cmfl/internal/core"
	"cmfl/internal/dataset"
	"cmfl/internal/nn"
	"cmfl/internal/tensor"
	"cmfl/internal/xrand"
)

// ClientStep is the client half of Algorithm 1, written once for every
// engine (the loop behind Run and sim.Run, emu.RunClient, RunAsync and,
// after its own solver, mtl.Run): local solve, differential-privacy noise,
// the upload gate, then — for an upload — the error-feedback fold-in and the
// codec round trip. It holds what is the same for every client and round;
// the engine supplies the rest per call. Methods only read it, so one value
// serves all of an engine's goroutines.
type ClientStep struct {
	// Epochs, Batch and ProxMu parameterise the local solver (LocalTrainProx).
	Epochs int
	Batch  int
	ProxMu float64
	// DPClip and DPNoiseSigma are Config.DPClip / Config.DPNoiseSigma.
	DPClip       float64
	DPNoiseSigma float64
	// Filter gates uploads; it must be non-nil (Vanilla uploads everything).
	Filter UploadFilter
	// Compressor encodes uploads; nil uploads raw float64 vectors.
	Compressor UpdateCodec
}

// Broadcast is what the server hands every participant of one round.
type Broadcast struct {
	Round int
	LR    float64
	// Params is the global parameter vector the round starts from.
	Params []float64
	// Feedback is the latest non-empty global update (all zeros before the
	// first), and Signs its precomputed sign vector: nil exactly when
	// Feedback is all zeros, which every gate reads as "no feedback yet,
	// upload".
	Feedback []float64
	Signs    []int8
}

// Relevance is the Eq. 9 trace of delta against this round's feedback: NaN
// while no feedback exists. It is a diagnostic, independent of the gate's
// own metric (a Gaia or vanilla gate never computes it).
func (b *Broadcast) Relevance(delta []float64) float64 {
	if len(b.Signs) > 0 {
		if r, err := core.SignAgreement(delta, b.Signs); err == nil {
			return r
		}
	}
	return nan()
}

// Reply is one client's answer to a Broadcast.
type Reply struct {
	// Delta is the update. After Pack it is what the server will aggregate:
	// the codec's lossy reconstruction when a Compressor is set.
	Delta []float64
	// Loss is the mean local training loss.
	Loss float64
	// Relevance is the Eq. 9 trace of the update Train gated
	// (Broadcast.Relevance), whatever the gate decided on.
	Relevance float64
	// Bytes is the uplink cost, set by Pack: the encoded payload, 8 per
	// coordinate raw, SkipNotificationBytes for a withheld update.
	Bytes  int64
	Upload bool
}

// Scratch is the memory Train and Pack reuse between calls. The buffers grow
// on first use, so a raw client never allocates the codec's; one Scratch
// serves many clients in turn (a worker of the synchronous loop) as long as
// Residual is pointed at each client's own before Pack.
type Scratch struct {
	perm []int             // the solver's sample order for one epoch
	mb   dataset.Minibatch // and the minibatch gathered from it
	enc  []byte
	idx  []uint32  // a sparse codec's k coordinates
	vals []float64 // and their decoded values
	// Residual is one client's EF-SGD memory: what lossy compression has
	// discarded so far, dim-sized. Nil turns error feedback off.
	Residual []float64
}

// Train runs the local solver from the broadcast model on sc's buffers and
// gates the result into r, whose Delta buffer it reuses: a steady-state round
// allocates nothing. A caller that trains clients concurrently holds a
// local-round mark over its turns, so that their products are not split onto
// each other's cores (tensor.EnterLocalRound).
func (s *ClientStep) Train(sc *Scratch, net *nn.Network, data *dataset.Set, rng *xrand.Stream, b *Broadcast, r *Reply) error {
	delta, loss, err := solve(sc, net, data, b.Params, b.LR, s.Epochs, s.Batch, s.ProxMu, rng, r.Delta)
	if err != nil {
		return fmt.Errorf("local training: %w", err)
	}
	*r = Reply{Delta: delta, Loss: loss}
	return s.Gate(rng, b, r)
}

// Gate is what follows any local solve, nn or not: it privatizes r.Delta in
// place, then sets r's upload verdict and relevance trace. The order is the
// determinism contract: DP noise is drawn from rng after the solver's draws,
// and the gate and the relevance trace see the post-DP delta.
func (s *ClientStep) Gate(rng *xrand.Stream, b *Broadcast, r *Reply) error {
	privatize(r.Delta, s.DPClip, s.DPNoiseSigma, rng)
	dec, err := checkUpload(s.Filter, r.Delta, b.Params, b.Feedback, b.Signs, b.Round)
	if err != nil {
		return fmt.Errorf("filter: %w", err)
	}
	r.Relevance, r.Upload = b.Relevance(r.Delta), dec.Upload
	return nil
}

// Pack prices the reply and, for a compressed upload, runs the codec round
// trip: fold the delta into the EF residual (post-gate: the upload decision
// saw the raw delta), encode that sum, decode, keep residual = (delta +
// residual) − decoded, and leave the decoded update in r.Delta. A dense
// codec decodes straight into r.Delta, whose contents the payload has
// already captured; this relies on DecodeInto's contract of reusing a
// destination whose capacity suffices. A codec that offers the sparse view
// of its payload is decoded through it: the residual changes at the k
// coordinates that travelled and r.Delta is one clear plus k writes, never a
// dim-long decode and subtract. A withheld update leaves the residual
// untouched. The returned payload is the wire form of the upload; it aliases
// sc and is valid until sc is packed again. It is nil for a skip or a raw
// upload, and without a Compressor sc is not read and may be nil.
//
//cmfl:hotpath
func (s *ClientStep) Pack(sc *Scratch, r *Reply) ([]byte, error) {
	switch {
	case !r.Upload:
		r.Bytes = SkipNotificationBytes
		return nil, nil
	case s.Compressor == nil:
		r.Bytes = int64(len(r.Delta)) * 8
		return nil, nil
	}
	// Under error feedback the vector to encode is built in the residual's
	// buffer: subtracting what the codec kept then finishes the residual.
	send := r.Delta
	if sc.Residual != nil {
		tensor.Axpy(1, r.Delta, sc.Residual)
		send = sc.Residual
	}
	payload, err := s.Compressor.EncodeInto(sc.enc, send)
	if err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	sc.enc = payload
	sparse, isSparse := s.Compressor.(sparseDecoder)
	var dec []float64
	if isSparse {
		sc.idx, sc.vals, err = sparse.DecodeSparseInto(sc.idx, sc.vals, payload, len(r.Delta))
	} else {
		dec, err = s.Compressor.DecodeInto(r.Delta, payload, len(r.Delta))
	}
	switch {
	case err != nil:
		return nil, fmt.Errorf("decode: %w", err)
	case isSparse:
		clear(r.Delta)
		for n, j := range sc.idx {
			r.Delta[j] = sc.vals[n]
			if sc.Residual != nil {
				sc.Residual[j] -= sc.vals[n]
			}
		}
	case len(dec) > 0 && &dec[0] != &r.Delta[0]:
		return nil, fmt.Errorf("decode: %s did not decode into the update's buffer", s.Compressor.Name())
	case sc.Residual != nil:
		tensor.Axpy(-1, r.Delta, sc.Residual)
	}
	r.Bytes = int64(len(payload))
	return payload, nil
}

// privatize applies client-level differential privacy to an update in
// place: clip the L2 norm to clip (if positive), then add per-coordinate
// Gaussian noise with stddev sigma (if positive).
//
//cmfl:hotpath
func privatize(delta []float64, clip, sigma float64, rng *xrand.Stream) {
	if clip > 0 {
		if norm := tensor.Norm2(delta); norm > clip {
			tensor.ScaleVec(clip/norm, delta)
		}
	}
	if sigma > 0 {
		for j := range delta {
			delta[j] += sigma * rng.Norm()
		}
	}
}

// checkUpload routes the upload decision through the precomputed-sign fast
// path when the filter supports it, falling back to the general Check.
//
//cmfl:hotpath
func checkUpload(filter UploadFilter, delta, global, feedback []float64, feedbackSigns []int8, t int) (core.Decision, error) {
	if sc, ok := filter.(SignChecker); ok {
		if dec, handled, err := sc.CheckSigns(delta, feedbackSigns, t); handled || err != nil {
			return dec, err
		}
	}
	return filter.Check(delta, global, feedback, t)
}
