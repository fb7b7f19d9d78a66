package emu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"cmfl/internal/compress"
	"cmfl/internal/core"
	"cmfl/internal/dataset"
	"cmfl/internal/fl"
	"cmfl/internal/nn"
	"cmfl/internal/tensor"
	"cmfl/internal/xrand"
)

// ClientConfig describes one slave of the emulation.
type ClientConfig struct {
	// Addr of the server to connect to.
	Addr string
	// ID identifies this client in [0, Clients).
	ID int

	// Model builds the local model architecture (must match the server's).
	Model func() *nn.Network
	// Data is this client's private shard.
	Data *dataset.Set

	// Epochs (E) and Batch (B) control the local solver.
	Epochs int
	Batch  int
	// LR is the learning-rate schedule η_t.
	LR core.Schedule
	// Filter gates uploads; nil means vanilla (always upload).
	Filter fl.UploadFilter
	// Compressor lossily encodes uploads. Its wire spec is declared in the
	// hello (wire v2): a server with no codec adopts it, a server configured
	// with its own codec requires the specs to match byte-for-byte. Must be
	// one of the internal/compress codecs (the spec registry cannot describe
	// foreign implementations). Nil sends raw float64 updates.
	Compressor fl.UpdateCodec
	// ErrorFeedback accumulates the compression residual client-side
	// (EF-SGD): each upload encodes update+residual and keeps what the codec
	// discarded for the next round. Residuals are untouched on skipped
	// rounds. Ignored when Compressor is nil.
	ErrorFeedback bool

	// Seed drives the client's batch shuffling; the reconnect jitter uses a
	// separate stream derived from the same seed, so fault timing never
	// perturbs the training draws.
	Seed int64
	// DialTimeout bounds the initial connect and each redial (default 30s).
	DialTimeout time.Duration
	// RoundTimeout bounds any single read/write (default 120s).
	RoundTimeout time.Duration

	// Faults injects this client's share of a deterministic FaultPlan into
	// the connection's write path; nil runs fault-free. A non-nil plan
	// implies Reconnect.
	Faults *FaultPlan
	// Reconnect redials with capped exponential backoff after a connection
	// failure, re-greets, and resends the reply that was in flight (the
	// server deduplicates). Off by default to keep strict tests strict.
	Reconnect bool
	// MaxRedials bounds consecutive failed dial attempts per recovery, and
	// the number of recovery cycles without an intervening successful read
	// (default 5).
	MaxRedials int
	// BackoffBase / BackoffMax shape the reconnect backoff: attempt k waits
	// min(BackoffBase<<k, BackoffMax) scaled by a jitter factor in
	// [0.5, 1.5) drawn from (Seed, "emu-backoff", ID). Defaults 10ms / 1s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

// ClientResult summarises one client's participation.
type ClientResult struct {
	Rounds   int
	Uploads  int
	Skips    int
	SentWire int64 // bytes this client wrote on the wire (hellos + updates/skips)
	// Reconnects counts successful redial+hello recoveries.
	Reconnects int
	// FaultsInjected counts FaultPlan entries this client executed.
	FaultsInjected int
}

// RunClient connects to the server and participates until the server sends
// the done message. It derives the feedback update locally from two
// consecutive model broadcasts — no extra downlink traffic, as in the paper.
//
//cmfl:deterministic
func RunClient(cfg ClientConfig) (*ClientResult, error) {
	if err := validateClient(&cfg); err != nil {
		return nil, err
	}
	step := fl.ClientStep{Epochs: cfg.Epochs, Batch: cfg.Batch, Filter: cfg.Filter, Compressor: cfg.Compressor}
	if step.Filter == nil {
		step.Filter = fl.Vanilla{}
	}
	res := &ClientResult{}
	sess := &clientSession{
		cfg:   &cfg,
		res:   res,
		inj:   newFaultInjector(cfg.Faults, cfg.ID),
		rng:   xrand.Derive(cfg.Seed, "emu-backoff", cfg.ID),
		chunk: make([]byte, chunkSize),
	}
	if cfg.Compressor != nil {
		spec, err := compress.EncodeSpec(cfg.Compressor)
		if err != nil {
			return nil, fmt.Errorf("emu: client %d codec: %w", cfg.ID, err)
		}
		sess.spec = spec
	}
	if err := sess.connect(); err != nil {
		return nil, err
	}
	defer sess.close()

	network := cfg.Model()
	rng := fl.ClientStream(cfg.Seed, cfg.ID)

	dim := network.NumParams()

	// Pack's payload aliases scratch, and the pending reply refers to it
	// rather than copying it: the next Pack comes only after the reply was
	// written.
	var scratch fl.Scratch
	if cfg.Compressor != nil && cfg.ErrorFeedback {
		scratch.Residual = make([]float64, dim)
	}

	// Feedback is the previous global update, reconstructed as the difference
	// between consecutive broadcasts (Sec. IV-A). x_t − x_{t−1} is computed
	// in place over x_{t−1}, whose buffer is free once x_t has arrived, in
	// the same sweep that takes its signs and tests it for zero. It replaces
	// the feedback only when non-zero: a fully skipped round leaves the model
	// unchanged and carries no new direction information. signs is replaced
	// with it and nil until then. The buffer that swap retires — the old
	// feedback, or the zero difference — receives the next broadcast: model,
	// predecessor and feedback rotate over three buffers, the sign vectors
	// over two. Every client takes the signs, gated or not: its reply
	// carries the Eq. 9 trace. The retired buffer also holds the round's
	// update, which the pending reply refers to, until the next broadcast
	// lands in it, so the update costs the client no buffer of its own.
	feedback := make([]float64, dim)
	var prevParams, spare []float64
	var signs, spareSigns []int8
	for {
		if spare == nil {
			spare = make([]float64, dim)
		}
		kind, round, err := sess.nextFrame(spare)
		if err != nil {
			return nil, fmt.Errorf("emu: client %d receive: %w", cfg.ID, err)
		}
		switch kind {
		case msgDone:
			res.FaultsInjected = sess.faultsInjected()
			return res, nil
		case msgModel:
			params := spare
			spare = prevParams
			if prevParams != nil {
				var nonZero bool
				spareSigns, nonZero = core.DiffSignsInto(spareSigns[:0], prevParams, params)
				if nonZero {
					feedback, spare = prevParams, feedback
					signs, spareSigns = spareSigns, signs
				}
			}
			prevParams = params

			sess.inj.beginRound(round)
			b := fl.Broadcast{Round: round, LR: cfg.LR.At(round), Params: params, Feedback: feedback, Signs: signs}
			r := fl.Reply{Delta: spare}
			// Emulated clients share one process: each solve holds a core of its own.
			tensor.EnterLocalRound()
			err = step.Train(&scratch, network, cfg.Data, rng, &b, &r)
			tensor.LeaveLocalRound()
			if err != nil {
				return nil, fmt.Errorf("emu: client %d %w", cfg.ID, err)
			}
			payload, err := step.Pack(&scratch, &r)
			if err != nil {
				return nil, fmt.Errorf("emu: client %d %w", cfg.ID, err)
			}
			h := replyHeader{client: cfg.ID, round: round, relevance: r.Relevance, loss: r.Loss, dim: len(r.Delta)}
			switch {
			case !r.Upload:
				sess.stage(msgSkip, h, nil, nil)
				res.Skips++
			case step.Compressor != nil:
				sess.stage(msgUpdate2, h, r.Delta, payload)
				res.Uploads++
			default:
				sess.stage(msgUpdate, h, r.Delta, nil)
				res.Uploads++
			}
			spare = r.Delta
			if err := sess.flush(); err != nil {
				return nil, fmt.Errorf("emu: client %d send round %d: %w", cfg.ID, round, err)
			}
			res.Rounds++
		default:
			return nil, fmt.Errorf("emu: client %d: unexpected frame kind %d on conn gen %d", cfg.ID, kind, sess.res.Reconnects)
		}
	}
}

// chunkSize is the client's I/O unit, a multiple of 8: a model is read and
// decoded, and a raw update encoded and written, this many bytes at a time.
const chunkSize = 256 << 10

// pendingReply is the round's reply, held until a write of it succeeds so a
// reconnect can resend it (at-least-once; the server deduplicates). It refers
// to the reply's body instead of copying it: the delta, encoded as it is
// written, or Pack's payload. Both stay untouched until the next broadcast,
// and a reply is written, or given up, before that arrives.
type pendingReply struct {
	kind  byte // 0: nothing pending
	head  [replyHeaderSize]byte
	delta []float64 // msgUpdate's body
	body  []byte    // msgUpdate2's body
}

// clientSession owns the client's connection lifecycle: dial, hello,
// injector wrapping, and reconnect-with-resend.
type clientSession struct {
	cfg  *ClientConfig
	res  *ClientResult
	inj  *faultInjector
	rng  *xrand.Stream // backoff jitter — separate from the training stream
	spec []byte        // codec wire spec declared in every hello; nil = raw

	conn    net.Conn // injector-wrapped
	pending pendingReply
	// chunk carries every model frame in and every reply frame out, one
	// piece at a time; reads and writes alternate, so one buffer serves both.
	chunk []byte
}

func (s *clientSession) close() {
	if s.conn != nil {
		closeQuietly(s.conn)
	}
}

func (s *clientSession) faultsInjected() int {
	if s.inj == nil {
		return 0
	}
	return s.inj.injected
}

// connect dials and greets for the first time.
func (s *clientSession) connect() error {
	conn, err := net.DialTimeout("tcp", s.cfg.Addr, s.cfg.DialTimeout)
	if err != nil {
		return fmt.Errorf("emu: dial %s: %w", s.cfg.Addr, err)
	}
	s.conn = s.inj.wrap(conn)
	return s.hello()
}

// hello introduces this client on the current connection.
func (s *clientSession) hello() error {
	// I/O deadline only; read through the package clock hook.
	if err := s.conn.SetWriteDeadline(now().Add(s.cfg.RoundTimeout)); err != nil {
		return err
	}
	n, err := writeFrame(s.conn, msgHello, encodeHello(s.cfg.ID, s.spec))
	if err != nil {
		return err
	}
	s.res.SentWire += n
	return nil
}

// stage records the round's reply for flush (and any resend after a fault).
// delta is the update of a msgUpdate or msgUpdate2; body is msgUpdate2's
// codec payload.
func (s *clientSession) stage(kind byte, h replyHeader, delta []float64, body []byte) {
	s.pending = pendingReply{kind: kind, body: body}
	h.put(&s.pending.head)
	if kind == msgUpdate {
		s.pending.delta = delta
	}
}

// flush writes the staged reply, recovering the connection on failure.
func (s *clientSession) flush() error {
	for cycle := 0; ; cycle++ {
		err := s.writePending()
		if err == nil {
			return nil
		}
		if rerr := s.recover(err, cycle); rerr != nil {
			return rerr
		}
	}
}

// writePending sends the staged reply on the current connection as one
// frame, a chunk per write: the frame header and the reply header lead the
// first chunk, a raw delta is encoded into the chunk as it goes, a codec
// payload copied. The stage is cleared only on success.
func (s *clientSession) writePending() error {
	p := &s.pending
	if p.kind == 0 {
		return nil
	}
	// I/O deadline only; read through the package clock hook.
	if err := s.conn.SetWriteDeadline(now().Add(s.cfg.RoundTimeout)); err != nil {
		return err
	}
	head := p.head[:]
	if p.kind == msgSkip {
		head = head[:skipSize]
	}
	size := len(head) + 8*len(p.delta) + len(p.body)
	buf := binary.BigEndian.AppendUint32(s.chunk[:0], uint32(size))
	buf = append(append(buf, p.kind), head...)
	delta, body := p.delta, p.body
	for {
		if k := min((cap(buf)-len(buf))/8, len(delta)); k > 0 {
			buf, delta = putFloats(buf, delta[:k]), delta[k:]
		}
		if k := min(cap(buf)-len(buf), len(body)); k > 0 {
			buf, body = append(buf, body[:k]...), body[k:]
		}
		if _, err := s.conn.Write(buf); err != nil {
			return fmt.Errorf("emu: write frame: %w", err)
		}
		if len(delta) == 0 && len(body) == 0 {
			break
		}
		buf = s.chunk[:0]
	}
	s.res.SentWire += int64(frameOverhead + size)
	p.kind = 0
	return nil
}

// nextFrame reads the next server frame, transparently recovering the
// connection (and resending any pending reply) when reconnection is on. A
// model frame is decoded into params, which has the model's dimension, and
// its round returned; any other frame is returned by kind alone, since the
// only other frame a server sends, done, carries nothing. A model frame that
// arrives whole but cannot be accepted is an error no reconnect cures.
func (s *clientSession) nextFrame(params []float64) (kind byte, round int, err error) {
	for cycle := 0; ; cycle++ {
		// I/O deadline only; read through the package clock hook.
		err = s.conn.SetReadDeadline(now().Add(s.cfg.RoundTimeout))
		if err == nil {
			var n int
			if n, kind, err = readHeader(s.conn, s.chunk[:frameOverhead], maxFrame); err == nil && kind == msgModel {
				round, err = readModel(s.conn, n, params, s.chunk)
			}
			if err == nil {
				return kind, round, nil
			}
			var bad malformedFrame
			if errors.As(err, &bad) {
				return kind, round, fmt.Errorf("frame kind %d on conn gen %d: %w", kind, s.res.Reconnects, err)
			}
		}
		if rerr := s.recover(err, cycle); rerr != nil {
			return 0, 0, rerr
		}
	}
}

// recover redials with capped exponential backoff and jitter, re-greets,
// and resends the pending reply. cycle caps repeated recoveries without an
// intervening successful operation.
func (s *clientSession) recover(cause error, cycle int) error {
	if !s.cfg.Reconnect || cycle >= s.cfg.MaxRedials {
		return cause
	}
	closeQuietly(s.conn)
	// A crash fault's downtime is served before the first redial attempt.
	if d := s.inj.takeRejoinDelay(); d > 0 {
		sleep(d)
	}
	lastErr := cause
	for attempt := 0; attempt < s.cfg.MaxRedials; attempt++ {
		sleep(s.backoff(attempt))
		conn, err := net.DialTimeout("tcp", s.cfg.Addr, s.cfg.DialTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		s.conn = s.inj.wrap(conn)
		if err := s.hello(); err != nil {
			lastErr = err
			closeQuietly(s.conn)
			continue
		}
		s.res.Reconnects++
		if s.pending.kind != 0 {
			if err := s.writePending(); err != nil {
				lastErr = err
				closeQuietly(s.conn)
				continue
			}
		}
		return nil
	}
	return fmt.Errorf("emu: client %d reconnect gave up after %d attempts: %w",
		s.cfg.ID, s.cfg.MaxRedials, errors.Join(cause, lastErr))
}

// backoff is the capped exponential delay before dial attempt k, jittered
// by the session's seeded stream.
func (s *clientSession) backoff(attempt int) time.Duration {
	d := s.cfg.BackoffBase
	for i := 0; i < attempt && d < s.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > s.cfg.BackoffMax {
		d = s.cfg.BackoffMax
	}
	return time.Duration(float64(d) * (0.5 + s.rng.Float64()))
}

func validateClient(cfg *ClientConfig) error {
	switch {
	case cfg.Addr == "":
		return errors.New("emu: client Addr is required")
	case cfg.ID < 0:
		return errors.New("emu: client ID must be non-negative")
	case cfg.Model == nil:
		return errors.New("emu: client Model factory is required")
	case cfg.Data == nil || cfg.Data.Len() == 0:
		return errors.New("emu: client Data is required")
	case cfg.Epochs <= 0:
		return errors.New("emu: client Epochs must be positive")
	case cfg.Batch <= 0:
		return errors.New("emu: client Batch must be positive")
	case cfg.LR == nil:
		return errors.New("emu: client LR schedule is required")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 30 * time.Second
	}
	if cfg.RoundTimeout <= 0 {
		cfg.RoundTimeout = 120 * time.Second
	}
	if cfg.Faults != nil {
		cfg.Reconnect = true
	}
	if cfg.MaxRedials <= 0 {
		cfg.MaxRedials = 5
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 10 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = time.Second
	}
	return nil
}
