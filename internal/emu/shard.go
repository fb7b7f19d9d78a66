package emu

import (
	"errors"
	"fmt"

	"cmfl/internal/compress"
	"cmfl/internal/emu/shard"
	"cmfl/internal/fl"
)

// replyMeta is the root-visible record of one accepted reply: the reply as
// fl.Aggregator reads it, its Bytes the paper-metric uplink cost (the
// payload, or the skip notice). The update's delta itself is NOT here:
// shards fold deltas into their exact partial sum as frames arrive, so
// per-shard memory stays flat in the client count.
type replyMeta struct {
	client  int
	reply   fl.Reply
	encoded bool
}

// shardPartial is one shard's gather outcome. The shard rewrites it every
// round; the root reads it between the join and the next round.
type shardPartial struct {
	replies       []replyMeta // accepted replies, in arrival order
	accepted      int
	expected      int // quorum expectation after promotions
	deadlineFired bool
	stragglers    []int // global client ids, ascending
	wire          int64
	late, dups    int
	faults        int
	dropped       []int // clients whose connection died this round
	err           error
}

// shardAgg is one shard aggregator: it owns the contiguous client range
// [lo, hi) and runs the quorum/straggler/fault machinery over it. Its
// gather is the only shard work; it runs on a goroutine of the root's
// round, which joins it before touching any field here.
type shardAgg struct {
	srv    *Server
	idx    int
	lo, hi int

	// events is the shard's reply queue: connection readers for owned
	// clients post here. A reader posts one frame and waits for its release
	// before reading the next, so two events per owned client (a frame and
	// a terminal error) fill it only when clients redial; a reader that
	// finds it full blocks, stalling its TCP stream.
	events chan connEvent

	q      *fl.Quorum // over local ids, client - lo
	acc    *shard.Accumulator
	decBuf []float64 // decoded values of one frame; folded before the next decode
	decIdx []uint32  // their coordinates, when the codec is sparse
	part   shardPartial
}

// newShardAgg wires one shard over its owned clients.
func newShardAgg(srv *Server, idx int, r shard.Range) *shardAgg {
	return &shardAgg{
		srv:    srv,
		idx:    idx,
		lo:     r.Lo,
		hi:     r.Hi,
		events: make(chan connEvent, 2*r.Len()),
		q:      fl.NewQuorum(r.Len()),
		acc:    shard.New(0),
	}
}

// post delivers a reader event into the shard's queue unless the server is
// shutting down, and reports whether it did.
func (a *shardAgg) post(ev connEvent) bool {
	select {
	case a.events <- ev:
		return true
	case <-a.srv.stop:
		return false
	}
}

// errServerClosed ends a round whose gather the server's teardown cut short.
var errServerClosed = errors.New("emu: server closed")

// gather consumes reader events for round t until every owned client the
// broadcast reached (expected, indexed from lo) replied, the deadline
// fires (the missing clients become stragglers — the GLOBAL quorum
// decision belongs to the root, which sums accepted counts across shards),
// or the server stops. Replies arriving for earlier rounds are drained and
// counted; duplicates are never aggregated twice. Accepted updates are
// folded into the exact partial sum immediately, so the shard never holds
// more than one decoded delta at a time. The outcome is left in a.part.
//
//cmfl:deterministic
func (a *shardAgg) gather(t, dim int, expected []bool) {
	p := &a.part
	*p = shardPartial{replies: p.replies[:0], stragglers: p.stragglers[:0], dropped: p.dropped[:0]}
	a.q.BeginRound(t, expected)
	a.acc.Reset(dim)
	timer := newTimer(a.srv.cfg.RoundDeadline)
	defer timer.Stop()
	for !a.q.Complete() {
		select {
		case ev := <-a.events:
			err := a.handleEvent(t, dim, &ev)
			if ev.release != nil {
				ev.release <- struct{}{}
			}
			if err != nil {
				p.err = err
				return
			}
		case <-timer.C():
			p.deadlineFired = true
			a.finish()
			return
		case <-a.srv.stop:
			p.err = errServerClosed
			return
		}
	}
	a.finish()
}

// finish seals a completed gather partial.
func (a *shardAgg) finish() {
	p := &a.part
	p.accepted = a.q.Accepted()
	p.expected = a.q.Expected()
	for _, i := range a.q.Stragglers() {
		p.stragglers = append(p.stragglers, a.lo+i)
	}
}

// fatalError marks errors that must abort the run even in fault-tolerant
// mode: they indicate misconfiguration, not a transport fault.
type fatalError struct{ err error }

func (e fatalError) Error() string { return e.err.Error() }
func (e fatalError) Unwrap() error { return e.err }

// handleEvent processes one reader event inside gather: parse only the
// (client, round) header, classify against the quorum state, and fold the
// full body for accepted frames alone. Late and duplicate frames are never
// decoded, so they cannot touch the decode scratch.
func (a *shardAgg) handleEvent(t, dim int, ev *connEvent) error {
	if ev.err != nil {
		return a.connDown(ev.client, ev.gen, ev.err)
	}
	id, r, err := parseReplyHeader(&ev.f)
	if err == nil && id != ev.client {
		err = fmt.Errorf("emu: connection of client %d delivered a frame claiming client %d", ev.client, id)
	}
	if err != nil {
		// A malformed or mis-attributed frame means the stream cannot be
		// trusted; kill the connection (the client may redial).
		return a.connDown(ev.client, ev.gen, a.frameErr(ev, err))
	}
	p := &a.part
	p.wire += ev.wire
	switch a.q.Classify(id-a.lo, r) {
	case fl.VerdictAccept:
		if err := a.fold(t, dim, &ev.f, id); err != nil {
			var fatal fatalError
			if errors.As(err, &fatal) {
				return fatal.err
			}
			return a.connDown(ev.client, ev.gen, a.frameErr(ev, err))
		}
	case fl.VerdictLate:
		p.late++
	case fl.VerdictDuplicate:
		p.dups++
	case fl.VerdictFuture:
		return a.connDown(ev.client, ev.gen,
			fmt.Errorf("emu: client %d answered future round %d during round %d", id, r, t))
	default: // fl.VerdictUnknown
		return a.connDown(ev.client, ev.gen,
			fmt.Errorf("emu: reply from unknown client %d", id))
	}
	return nil
}

// frameErr stamps a frame-decode failure with the offending kind byte and
// the connection generation it arrived on: a reconnecting client's stale
// generation and its live one produce distinguishable errors.
func (a *shardAgg) frameErr(ev *connEvent, err error) error {
	return fmt.Errorf("emu: shard %d: frame kind %d on client %d conn gen %d: %w",
		a.idx, ev.f.kind, ev.client, ev.gen, err)
}

// fold decodes one accepted uplink frame and folds it into the shard's
// exact partial sum (updates) or records it (skips). A compressed update
// decodes through the client's negotiated codec into the shard's scratch —
// a sparse codec to the coordinates that travelled, which alone are added,
// any other to a dense vector. The fold copies what it needs, so the
// scratch is free for the next frame. A non-finite value is a frame error
// like an undecodable payload: nothing of the update reaches the sum.
func (a *shardAgg) fold(t, dim int, f *frame, id int) error {
	var h replyHeader
	var err error
	m := replyMeta{client: id}
	switch f.kind {
	case msgUpdate:
		if h, a.decBuf, err = decodeUpdate(a.decBuf, f.payload); err != nil {
			return err
		}
		if len(a.decBuf) != dim {
			return fatalError{fmt.Errorf("emu: round %d client %d sent %d params, want %d", t, id, len(a.decBuf), dim)}
		}
		a.acc.Add(a.decBuf)
		m.reply = fl.Reply{Upload: true, Bytes: int64(dim) * 8}
	case msgUpdate2:
		var payload []byte
		if h, payload, err = decodeUpdate2(f.payload); err != nil {
			return err
		}
		codec := a.srv.clientCodec(id)
		if codec == nil {
			return fmt.Errorf("emu: client %d sent a compressed update without negotiating a codec", id)
		}
		if h.dim != dim {
			return fatalError{fmt.Errorf("emu: round %d client %d sent %d params, want %d", t, id, h.dim, dim)}
		}
		if sparse, ok := codec.(compress.SparseDecoder); ok {
			a.decIdx, a.decBuf, err = sparse.DecodeSparseInto(a.decIdx, a.decBuf, payload, h.dim)
			if err == nil {
				err = a.acc.AddSparse(a.decIdx, a.decBuf)
			}
		} else if a.decBuf, err = codec.DecodeInto(a.decBuf, payload, h.dim); err == nil {
			if err = shard.CheckFinite(a.decBuf); err == nil {
				a.acc.Add(a.decBuf)
			}
		}
		if err != nil {
			return fmt.Errorf("emu: client %d payload: %w", id, err)
		}
		m.reply, m.encoded = fl.Reply{Upload: true, Bytes: int64(len(payload))}, true
	case msgSkip:
		if h, err = decodeSkip(f.payload); err != nil {
			return err
		}
		m.reply = fl.Reply{Bytes: fl.SkipNotificationBytes}
	default:
		return fmt.Errorf("emu: unexpected frame kind %d", f.kind)
	}
	m.reply.Loss, m.reply.Relevance = h.loss, h.relevance
	a.part.replies = append(a.part.replies, m)
	return nil
}

// connDown routes a connection failure through the shard's fault tally: one
// fault per generation, a dropped record for the root, and an abort in
// strict mode.
func (a *shardAgg) connDown(id, gen int, cause error) error {
	if !a.srv.markDown(id, gen) {
		return nil
	}
	p := &a.part
	p.faults++
	p.dropped = append(p.dropped, id)
	if !a.srv.cfg.FaultTolerant {
		if cause == nil {
			cause = errors.New("connection down")
		}
		return clientError{client: id, err: cause}
	}
	return nil
}
