package emu

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"cmfl/internal/compress"
	"cmfl/internal/emu/shard"
	"cmfl/internal/fl"
)

// Directive kinds the root sends down the tree. Each directive produces
// exactly one shardPartial, so the root's alternating direct/collect per
// phase can never deadlock.
const (
	dirBroadcast = iota // write the round's model to the shard's live clients
	dirGather           // drain replies until local completion or deadline
	dirDone             // best-effort final done frame
)

// shardDirective is one phase order from the root to a shard aggregator.
type shardDirective struct {
	kind  int
	round int
	frame []byte // whole model frame, header included (dirBroadcast)
	dim   int    // model dimension (dirGather)
}

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

// droppedClient records one connection death for the root's DroppedClients
// map (first failing round wins there).
type droppedClient struct{ id, round int }

// shardPartial is a shard's answer to one directive.
type shardPartial struct {
	// Broadcast phase.
	expected int   // own clients the model write reached
	sent     int64 // downlink wire bytes written

	// Gather phase. sum aliases the shard's accumulator; the root consumes
	// it before issuing the next directive (strict phase alternation).
	sum           *shard.Accumulator
	replies       []replyMeta // accepted replies, in arrival order
	accepted      int
	expectedEnd   int // quorum expectation after promotions
	deadlineFired bool
	stragglers    []int
	wire          int64
	late, dups    int

	// Both phases.
	faults  int
	dropped []droppedClient
	err     error
}

// shardAgg is one shard aggregator: it owns a fixed ascending set of
// clients and runs the quorum/straggler/fault machinery over them locally,
// one phase per directive. All mutable fields below the channels are
// touched only by the shard's own goroutine (run); everything the root
// needs crosses back through the parts channel.
type shardAgg struct {
	srv         *Server
	idx         int
	clients     []int // owned client ids, ascending
	deadline    time.Duration
	localQuorum int // per-shard reply floor (0 = none; global quorum is the root's)

	// events is the shard's reply queue: connection readers for owned
	// clients post here. A reader posts one frame and waits for its release
	// before reading the next, so two events per owned client (a frame and
	// a terminal error) fill it only when clients redial; a reader that
	// finds it full blocks, stalling its TCP stream.
	events chan connEvent
	dirs   chan shardDirective
	parts  chan *shardPartial

	q        *fl.Quorum
	acc      *shard.Accumulator
	decBuf   []float64 // decoded values of one frame; folded before the next decode
	decIdx   []uint32  // their coordinates, when the codec is sparse
	expected []bool    // last broadcast outcome, indexed by global client id
}

// newShardAgg wires one shard over its owned clients.
func newShardAgg(srv *Server, idx int, clients []int, deadline time.Duration, localQuorum int) *shardAgg {
	return &shardAgg{
		srv:         srv,
		idx:         idx,
		clients:     clients,
		deadline:    deadline,
		localQuorum: localQuorum,
		events:      make(chan connEvent, 2*len(clients)),
		dirs:        make(chan shardDirective, 1),
		parts:       make(chan *shardPartial, 1),
		q:           fl.NewQuorum(srv.cfg.Clients),
		acc:         shard.New(0),
		expected:    make([]bool, srv.cfg.Clients),
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

// direct hands the shard its next phase order.
func (a *shardAgg) direct(d shardDirective) error {
	select {
	case a.dirs <- d:
		return nil
	case <-a.srv.stop:
		return errors.New("emu: server closed")
	}
}

// collect retrieves the shard's answer to the last directive.
func (a *shardAgg) collect() (*shardPartial, error) {
	select {
	case p := <-a.parts:
		return p, nil
	case <-a.srv.stop:
		return nil, errors.New("emu: server closed")
	}
}

// run is the shard goroutine: one partial per directive until the server
// stops.
func (a *shardAgg) run() {
	for {
		select {
		case <-a.srv.stop:
			return
		case d := <-a.dirs:
			var p *shardPartial
			switch d.kind {
			case dirBroadcast:
				p = a.broadcast(d)
			case dirGather:
				p = a.gather(d)
			case dirDone:
				p = a.done(d)
			default:
				// An unknown directive means the root and this aggregator
				// disagree about the protocol; answering with a partial would
				// desynchronize the strict phase alternation.
				p = &shardPartial{err: fmt.Errorf("emu: shard %d: unknown directive kind %d in round %d", a.idx, d.kind, d.round)}
			}
			select {
			case a.parts <- p:
			case <-a.srv.stop:
				return
			}
		}
	}
}

// broadcast writes the round's model frame to the shard's live clients in
// parallel and records which of them now owe a reply.
//
//cmfl:deterministic
func (a *shardAgg) broadcast(d shardDirective) *shardPartial {
	p := &shardPartial{}
	targets := a.srv.liveTargetsOf(a.clients)
	var wg sync.WaitGroup
	errs := make([]error, len(targets))
	var sent int64
	var mu sync.Mutex
	for li, tgt := range targets {
		wg.Add(1)
		go func(li int, conn net.Conn) {
			defer wg.Done()
			// I/O deadline only; read through the package clock hook, and
			// wall-clock never enters aggregation.
			if err := conn.SetWriteDeadline(now().Add(a.srv.cfg.RoundTimeout)); err != nil {
				errs[li] = err
				return
			}
			if _, err := conn.Write(d.frame); err != nil {
				errs[li] = fmt.Errorf("emu: write model frame: %w", err)
				return
			}
			mu.Lock()
			sent += int64(len(d.frame))
			mu.Unlock()
		}(li, tgt.conn)
	}
	wg.Wait()
	p.sent = sent
	for i := range a.expected {
		a.expected[i] = false
	}
	for li, tgt := range targets {
		if errs[li] == nil {
			a.expected[tgt.id] = true
			p.expected++
			continue
		}
		if a.srv.markDown(tgt.id, tgt.gen) {
			p.faults++
			p.dropped = append(p.dropped, droppedClient{id: tgt.id, round: d.round})
			if !a.srv.cfg.FaultTolerant {
				p.err = clientError{client: tgt.id, err: errs[li]}
				return p
			}
		}
	}
	return p
}

// done writes the final done frame to the shard's live clients,
// best-effort: a failure here carries no information the aggregate depends
// on, and counting it as a fault would make the counters hostage to
// teardown races.
func (a *shardAgg) done(shardDirective) *shardPartial {
	p := &shardPartial{}
	targets := a.srv.liveTargetsOf(a.clients)
	var wg sync.WaitGroup
	var sent int64
	var mu sync.Mutex
	for _, tgt := range targets {
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			// I/O deadline only; read through the package clock hook.
			if err := conn.SetWriteDeadline(now().Add(a.srv.cfg.RoundTimeout)); err != nil {
				return
			}
			if n, err := writeFrame(conn, msgDone, nil); err == nil {
				mu.Lock()
				sent += n
				mu.Unlock()
			}
		}(tgt.conn)
	}
	wg.Wait()
	p.sent = sent
	return p
}

// gather consumes reader events until every expected owned client replied
// or the shard's deadline fires (the missing clients become stragglers —
// the GLOBAL quorum decision belongs to the root, which sums accepted
// counts across shards). Replies arriving for earlier rounds are drained
// and counted; duplicates are never aggregated twice. Accepted updates are
// folded into the exact partial sum immediately, so the shard never holds
// more than one decoded delta at a time.
//
//cmfl:deterministic
func (a *shardAgg) gather(d shardDirective) *shardPartial {
	a.q.BeginRound(d.round, a.expected)
	a.acc.Reset(d.dim)
	p := &shardPartial{sum: a.acc}
	timer := newTimer(a.deadline)
	defer timer.Stop()
	for !a.q.Complete() {
		select {
		case ev := <-a.events:
			err := a.handleEvent(d, &ev, p)
			if ev.release != nil {
				ev.release <- struct{}{}
			}
			if err != nil {
				p.err = err
				return p
			}
		case <-timer.C():
			p.deadlineFired = true
			if a.localQuorum > 0 && a.q.Accepted() < a.localQuorum {
				p.err = fmt.Errorf("emu: shard %d quorum not met at deadline %v: %d of %d replies (minimum %d)",
					a.idx, a.deadline, a.q.Accepted(), a.q.Expected(), a.localQuorum)
				return p
			}
			a.finish(p)
			return p
		}
	}
	a.finish(p)
	return p
}

// finish seals a completed gather partial.
func (a *shardAgg) finish(p *shardPartial) {
	p.accepted = a.q.Accepted()
	p.expectedEnd = a.q.Expected()
	p.stragglers = a.q.Stragglers()
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
func (a *shardAgg) handleEvent(d shardDirective, ev *connEvent, p *shardPartial) error {
	if ev.err != nil {
		return a.connDown(ev.client, ev.gen, d.round, ev.err, p)
	}
	id, r, err := parseReplyHeader(&ev.f)
	if err == nil && id != ev.client {
		err = fmt.Errorf("emu: connection of client %d delivered a frame claiming client %d", ev.client, id)
	}
	if err != nil {
		// A malformed or mis-attributed frame means the stream cannot be
		// trusted; kill the connection (the client may redial).
		return a.connDown(ev.client, ev.gen, d.round, a.frameErr(ev, err), p)
	}
	p.wire += ev.wire
	switch a.q.Classify(id, r) {
	case fl.VerdictAccept:
		if err := a.fold(d, &ev.f, id, p); err != nil {
			var fatal fatalError
			if errors.As(err, &fatal) {
				return fatal.err
			}
			return a.connDown(ev.client, ev.gen, d.round, a.frameErr(ev, err), p)
		}
	case fl.VerdictLate:
		p.late++
	case fl.VerdictDuplicate:
		p.dups++
	case fl.VerdictFuture:
		return a.connDown(ev.client, ev.gen, d.round,
			fmt.Errorf("emu: client %d answered future round %d during round %d", id, r, d.round), p)
	default: // fl.VerdictUnknown
		return a.connDown(ev.client, ev.gen, d.round,
			fmt.Errorf("emu: reply from unknown client %d", id), p)
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
func (a *shardAgg) fold(d shardDirective, f *frame, id int, p *shardPartial) error {
	var h replyHeader
	var err error
	m := replyMeta{client: id}
	switch f.kind {
	case msgUpdate:
		if h, a.decBuf, err = decodeUpdate(a.decBuf, f.payload); err != nil {
			return err
		}
		if len(a.decBuf) != d.dim {
			return fatalError{fmt.Errorf("emu: round %d client %d sent %d params, want %d", d.round, id, len(a.decBuf), d.dim)}
		}
		a.acc.Add(a.decBuf)
		m.reply = fl.Reply{Upload: true, Bytes: int64(d.dim) * 8}
	case msgUpdate2:
		var payload []byte
		if h, payload, err = decodeUpdate2(f.payload); err != nil {
			return err
		}
		codec := a.srv.clientCodec(id)
		if codec == nil {
			return fmt.Errorf("emu: client %d sent a compressed update without negotiating a codec", id)
		}
		if h.dim != d.dim {
			return fatalError{fmt.Errorf("emu: round %d client %d sent %d params, want %d", d.round, id, h.dim, d.dim)}
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
	p.replies = append(p.replies, m)
	return nil
}

// connDown routes a connection failure through the shard's fault tally: one
// fault per generation, a dropped record for the root, and an abort in
// strict mode.
func (a *shardAgg) connDown(id, gen, round int, cause error, p *shardPartial) error {
	if !a.srv.markDown(id, gen) {
		return nil
	}
	p.faults++
	p.dropped = append(p.dropped, droppedClient{id: id, round: round})
	if !a.srv.cfg.FaultTolerant {
		if cause == nil {
			cause = errors.New("connection down")
		}
		return clientError{client: id, err: cause}
	}
	return nil
}
