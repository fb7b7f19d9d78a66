package emu

import (
	"encoding/binary"
	"errors"
	"net"
	"sort"
	"time"

	"cmfl/internal/xrand"
)

// FaultKind enumerates the failure classes the injector can emulate. Each
// one is applied at the net.Conn layer of the client, so both ends of the
// emulation see realistic transport behaviour rather than a mocked error.
type FaultKind uint8

const (
	// FaultNone is the zero value: no fault.
	FaultNone FaultKind = iota
	// FaultDropUpdate silently swallows the client's reply for the round.
	// The client believes the upload succeeded; the server sees a connected
	// but silent peer — the canonical straggler.
	FaultDropUpdate
	// FaultDelay sleeps for Fault.Delay before the reply leaves the client.
	// Delays shorter than the server's RoundDeadline are absorbed; longer
	// ones turn the client into a straggler whose reply is drained late.
	FaultDelay
	// FaultDisconnect severs the connection mid-frame: part of the reply's
	// header is written, then the socket closes. The server reads a
	// malformed stream; the client reconnects and resends.
	FaultDisconnect
	// FaultCrashRejoin closes the connection before the reply is written,
	// waits Fault.Delay (the downtime), then the client redials, re-greets,
	// and resends the pending reply.
	FaultCrashRejoin
	// FaultCorruptFrame replaces the reply's length prefix with an absurd
	// value (the server rejects it as ErrFrameTooLarge and kills the
	// connection) while the client believes the send succeeded.
	FaultCorruptFrame
)

// String names the fault kind for test output and plan dumps.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultDropUpdate:
		return "drop-update"
	case FaultDelay:
		return "delay"
	case FaultDisconnect:
		return "disconnect"
	case FaultCrashRejoin:
		return "crash-rejoin"
	case FaultCorruptFrame:
		return "corrupt-frame"
	}
	return "unknown"
}

// Fault is one scheduled failure.
type Fault struct {
	Kind FaultKind
	// Delay is the sleep before the reply (FaultDelay) or the downtime
	// before redialing (FaultCrashRejoin); ignored by the other kinds.
	Delay time.Duration
}

// FaultEvent is a plan entry in exportable form.
type FaultEvent struct {
	Client int
	Round  int
	Fault  Fault
}

// FaultPlan schedules at most one fault per (client, round) cell. A plan is
// immutable once built and holds no consumed-state, so the *same* plan value
// drives arbitrarily many cluster runs — the determinism contract ("two runs
// of one plan produce bit-identical global models") depends on that.
type FaultPlan struct {
	faults map[uint64]Fault
}

// NewFaultPlan returns an empty plan; populate it with Add.
func NewFaultPlan() *FaultPlan {
	return &FaultPlan{faults: make(map[uint64]Fault)}
}

func planKey(client, round int) uint64 {
	return uint64(uint32(client))<<32 | uint64(uint32(round))
}

// Add schedules f for the given client and 1-based round, replacing any
// earlier entry for that cell. It returns the plan for chaining.
func (p *FaultPlan) Add(client, round int, f Fault) *FaultPlan {
	if client >= 0 && round >= 0 && f.Kind != FaultNone {
		p.faults[planKey(client, round)] = f
	}
	return p
}

// At reports the fault scheduled for (client, round), if any.
func (p *FaultPlan) At(client, round int) (Fault, bool) {
	if p == nil || client < 0 || round < 0 {
		return Fault{}, false
	}
	f, ok := p.faults[planKey(client, round)]
	return f, ok
}

// Len returns the number of scheduled faults.
func (p *FaultPlan) Len() int {
	if p == nil {
		return 0
	}
	return len(p.faults)
}

// Events lists the plan sorted by (client, round) — for logs and tests.
func (p *FaultPlan) Events() []FaultEvent {
	if p == nil {
		return nil
	}
	out := make([]FaultEvent, 0, len(p.faults))
	for k, f := range p.faults {
		out = append(out, FaultEvent{Client: int(uint32(k >> 32)), Round: int(uint32(k)), Fault: f})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Client != out[j].Client {
			return out[i].Client < out[j].Client
		}
		return out[i].Round < out[j].Round
	})
	return out
}

// FaultRates configures RandomFaultPlan: independent per-cell probabilities
// for each fault class (their sum must stay ≤ 1) and the magnitude of the
// injected latencies.
type FaultRates struct {
	Drop, Delay, Disconnect, Crash, Corrupt float64
	// MeanDelay scales FaultDelay sleeps and FaultCrashRejoin downtimes;
	// actual values are drawn uniformly from [0.5, 1.5)×MeanDelay.
	MeanDelay time.Duration
}

// RandomFaultPlan draws a plan over clients×rounds (1-based rounds) from a
// dedicated seeded stream. Cells are visited in (client, round) order with
// fixed draws per cell, so a (seed, clients, rounds, rates) tuple always
// yields the identical plan.
func RandomFaultPlan(seed int64, clients, rounds int, rates FaultRates) *FaultPlan {
	p := NewFaultPlan()
	rng := xrand.Derive(seed, "emu-faults", 0)
	for c := 0; c < clients; c++ {
		for r := 1; r <= rounds; r++ {
			u := rng.Float64()
			scale := 0.5 + rng.Float64() // always drawn: keeps the stream aligned per cell
			d := time.Duration(float64(rates.MeanDelay) * scale)
			switch {
			case u < rates.Drop:
				p.Add(c, r, Fault{Kind: FaultDropUpdate})
			case u < rates.Drop+rates.Delay:
				p.Add(c, r, Fault{Kind: FaultDelay, Delay: d})
			case u < rates.Drop+rates.Delay+rates.Disconnect:
				p.Add(c, r, Fault{Kind: FaultDisconnect})
			case u < rates.Drop+rates.Delay+rates.Disconnect+rates.Crash:
				p.Add(c, r, Fault{Kind: FaultCrashRejoin, Delay: d})
			case u < rates.Drop+rates.Delay+rates.Disconnect+rates.Crash+rates.Corrupt:
				p.Add(c, r, Fault{Kind: FaultCorruptFrame})
			}
		}
	}
	return p
}

// injectorMode is the injector's per-round write-path state.
type injectorMode uint8

const (
	modePass    injectorMode = iota // no armed fault: writes pass through
	modeArmed                       // fault armed, fires on the next write
	modeSwallow                     // rest of the current frame is discarded
)

// faultInjector executes one client's share of a FaultPlan. All consumed
// state lives here (never in the plan), and everything runs on the client
// goroutine, so no locking is needed.
type faultInjector struct {
	plan   *FaultPlan
	client int

	mode  injectorMode
	fault Fault
	// span follows the faulted frame's bytes in modeSwallow. The swallow
	// ends after exactly that frame, however many writes carry it: it must
	// never outlive the frame, or it would eat the hello of a reconnect
	// triggered by the fault itself.
	span frameSpan
	// corrupt sends the swallowed frame's header with its length prefix
	// poisoned (FaultCorruptFrame).
	corrupt bool
	// rejoinDelay is the crash downtime handed to the reconnect path.
	rejoinDelay time.Duration
	// injected counts faults actually fired (reported via ClientResult).
	injected int
}

// frameSpan follows one frame through the writes that carry it: the
// frame's length prefix, once its four bytes have passed, sizes the rest.
type frameSpan struct {
	seen   int // bytes of the frame seen so far
	size   int // the whole frame's bytes; 0 until the prefix is complete
	prefix [4]byte
}

// take consumes the leading bytes of b that belong to the frame, returning
// how many, and reports whether the frame has ended.
func (f *frameSpan) take(b []byte) (n int, done bool) {
	for f.size == 0 && n < len(b) {
		f.prefix[f.seen] = b[n]
		f.seen++
		n++
		if f.seen == len(f.prefix) {
			f.size = frameOverhead + int(binary.BigEndian.Uint32(f.prefix[:]))
		}
	}
	if f.size > 0 {
		k := min(f.size-f.seen, len(b)-n)
		f.seen += k
		n += k
	}
	return n, f.size > 0 && f.seen == f.size
}

// newFaultInjector returns nil when there is no plan; all methods tolerate a
// nil receiver so the fault-free path stays untouched.
func newFaultInjector(plan *FaultPlan, client int) *faultInjector {
	if plan == nil || plan.Len() == 0 {
		return nil
	}
	return &faultInjector{plan: plan, client: client}
}

// beginRound arms the fault scheduled for this round (if any) and clears any
// leftover swallow state from the previous round.
func (in *faultInjector) beginRound(round int) {
	if in == nil {
		return
	}
	in.mode = modePass
	in.span, in.corrupt = frameSpan{}, false
	if f, ok := in.plan.At(in.client, round); ok {
		in.mode = modeArmed
		in.fault = f
	}
}

// takeRejoinDelay returns and clears the pending crash downtime.
func (in *faultInjector) takeRejoinDelay() time.Duration {
	if in == nil {
		return 0
	}
	d := in.rejoinDelay
	in.rejoinDelay = 0
	return d
}

// wrap interposes the injector on conn's write path. Nil injectors return
// conn unchanged.
func (in *faultInjector) wrap(conn net.Conn) net.Conn {
	if in == nil {
		return conn
	}
	return &faultConn{Conn: conn, in: in}
}

// faultConn is the net.Conn wrapper that realises the armed fault on the
// first write of the round. That write starts the round's reply frame, so
// it opens with the frame's length prefix — exactly where real transport
// failures bite hardest.
type faultConn struct {
	net.Conn
	in *faultInjector
}

func (c *faultConn) Write(b []byte) (int, error) {
	in := c.in
	switch in.mode {
	case modePass:
		return c.Conn.Write(b)
	case modeSwallow:
		return c.swallow(b)
	case modeArmed:
		// Fall through to the kind dispatch below: fire exactly once per
		// round.
	}
	in.injected++
	switch in.fault.Kind {
	case FaultNone:
		// Armed with no fault: disarm below and write through.
	case FaultDropUpdate:
		in.mode = modeSwallow
		return c.swallow(b)
	case FaultDelay:
		in.mode = modePass
		sleep(in.fault.Delay)
		return c.Conn.Write(b)
	case FaultDisconnect:
		// Half of the frame header goes out, however the frame is split
		// into writes.
		in.mode = modePass
		n := min(len(b), frameOverhead) / 2
		if n > 0 {
			if wn, err := c.Conn.Write(b[:n]); err != nil {
				n = wn
			}
		}
		closeQuietly(c.Conn)
		return n, errors.New("emu: injected disconnect mid-frame")
	case FaultCrashRejoin:
		in.mode = modePass
		in.rejoinDelay = in.fault.Delay
		closeQuietly(c.Conn)
		return 0, errors.New("emu: injected crash before reply")
	case FaultCorruptFrame:
		// Corrupt the length prefix, then swallow the rest of the frame while
		// reporting success: the client moves on convinced it replied, the
		// server rejects the frame and severs the connection.
		in.mode = modeSwallow
		in.corrupt = true
		return c.swallow(b)
	}
	in.mode = modePass
	return c.Conn.Write(b)
}

// swallow discards the faulted frame's bytes in b and reports them written.
// A corrupted frame's header still goes out, its length prefix all ones.
// Bytes past the frame's end belong to whatever follows it and pass
// through.
func (c *faultConn) swallow(b []byte) (int, error) {
	in := c.in
	start := in.span.seen
	n, done := in.span.take(b)
	if in.corrupt && start < frameOverhead {
		hdr := append([]byte(nil), b[:min(n, frameOverhead-start)]...)
		for i := range hdr {
			if start+i < 4 {
				hdr[i] = 0xFF
			}
		}
		if _, err := c.Conn.Write(hdr); err != nil {
			// The connection is already dying. The client still believes
			// the frame went out, and meets the failure on its next read.
			in.mode = modePass
			return len(b), nil
		}
	}
	if !done {
		return len(b), nil
	}
	in.mode = modePass
	if n == len(b) {
		return n, nil
	}
	m, err := c.Conn.Write(b[n:])
	return n + m, err
}
