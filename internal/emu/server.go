package emu

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"cmfl/internal/compress"
	"cmfl/internal/dataset"
	"cmfl/internal/emu/shard"
	"cmfl/internal/fl"
	"cmfl/internal/nn"
	"cmfl/internal/telemetry"
)

// ServerConfig describes the master side of the emulation.
type ServerConfig struct {
	// Addr to listen on, e.g. "127.0.0.1:0".
	Addr string
	// Clients is D, the number of slaves that must connect before training.
	Clients int

	// Model builds the global model architecture.
	Model func() *nn.Network
	// TestData evaluates global accuracy after each round.
	TestData *dataset.Set
	// EvalEvery evaluates accuracy every k rounds (default 1).
	EvalEvery int
	// EvalBatch bounds evaluation forward batches (default 64).
	EvalBatch int

	// Rounds is the number of synchronous iterations.
	Rounds int
	// TargetAccuracy stops early when reached (0 disables).
	TargetAccuracy float64

	// Compressor pins the codec clients must use (wire v2: each client
	// declares its codec's binary spec in its hello). When set, a hello
	// whose spec does not match this codec's spec byte-for-byte is
	// rejected — and aborts startup in strict mode. When nil the server
	// adopts whatever codec each hello declares, building a per-client
	// decoder from the spec. Raw (spec-less) hellos are always accepted.
	Compressor fl.UpdateCodec

	// Limits bounds timing, quorum, and fault posture (see emu.Limits). On
	// a bare server DialTimeout defaults to 60s and RoundDeadline to
	// RoundTimeout.
	Limits
	// Topology lays out the aggregation tree (see emu.Topology). The zero
	// value is the flat server: one shard owning every client.
	Topology Topology
	// RoundTimeout is the raw I/O safety net bounding any single write to a
	// client (default 60s, raised to RoundDeadline when the deadline is
	// longer). Reads deliberately carry no deadline: slow or silent clients
	// are the quorum deadline's concern, not a transport fault.
	RoundTimeout time.Duration

	// Observers receive live telemetry: one telemetry.ClientEvent per
	// accepted reply, in ascending client id, followed by one
	// telemetry.RoundEvent per round (fl.Aggregator.Emit).
	Observers []telemetry.Observer
	// MetricsAddr, when non-empty (e.g. "127.0.0.1:0"), serves the
	// master's metrics registry as a Prometheus-text /metrics and JSON
	// /healthz endpoint over HTTP while the cluster runs. The endpoint
	// stays up after Run returns — with its counters matching the final
	// ServerResult wire totals exactly — until Close.
	MetricsAddr string
	// Registry receives the master's metrics. Optional: when nil and
	// MetricsAddr is set, the server creates its own. Wire-byte counters
	// (cmfl_emu_uplink_wire_bytes_total, cmfl_emu_downlink_wire_bytes_total)
	// are pinned to the exact TCP payload accounting of ServerResult, and
	// the fault families (cmfl_fault_rejoins_total,
	// cmfl_straggler_late_frames_total) to its fault accounting.
	Registry *telemetry.Registry
}

// RoundStats is the emulation master's round record: the record every tier
// keeps, its diagnostics taken from the accepted replies' headers, plus the
// wire-level running totals only the real network stack can observe.
type RoundStats struct {
	fl.RoundStats

	// CumUplinkWireBytes / CumDownlinkWireBytes are the actual TCP payload
	// bytes (frames incl. framing overhead) observed through this round.
	CumUplinkWireBytes   int64
	CumDownlinkWireBytes int64
	// Stragglers lists the clients cut off by this round's deadline,
	// ascending. Their replies, if they ever arrive, are drained as late
	// frames — never aggregated.
	Stragglers []int
	// LateFrames counts frames drained during this round that belonged to
	// an earlier round.
	LateFrames int
}

// ServerResult extends the round history with wire-level byte counts.
type ServerResult struct {
	History []RoundStats
	// FinalParams is the global model after the last round.
	FinalParams []float64
	// UplinkWireBytes / DownlinkWireBytes are the actual bytes observed on
	// the TCP payload stream (frames incl. framing overhead).
	UplinkWireBytes   int64
	DownlinkWireBytes int64
	// SkipCounts per client over the run.
	SkipCounts []int
	// StragglerCounts per client: rounds in which the client was expected
	// to reply but was cut off by the deadline.
	StragglerCounts []int
	// DroppedClients maps clients whose connection failed to the first
	// round in which it happened. With reconnection enabled a listed
	// client may still have rejoined later (see Rejoins).
	DroppedClients map[int]int
	// LateFrames / DupFrames count uplink frames that were received and
	// drained but never aggregated: replies to already-closed rounds and
	// redundant resends.
	LateFrames int
	DupFrames  int
	// Rejoins counts connections re-accepted after training started.
	Rejoins int
	// CodecUpdates counts aggregated updates that arrived codec-encoded
	// (msgUpdate2); CodecEncodedBytes sums their codec payload sizes and
	// CodecRawBytes the dim×8 bytes the same updates would have cost raw —
	// the measured compression ratio is EncodedBytes/RawBytes.
	CodecUpdates      int
	CodecEncodedBytes int64
	CodecRawBytes     int64
}

// FinalAccuracy returns the last evaluated accuracy, or NaN.
func (r *ServerResult) FinalAccuracy() float64 { return telemetry.FinalAccuracy(r.History) }

// connEvent is what a connection reader hands to the round loop: one frame
// or one terminal error, tagged with the connection generation so stale
// readers can never corrupt a successor's accounting. A frame's payload is
// the reader's buffer: the shard signals release once it is done with it,
// and only then does the reader read the next frame.
type connEvent struct {
	client  int
	gen     int
	f       frame
	wire    int64
	err     error
	release chan<- struct{}
}

// Server is the master of Algorithm 1's GlobalOptimization, run over TCP.
type Server struct {
	cfg ServerConfig
	ln  net.Listener

	// Telemetry plumbing: observers include any configured Collector;
	// pinned mirrors ServerResult's wire, fault and codec totals (see
	// syncCounters), and pinnedAt holds what each was last synced to.
	obs      []telemetry.Observer
	reg      *telemetry.Registry
	metrics  *telemetry.MetricsServer
	pinned   []*telemetry.Counter
	pinnedAt [7]int64

	// Wire v2 codec negotiation: serverSpec is the byte spec of
	// cfg.Compressor (nil when unset); helloErrs surfaces pre-barrier spec
	// mismatches so strict startup fails fast instead of timing out.
	serverSpec []byte
	helloErrs  chan error

	ready    chan struct{} // closed once all Clients completed their first hello
	stop     chan struct{}
	stopOnce sync.Once
	// quit asks a running server to wind down after the current round
	// (Shutdown); stop is the hard teardown signal.
	quit     chan struct{}
	quitOnce sync.Once
	// handshakes is the admission semaphore: at most handshakesPerShard
	// hellos per shard are in flight at once, the rest wait their turn.
	handshakes chan struct{}

	// The aggregation tree: shard aggregators in fixed index order over
	// ascending contiguous client ranges, the client-to-shard routing table,
	// and the round loop's state — the root's merge accumulator, the round's
	// accepted replies and broadcast mask by global client id, the writer's
	// targets and errors, and the merged outcome. All written once in
	// NewServer (shards, shardOf) or only by the round loop.
	shards     []*shardAgg
	shardOf    []int
	shardStats []shardCounters
	rootAcc    *shard.Accumulator
	replies    []fl.Reply
	expected   []bool
	targets    []liveTarget
	sendErrs   []error
	out        roundOutcome

	// global is the model the round loop evaluates; NewServer builds it to
	// learn the dimension. rawFrame bounds a raw (v1) connection's frames:
	// the largest it may send is an update, 20 + 8·dim bytes. modelFrame is
	// the round's model broadcast, header included, encoded by the round
	// loop into the same buffer every round: a broadcast's writes all finish
	// before the next round encodes.
	global     *nn.Network
	rawFrame   int
	modelFrame []byte

	// wg tracks every connection-servicing goroutine the server spawns
	// (acceptLoop, admit, readLoop); closeConns waits for all of them after
	// closing the sockets they may be blocked on, so Close returns only
	// once no server goroutine can touch a connection again. The round
	// loop joins its own writers and gathers, which end on stop.
	wg sync.WaitGroup

	mu     sync.Mutex
	closed bool
	conns  []net.Conn
	alive  []bool
	// pending holds connections inside the admit handshake that are not yet
	// registered in conns; closeConns closes them so a teardown never waits
	// out a handshake read deadline.
	pending map[net.Conn]struct{}
	gens    []int // connection generation per client (1 = first join)
	downGen []int // highest generation already accounted as down
	joined  int   // distinct clients that ever completed a hello
	started bool  // initial accept barrier passed
	rejoin  int   // hellos accepted after the barrier

	// codecs holds each client's negotiated decoder (nil = raw float64);
	// set in admit under mu, read by the shard aggregators.
	codecs []fl.UpdateCodec
}

// NewServer validates the configuration and binds the listen socket, so the
// effective address (with a resolved port) is known before Run.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Clients <= 0 {
		return nil, errors.New("emu: Clients must be positive")
	}
	if cfg.Model == nil {
		return nil, errors.New("emu: Model factory is required")
	}
	if cfg.Rounds <= 0 {
		return nil, errors.New("emu: Rounds must be positive")
	}
	if cfg.MinQuorum < 0 || cfg.MinQuorum > cfg.Clients {
		return nil, fmt.Errorf("emu: MinQuorum %d outside [0, %d]", cfg.MinQuorum, cfg.Clients)
	}
	if cfg.EvalEvery <= 0 {
		cfg.EvalEvery = 1
	}
	if cfg.EvalBatch <= 0 {
		cfg.EvalBatch = 64
	}
	if cfg.RoundTimeout <= 0 {
		cfg.RoundTimeout = 60 * time.Second
	}
	if cfg.RoundDeadline <= 0 {
		cfg.RoundDeadline = cfg.RoundTimeout
	}
	if cfg.RoundTimeout < cfg.RoundDeadline {
		// The raw I/O net must never fire before the aggregation deadline.
		cfg.RoundTimeout = cfg.RoundDeadline
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 60 * time.Second
	}
	if err := cfg.Topology.validate(cfg.Clients); err != nil {
		return nil, err
	}
	global := cfg.Model()
	if dim := global.NumParams(); replyHeaderSize+8*dim > maxFrame {
		return nil, fmt.Errorf("emu: a model of %d params does not fit a %d-byte frame", dim, maxFrame)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("emu: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{
		global:     global,
		rawFrame:   replyHeaderSize + 8*global.NumParams(),
		cfg:        cfg,
		ln:         ln,
		obs:        cfg.Observers,
		ready:      make(chan struct{}),
		stop:       make(chan struct{}),
		quit:       make(chan struct{}),
		handshakes: make(chan struct{}, handshakesPerShard*cfg.Topology.shardCount()),
		conns:      make([]net.Conn, cfg.Clients),
		alive:      make([]bool, cfg.Clients),
		gens:       make([]int, cfg.Clients),
		downGen:    make([]int, cfg.Clients),
		pending:    make(map[net.Conn]struct{}),
		codecs:     make([]fl.UpdateCodec, cfg.Clients),
		helloErrs:  make(chan error, cfg.Clients),
		shardOf:    make([]int, cfg.Clients),
		rootAcc:    shard.New(0),
		replies:    make([]fl.Reply, cfg.Clients),
		expected:   make([]bool, cfg.Clients),
		targets:    make([]liveTarget, 0, cfg.Clients),
		sendErrs:   make([]error, cfg.Clients),
	}
	for i, r := range shard.Split(cfg.Clients, cfg.Topology.shardCount()) {
		s.shards = append(s.shards, newShardAgg(s, i, r))
		for id := r.Lo; id < r.Hi; id++ {
			s.shardOf[id] = i
		}
	}
	if cfg.Compressor != nil {
		spec, err := compress.EncodeSpec(cfg.Compressor)
		if err != nil {
			closeQuietly(ln)
			return nil, fmt.Errorf("emu: server codec: %w", err)
		}
		s.serverSpec = spec
	}
	if cfg.Registry != nil || cfg.MetricsAddr != "" {
		s.reg = cfg.Registry
		if s.reg == nil {
			s.reg = telemetry.NewRegistry()
		}
		s.obs = append(append([]telemetry.Observer(nil), cfg.Observers...), telemetry.NewCollector(s.reg))
		s.pinned = []*telemetry.Counter{ // in syncCounters' order
			s.reg.Counter(`cmfl_emu_uplink_wire_bytes_total`, "TCP payload bytes received from clients (frames incl. framing overhead)."),
			s.reg.Counter(`cmfl_emu_downlink_wire_bytes_total`, "TCP payload bytes sent to clients (frames incl. framing overhead)."),
			s.reg.Counter(`cmfl_straggler_late_frames_total`, "Uplink frames drained after their round's deadline (received, never aggregated)."),
			s.reg.Counter(`cmfl_fault_rejoins_total`, "Client connections re-accepted after training started."),
			s.reg.Counter(`cmfl_codec_updates_total`, "Aggregated updates that arrived codec-encoded (wire v2 msgUpdate2)."),
			s.reg.Counter(`cmfl_codec_encoded_bytes_total`, "Codec payload bytes of aggregated compressed updates."),
			s.reg.Counter(`cmfl_codec_raw_bytes_total`, "Raw float64 bytes (dim x 8) the same compressed updates would have cost uncompressed."),
		}
		for i := range s.shards {
			s.shardStats = append(s.shardStats, newShardCounters(s.reg, strconv.Itoa(i)))
		}
	}
	if cfg.MetricsAddr != "" {
		ms, err := telemetry.Serve(cfg.MetricsAddr, s.reg)
		if err != nil {
			closeQuietly(ln)
			return nil, err
		}
		s.metrics = ms
	}
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// MetricsAddr returns the bound /metrics endpoint address, or "" when
// MetricsAddr was not configured.
func (s *Server) MetricsAddr() string {
	if s.metrics == nil {
		return ""
	}
	return s.metrics.Addr()
}

// Registry returns the server's metrics registry (nil unless MetricsAddr or
// Registry was configured).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Close releases the listener, any client connections, and the metrics
// endpoint.
func (s *Server) Close() error {
	err := s.closeConns()
	if s.metrics != nil {
		if merr := s.metrics.Close(); err == nil {
			err = merr
		}
		s.metrics = nil
	}
	return err
}

// closeQuietly is the audited discard for best-effort teardown: closing a
// socket whose session already failed (or already delivered everything it
// had to) has no caller that could act on the error.
func closeQuietly(c io.Closer) {
	_ = c.Close() //cmfl:lint-ignore errcheck best-effort close on an already-failed or finished path
}

// closeConns releases the listener and client connections, leaving the
// metrics endpoint (if any) scrapeable until Close. Idempotent: Run defers
// it and Close calls it again; secondary net.ErrClosed noise is filtered.
// It returns only after every connection-servicing goroutine exited:
// closing the listener unblocks acceptLoop, closing registered and pending
// connections errors out blocked reads, and the stop channel releases
// everything parked on a select — so the Wait below cannot hang.
func (s *Server) closeConns() error {
	s.stopOnce.Do(func() { close(s.stop) })
	err := s.ln.Close()
	if errors.Is(err, net.ErrClosed) {
		err = nil
	}
	s.mu.Lock()
	s.closed = true
	for i, c := range s.conns {
		if c == nil {
			continue
		}
		if cerr := c.Close(); cerr != nil && !errors.Is(cerr, net.ErrClosed) {
			err = errors.Join(err, cerr)
		}
		s.conns[i] = nil
		s.alive[i] = false
	}
	for c := range s.pending {
		closeQuietly(c)
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// syncCounters pins the registry's wire-byte, fault and codec counters to
// the exact accounting in res — bit-for-bit, since both sides add the same
// deltas.
func (s *Server) syncCounters(res *ServerResult) {
	totals := [len(s.pinnedAt)]int64{res.UplinkWireBytes, res.DownlinkWireBytes, int64(res.LateFrames), int64(res.Rejoins),
		int64(res.CodecUpdates), res.CodecEncodedBytes, res.CodecRawBytes}
	for i, c := range s.pinned {
		c.Add(totals[i] - s.pinnedAt[i])
		s.pinnedAt[i] = totals[i]
	}
}

// minQuorum is the effective reply minimum at the deadline.
func (s *Server) minQuorum() int {
	if s.cfg.MinQuorum > 0 {
		return s.cfg.MinQuorum
	}
	if s.cfg.FaultTolerant {
		return 1
	}
	return s.cfg.Clients
}

// Shutdown asks a running server to finish its current round, send the
// final done frame, and return cleanly with the partial history — the
// graceful counterpart to Close. Safe to call from any goroutine (typically
// a signal handler); calling it repeatedly, or before Run, is harmless.
func (s *Server) Shutdown() {
	s.quitOnce.Do(func() { close(s.quit) })
}

// stopping reports whether Shutdown was requested.
func (s *Server) stopping() bool {
	select {
	case <-s.quit:
		return true
	default:
		return false
	}
}

// Run accepts the configured number of clients, drives the synchronous
// training rounds through the aggregation tree and returns the collected
// result. It closes all client connections before returning; the metrics
// endpoint (if configured) keeps serving the final totals until Close.
//
//cmfl:deterministic
func (s *Server) Run() (res *ServerResult, err error) {
	defer func() {
		// A clean run must also tear down cleanly; surface the close error
		// unless the round loop already failed.
		if cerr := s.closeConns(); cerr != nil && err == nil && res != nil {
			res, err = nil, cerr
		}
	}()
	// A Close racing Run must see the accept loop counted before it waits,
	// or not at all: both sides decide under mu.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("emu: server closed before all clients connected")
	}
	s.wg.Add(1)
	s.mu.Unlock()
	go s.acceptLoop()
	if err := s.awaitClients(); err != nil {
		return nil, err
	}

	// The server half of Algorithm 1 is fl's: the tree hands Finish each
	// round's exact sum to fold, and Finish closes the round. The upload
	// filter lives in the clients.
	agg := fl.NewAggregator(telemetry.EngineEmu, s.global.ParamVector(), s.cfg.Clients, nil, s.obs)
	agg.Eval = fl.Evaluation{Net: s.global, Test: s.cfg.TestData, Every: s.cfg.EvalEvery, Last: s.cfg.Rounds, Batch: s.cfg.EvalBatch, Target: s.cfg.TargetAccuracy}
	res = &ServerResult{
		SkipCounts:      agg.SkipCounts,
		StragglerCounts: make([]int, s.cfg.Clients),
	}

	for t := 1; t <= s.cfg.Rounds && !s.stopping(); t++ {
		// One tree round (Algorithm 1: distribute x_{t-1}, gather, merge;
		// clients derive the feedback update from consecutive broadcasts).
		out, err := s.runRound(t, agg.Params, res)
		if err != nil {
			return nil, err
		}
		res.UplinkWireBytes += out.wire
		res.LateFrames += out.late
		res.DupFrames += out.dups
		for _, id := range out.stragglers {
			res.StragglerCounts[id]++
		}
		// A sum that overflowed is nobody's frame to drop: Finish fails the
		// round in either fault mode. The stragglers were sent the broadcast,
		// so they count among the participants, and in Dropped.
		done, err := agg.Finish(t, out.expected, out.accepted, s.replies, s.rootAcc, func(st *fl.RoundStats, _ []float64) {
			st.Faults = out.faults
			res.History = append(res.History, RoundStats{
				RoundStats:           *st,
				CumUplinkWireBytes:   res.UplinkWireBytes,
				CumDownlinkWireBytes: res.DownlinkWireBytes,
				Stragglers:           out.stragglers,
				LateFrames:           out.late,
			})
			res.Rejoins = s.rejoinCount()
			s.syncCounters(res) // before the round is published
		})
		if err != nil {
			return nil, fmt.Errorf("emu: %w", err)
		}
		if done {
			break
		}
	}

	// Tell the surviving clients training is over. A failed write here
	// carries nothing the result depends on, and counting it as a fault
	// would make the counters hostage to teardown races.
	targets, errs := s.sendAll(appendFrameHeader(nil, msgDone, 0))
	for i := range targets {
		if errs[i] == nil {
			res.DownlinkWireBytes += frameOverhead
		}
	}
	res.FinalParams = agg.Params
	res.Rejoins = s.rejoinCount()
	// Pin the counters to the final totals so a post-run scrape matches
	// ServerResult bit-for-bit.
	s.syncCounters(res)
	return res, nil
}

// acceptLoop admits connections for the whole run: the initial barrier and
// any rejoins after a fault. It exits when the listener closes. The wg.Add
// for each admit happens here, while acceptLoop still holds its own wg
// slot, so the count can never hit zero with a spawn in flight.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go s.admit(conn)
	}
}

// admit performs the hello handshake — including the wire-v2 codec
// negotiation — and registers the connection. A bad hello burns that
// connection (the dialer can retry); a codec-spec mismatch additionally
// surfaces on helloErrs so a strict startup fails fast. A valid hello
// replaces any previous connection for the same id (latest wins).
func (s *Server) admit(conn net.Conn) {
	defer s.wg.Done()
	// Admission backpressure: at most handshakesPerShard hellos per shard in
	// flight; excess connections queue here (each slot is released within
	// DialTimeout by the read deadline below).
	select {
	case s.handshakes <- struct{}{}:
		defer func() { <-s.handshakes }()
	case <-s.stop:
		closeQuietly(conn)
		return
	}
	// Track the handshake connection so closeConns can cut a blocked hello
	// read short instead of waiting out its deadline.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		closeQuietly(conn)
		return
	}
	s.pending[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.pending, conn)
		s.mu.Unlock()
	}()
	// I/O deadline only; read through the package clock hook.
	if err := conn.SetReadDeadline(now().Add(s.cfg.DialTimeout)); err != nil {
		closeQuietly(conn)
		return
	}
	f, err := readFrameInto(conn, nil, maxHello)
	if err != nil || f.kind != msgHello {
		closeQuietly(conn)
		return
	}
	id, spec, err := decodeHello(f.payload)
	if err != nil || id < 0 || id >= s.cfg.Clients {
		closeQuietly(conn)
		return
	}
	codec, err := s.negotiateCodec(id, spec)
	if err != nil {
		select {
		case s.helloErrs <- err:
		default:
		}
		closeQuietly(conn)
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		closeQuietly(conn)
		return
	}
	if prev := s.conns[id]; prev != nil && s.alive[id] {
		// The client redialed; its old connection is stale. Its reader will
		// surface an error that markDown attributes to the old generation.
		closeQuietly(prev)
	}
	s.gens[id]++
	gen := s.gens[id]
	s.conns[id] = conn
	s.alive[id] = true
	s.codecs[id] = codec
	if gen == 1 {
		s.joined++
		if s.joined == s.cfg.Clients {
			close(s.ready)
		}
	} else if s.started {
		s.rejoin++
	}
	s.mu.Unlock()
	limit := maxFrame
	if codec == nil {
		limit = s.rawFrame
	}
	s.wg.Add(1)
	go s.readLoop(id, gen, conn, limit)
}

// negotiateCodec resolves a hello's codec declaration against the server's
// configuration: raw hellos are always accepted; with a configured
// Compressor the specs must match byte-for-byte; without one the server
// builds the client's decoder from the declared spec.
func (s *Server) negotiateCodec(id int, spec []byte) (fl.UpdateCodec, error) {
	if spec == nil {
		return nil, nil
	}
	if s.serverSpec != nil {
		if !bytes.Equal(spec, s.serverSpec) {
			return nil, fmt.Errorf("emu: client %d declared codec spec %x, server requires %s (%x)",
				id, spec, s.cfg.Compressor.Name(), s.serverSpec)
		}
		return s.cfg.Compressor, nil
	}
	c, rest, err := compress.ParseSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("emu: client %d codec spec: %w", id, err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("emu: client %d codec spec has %d trailing bytes", id, len(rest))
	}
	return c, nil
}

// awaitClients blocks until every client completed its first hello, failing
// fast on a codec-spec mismatch — or on server teardown, so a caller that
// learns the cohort can never assemble (RunCluster watching its dialers)
// can cancel the barrier instead of burning the whole timeout.
func (s *Server) awaitClients() error {
	timer := newTimer(s.cfg.DialTimeout)
	defer timer.Stop()
	select {
	case <-s.ready:
	case err := <-s.helloErrs:
		return err
	case <-s.stop:
		return errors.New("emu: server closed before all clients connected")
	case <-timer.C():
		s.mu.Lock()
		have := s.joined
		s.mu.Unlock()
		return fmt.Errorf("emu: accept (have %d of %d clients): timeout after %v", have, s.cfg.Clients, s.cfg.DialTimeout)
	}
	s.mu.Lock()
	s.started = true
	s.mu.Unlock()
	return nil
}

// rejoinCount snapshots the number of post-barrier rejoins.
func (s *Server) rejoinCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rejoin
}

// readLoop forwards frames from one connection generation into the round
// loop until the connection dies or the server stops. Reads carry no
// deadline on purpose: a connected client that merely has nothing to say
// (e.g. its reply was lost upstream) can be silent for many rounds without
// being a transport failure — slowness is the quorum deadline's problem,
// not the socket's. Blocked reads are released by closeConns.
//
// The reader owns one payload buffer and reads the next frame into it only
// once the shard has released the last one, so a connection holds at most
// one received frame: a client that writes faster than the rounds consume
// meets TCP backpressure, not server memory. A frame longer than limit is
// refused from its length prefix alone.
func (s *Server) readLoop(id, gen int, conn net.Conn, limit int) {
	defer s.wg.Done()
	agg := s.shards[s.shardOf[id]]
	release := make(chan struct{}, 1)
	var buf []byte
	for {
		f, err := readFrameInto(conn, buf, limit)
		if err != nil {
			agg.post(connEvent{client: id, gen: gen, err: err})
			return
		}
		buf = f.payload
		if !agg.post(connEvent{client: id, gen: gen, f: f, wire: f.wireSize(), release: release}) {
			return
		}
		select {
		case <-release:
		case <-s.stop:
			return
		}
	}
}

// markDown accounts one connection death exactly once per generation and
// tears the connection down. It reports whether this call did the
// accounting (callers count a fault then, and only then).
func (s *Server) markDown(id, gen int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if gen <= s.downGen[id] {
		return false
	}
	s.downGen[id] = gen
	if s.gens[id] == gen && !s.closed {
		s.alive[id] = false
		if s.conns[id] != nil {
			closeQuietly(s.conns[id])
		}
	}
	return true
}

// liveTarget pins (id, generation, conn) at snapshot time so later rejoins
// cannot be blamed for an older connection's failure.
type liveTarget struct {
	id, gen int
	conn    net.Conn
}

// liveTargets appends a snapshot of the live connections to dst, in
// ascending client id.
func (s *Server) liveTargets(dst []liveTarget) []liveTarget {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, c := range s.conns {
		if s.alive[i] && c != nil {
			dst = append(dst, liveTarget{id: i, gen: s.gens[i], conn: c})
		}
	}
	return dst
}

// clientCodec snapshots the decoder negotiated by id's latest hello.
func (s *Server) clientCodec(id int) fl.UpdateCodec {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.codecs[id]
}

// clientError tags a transport error with the client it came from.
type clientError struct {
	client int
	err    error
}

func (e clientError) Error() string { return fmt.Sprintf("client %d: %v", e.client, e.err) }

func (e clientError) Unwrap() error { return e.err }
