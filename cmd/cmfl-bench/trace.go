package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cmfl/internal/core"
	"cmfl/internal/fl"
	"cmfl/internal/sim"
	"cmfl/internal/telemetry"
	"cmfl/internal/xrand"
)

// spanKind names a span: one kind per seam the benchmark wraps, plus the
// run and its rounds. Spans inside the engines are ROADMAP item 2; these
// are recorded from the benchmark's own files, around the calls the engines
// make into each layer.
type spanKind uint8

const (
	spanRun spanKind = iota
	spanRound
	spanGate
	spanEncode
	spanDecode
)

var spanNames = [...]string{spanRun: "run", spanRound: "engine.round", spanGate: "core.gate", spanEncode: "compress.encode", spanDecode: "compress.decode"}

// span is one timed interval. Times are nanoseconds since the tracer's
// origin. Rounds are spans whose id is the round number and whose parent is
// the run span (id 0); every seam span's parent is its round. aux carries
// the seam's count: 1 for a gate decision that uploads, the encoded size
// for an encode. A span holds no pointer, so the collector never scans the
// millions a population-scale run records.
type span struct {
	start, end int64
	aux        int64
	id, parent int32
	kind       spanKind
}

// seamLog is one goroutine's share of the trace. The tracer hands logs out
// through a sync.Pool, which keeps one per P: a seam call takes the log its
// P already holds, appends without synchronisation, and puts it back, so
// the engines' worker goroutines never share a cache line, let alone a
// lock. (One shared log, claimed by atomic index, cost 22% on
// sim_100k_narrow's 3.6M gate calls.)
type seamLog struct {
	spans []span
	draws int64
}

// tracer keeps spans in memory; they are written out as JSONL only after
// the run ends.
type tracer struct {
	origin time.Time
	rounds int
	pool   sync.Pool

	mu         sync.Mutex
	logs       []*seamLog // every log the pool ever made
	roundStart []int64    // by round; 0 = not started
}

func newTracer(rounds int) *tracer {
	tr := &tracer{origin: time.Now(), rounds: rounds, roundStart: make([]int64, rounds+1)}
	tr.pool.New = func() any {
		l := &seamLog{}
		tr.mu.Lock()
		tr.logs = append(tr.logs, l)
		tr.mu.Unlock()
		return l
	}
	return tr
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.origin)) }

// seam records one call into a layer, made during round t and started at
// start.
func (tr *tracer) seam(kind spanKind, t int, start, aux int64) {
	end := tr.now()
	l := tr.pool.Get().(*seamLog)
	l.spans = append(l.spans, span{kind: kind, parent: int32(t), start: start, end: end, aux: aux})
	tr.pool.Put(l)
}

// draw counts one timing draw; a draw is too cheap to be worth a span.
func (tr *tracer) draw() {
	l := tr.pool.Get().(*seamLog)
	l.draws++
	tr.pool.Put(l)
}

// markRoundStart notes the first time round t's learning rate is asked for
// — the engines' first action of a round (once per client on the emu tier,
// hence the lock).
func (tr *tracer) markRoundStart(t int) {
	now := tr.now()
	tr.mu.Lock()
	if t >= 1 && t <= tr.rounds && tr.roundStart[t] == 0 {
		tr.roundStart[t] = now
	}
	tr.mu.Unlock()
}

// seamTotal is what one seam did over the run.
type seamTotal struct{ calls, busyNS, aux int64 }

// trace is a finished run's spans: the run, one span per round, then every
// seam span ordered by start, with ids assigned; plus the per-seam totals
// and the timing-draw count.
type trace struct {
	spans  []span
	totals [len(spanNames)]seamTotal
	draws  int64
}

// finish merges the per-P logs once the engine call has returned (no
// goroutine of the run is left to append). roundEnd[t-1] is round t's end.
func (tr *tracer) finish(runEnd int64, roundEnd []int64) *trace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := &trace{}
	out.spans = append(out.spans, span{kind: spanRun, id: 0, parent: -1, end: runEnd})
	for i, end := range roundEnd {
		if t := i + 1; t <= tr.rounds && tr.roundStart[t] != 0 {
			out.spans = append(out.spans, span{kind: spanRound, id: int32(t), start: tr.roundStart[t], end: end})
		}
	}
	first := len(out.spans)
	for _, l := range tr.logs {
		out.spans = append(out.spans, l.spans...)
		out.draws += l.draws
	}
	seams := out.spans[first:]
	slices.SortFunc(seams, func(a, b span) int { return cmp.Compare(a.start, b.start) })
	for i := range seams {
		sp := &seams[i]
		sp.id = int32(tr.rounds + 1 + i)
		tot := &out.totals[sp.kind]
		tot.calls, tot.busyNS, tot.aux = tot.calls+1, tot.busyNS+sp.end-sp.start, tot.aux+sp.aux
	}
	return out
}

// roundSelfTimes returns, per round span, its duration minus the union of
// the parts its child spans cover — the time no wrapped seam accounts for
// (local training, aggregation, transport, eval).
func (tc *trace) roundSelfTimes() []float64 {
	type cover struct{ end, reach, covered int64 }
	rounds := map[int32]*cover{}
	for _, sp := range tc.spans {
		if sp.kind == spanRound {
			rounds[sp.id] = &cover{end: sp.end, reach: sp.start}
		}
	}
	for _, sp := range tc.spans { // seam spans are ordered by start
		r, ok := rounds[sp.parent]
		if !ok || sp.kind == spanRound {
			continue
		}
		if lo, hi := max(sp.start, r.reach), min(sp.end, r.end); hi > lo {
			r.covered += hi - lo
			r.reach = hi
		}
	}
	var self []float64
	for _, sp := range tc.spans {
		if sp.kind == spanRound {
			self = append(self, float64(sp.end-sp.start-rounds[sp.id].covered))
		}
	}
	return self
}

// maxSeamSpansWritten bounds a trace file: the run and round spans are
// always written, seam spans earliest first up to this many (about 20 MB),
// and a closing line says how many were left out.
const maxSeamSpansWritten = 200_000

// writeJSONL writes one JSON object per span.
func (tc *trace) writeJSONL(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("trace: %w", cerr)
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	seams, omitted := 0, 0
	for _, s := range tc.spans {
		if s.kind != spanRun && s.kind != spanRound {
			if seams++; seams > maxSeamSpansWritten {
				omitted++
				continue
			}
		}
		line = append(line[:0], `{"id":`...)
		line = strconv.AppendInt(line, int64(s.id), 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendInt(line, int64(s.parent), 10)
		line = append(line, `,"name":"`...)
		line = append(line, spanNames[s.kind]...)
		line = append(line, `","start_ns":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, "}\n"...)
		if _, err := w.Write(line); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	if omitted > 0 {
		if _, err := fmt.Fprintf(w, "{\"omitted_seam_spans\":%d}\n", omitted); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// tracedFilter times every gate decision. It forwards fl.SignChecker and
// fl.FilterFeedback exactly when the inner filter has them (see
// wrapFilter): without the first the traced run would measure the slow
// Check path, without the second an adaptive filter would silently stop
// adapting.
type tracedFilter struct {
	inner fl.UploadFilter
	tr    *tracer
}

func (f *tracedFilter) Name() string { return f.inner.Name() }

func (f *tracedFilter) observe(t int, start int64, dec core.Decision) {
	var uploads int64
	if dec.Upload {
		uploads = 1
	}
	f.tr.seam(spanGate, t, start, uploads)
}

func (f *tracedFilter) Check(local, model, prevGlobal []float64, t int) (core.Decision, error) {
	start := f.tr.now()
	dec, err := f.inner.Check(local, model, prevGlobal, t)
	f.observe(t, start, dec)
	return dec, err
}

func (f *tracedFilter) checkSigns(sc fl.SignChecker, local []float64, signs []int8, t int) (core.Decision, bool, error) {
	start := f.tr.now()
	dec, handled, err := sc.CheckSigns(local, signs, t)
	if handled {
		// An unhandled fast path falls through to Check, which records
		// the decision; counting it here too would double the calls.
		f.observe(t, start, dec)
	}
	return dec, handled, err
}

type tracedSignFilter struct {
	*tracedFilter
	sc fl.SignChecker
}

func (f tracedSignFilter) CheckSigns(local []float64, signs []int8, t int) (core.Decision, bool, error) {
	return f.checkSigns(f.sc, local, signs, t)
}

type tracedFeedbackFilter struct {
	*tracedFilter
	fb fl.FilterFeedback
}

func (f tracedFeedbackFilter) ObserveRound(round, uploaded, participants int) {
	f.fb.ObserveRound(round, uploaded, participants)
}

type tracedSignFeedbackFilter struct {
	*tracedFilter
	sc fl.SignChecker
	fb fl.FilterFeedback
}

func (f tracedSignFeedbackFilter) CheckSigns(local []float64, signs []int8, t int) (core.Decision, bool, error) {
	return f.checkSigns(f.sc, local, signs, t)
}

func (f tracedSignFeedbackFilter) ObserveRound(round, uploaded, participants int) {
	f.fb.ObserveRound(round, uploaded, participants)
}

// wrapFilter returns a timing wrapper exposing exactly the optional
// interfaces inner implements.
func wrapFilter(inner fl.UploadFilter, tr *tracer) fl.UploadFilter {
	base := &tracedFilter{inner: inner, tr: tr}
	sc, hasSigns := inner.(fl.SignChecker)
	fb, hasFeedback := inner.(fl.FilterFeedback)
	switch {
	case hasSigns && hasFeedback:
		return tracedSignFeedbackFilter{base, sc, fb}
	case hasSigns:
		return tracedSignFilter{base, sc}
	case hasFeedback:
		return tracedFeedbackFilter{base, fb}
	}
	return base
}

// tracedCodec times EncodeInto/DecodeInto and counts bytes. The fl and sim
// engines accept any fl.UpdateCodec; emu negotiates codecs by a type switch
// in compress.EncodeSpec, so it cannot be wrapped and is probed instead.
// Codec calls carry no round number, so spans attach to the round open at
// the time of the call.
type tracedCodec struct {
	inner fl.UpdateCodec
	tr    *tracer
	round *atomic.Int64
}

func (c *tracedCodec) Name() string { return c.inner.Name() }

func (c *tracedCodec) EncodeInto(dst []byte, update []float64) ([]byte, error) {
	start := c.tr.now()
	out, err := c.inner.EncodeInto(dst, update)
	c.tr.seam(spanEncode, int(c.round.Load()), start, int64(len(out)))
	return out, err
}

func (c *tracedCodec) DecodeInto(dst []float64, payload []byte, dim int) ([]float64, error) {
	start := c.tr.now()
	out, err := c.inner.DecodeInto(dst, payload, dim)
	c.tr.seam(spanDecode, int(c.round.Load()), start, 0)
	return out, err
}

// tracedSchedule marks round starts: every engine asks the learning-rate
// schedule for round t's rate before anything else happens in round t.
type tracedSchedule struct {
	inner core.Schedule
	tr    *tracer
	round *atomic.Int64
}

func (s *tracedSchedule) At(t int) float64 {
	s.tr.markRoundStart(t)
	s.round.Store(int64(t))
	return s.inner.At(t)
}

// countedDist counts timing draws.
type countedDist struct {
	inner sim.Dist
	tr    *tracer
}

func (d countedDist) Name() string { return d.inner.Name() }

func (d countedDist) Sample(rng *xrand.Stream) time.Duration {
	d.tr.draw()
	return d.inner.Sample(rng)
}

// roundLog is the observer every repetition attaches, traced or not: it is
// the round-end mark, the source of round wall times, and the independent
// byte ledger CumUplinkBytes is checked against.
type roundLog struct {
	origin time.Time
	// feedback closes the adaptive gate's loop on the emu tier, whose
	// server has no fl.FilterFeedback channel of its own: the round-end
	// event reports the upload count to the filter the in-process clients
	// share, before the next round's broadcast goes out.
	feedback fl.FilterFeedback

	events []telemetry.RoundEvent
	endNS  []int64 // OnRound timestamps, ns since origin

	clientEvents int64
	clientBytes  int64 // Σ ClientEvent.UplinkBytes: payloads + 16 per skip
}

func (l *roundLog) OnRound(e telemetry.RoundEvent) {
	l.endNS = append(l.endNS, int64(time.Since(l.origin)))
	l.events = append(l.events, e)
	if l.feedback != nil {
		l.feedback.ObserveRound(e.Round, e.Uploaded, e.Participants)
	}
}

func (l *roundLog) OnClient(e telemetry.ClientEvent) {
	l.clientEvents++
	l.clientBytes += e.UplinkBytes
}
