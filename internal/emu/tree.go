package emu

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"cmfl/internal/telemetry"
)

// roundOutcome is the root's merged, canonically ordered view of one round,
// rebuilt from the shard partials so the downstream accounting is
// layout-blind.
type roundOutcome struct {
	// accepted lists the clients whose reply counted, ascending; the replies
	// themselves are Server.replies[id], and the exact sum of their updates
	// is Server.rootAcc, for fl.Aggregator.Fold to round. Exactness makes it
	// independent of the shard layout — the determinism contract (see
	// internal/emu/shard). expected is the quorum's Expected summed over
	// the shards: the clients the broadcast reached, and any promoted.
	accepted   []int
	expected   int
	stragglers []int
	late, dups int
	faults     int
	wire       int64
}

// runRound drives one synchronous round as a fork-join: the root writes the
// model to every live client, every shard gathers its own clients' replies
// on a goroutine of its own, and the root joins them and merges their
// partials in fixed shard order, so root-side state never depends on shard
// timing. The outcome is the server's, reused by the next round.
//
//cmfl:deterministic
func (s *Server) runRound(t int, params []float64, res *ServerResult) (*roundOutcome, error) {
	s.modelFrame = appendModelFrame(s.modelFrame[:0], t, params)
	out := &s.out
	*out = roundOutcome{accepted: out.accepted[:0]}

	// Broadcast. Every write finishes before any shard's deadline starts:
	// the whole fleet has the round when the gathers begin.
	targets, errs := s.sendAll(s.modelFrame)
	clear(s.expected)
	reached := 0
	for i, tgt := range targets {
		if errs[i] == nil {
			res.DownlinkWireBytes += int64(len(s.modelFrame))
			s.expected[tgt.id] = true
			reached++
			continue
		}
		if s.markDown(tgt.id, tgt.gen) {
			out.faults++
			noteDropped(res, tgt.id, t)
			if !s.cfg.FaultTolerant {
				return nil, fmt.Errorf("emu: round %d broadcast: %w", t, clientError{client: tgt.id, err: fmt.Errorf("emu: write model frame: %w", errs[i])})
			}
		}
	}
	if reached == 0 {
		// One shard losing all of its clients is survivable; the whole fleet
		// is not.
		return nil, fmt.Errorf("emu: round %d broadcast: %w", t, errors.New("emu: all clients failed"))
	}

	// Gather. Each shard drains its own clients against the round deadline.
	var wg sync.WaitGroup
	for _, a := range s.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.gather(t, len(params), s.expected[a.lo:a.hi])
		}()
	}
	wg.Wait()
	for _, a := range s.shards {
		if err := a.part.err; err != nil {
			return nil, fmt.Errorf("emu: round %d gather: %w", t, err)
		}
	}

	// Merge the drain/fault tallies in fixed shard order. Shards own
	// ascending contiguous ranges, so their stragglers concatenate in order.
	accepted, deadlineFired := 0, false
	for _, a := range s.shards {
		p := &a.part
		out.wire += p.wire
		out.late += p.late
		out.dups += p.dups
		out.faults += p.faults
		for _, id := range p.dropped {
			noteDropped(res, id, t)
		}
		accepted += p.accepted
		out.expected += p.expected
		deadlineFired = deadlineFired || p.deadlineFired
		out.stragglers = append(out.stragglers, p.stragglers...)
	}

	// The quorum is GLOBAL: replies are summed across shards and judged
	// here, so the shard layout never changes a quorum decision.
	minQ := s.minQuorum()
	if accepted < minQ {
		if deadlineFired {
			return nil, fmt.Errorf("emu: round %d: quorum not met at deadline %v: %d of %d replies (minimum %d)",
				t, s.cfg.RoundDeadline, accepted, out.expected, minQ)
		}
		return nil, fmt.Errorf("emu: round %d: only %d replies possible (minimum %d)", t, accepted, minQ)
	}
	// Only rounds that aggregate advance the per-shard counters, matching
	// how the global families are pinned to ServerResult's accounting.
	for i, a := range s.shards {
		s.bumpShardCounters(i, &a.part)
	}

	// Merge the exact partial sums in fixed shard order — the order is
	// cosmetic, since exact accumulation is grouping- and order-invariant,
	// but fixing it keeps the loop deterministic to inspection too.
	s.rootAcc.Reset(len(params))
	for _, a := range s.shards {
		s.rootAcc.Merge(a.acc)
	}

	// Canonicalize reply order by global client id: float accumulation is
	// already layout-proof, but telemetry emission and the history records
	// must read identically too.
	for _, a := range s.shards {
		for _, m := range a.part.replies {
			s.replies[m.client] = m.reply
			out.accepted = append(out.accepted, m.client)
			if m.encoded {
				res.CodecUpdates++
				res.CodecEncodedBytes += m.reply.Bytes
				res.CodecRawBytes += int64(len(params)) * 8
			}
		}
	}
	slices.Sort(out.accepted)
	return out, nil
}

// sendAll writes frame to every live client, one goroutine per client, each
// write bounded by RoundTimeout, and returns the clients it wrote to,
// ascending, with each one's error (nil when the whole frame went out).
// Both slices are the server's, reused by the next call.
func (s *Server) sendAll(frame []byte) ([]liveTarget, []error) {
	s.targets = s.liveTargets(s.targets[:0])
	errs := s.sendErrs[:len(s.targets)]
	var wg sync.WaitGroup
	for i, tgt := range s.targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// I/O deadline only; read through the package clock hook, and
			// wall-clock never enters aggregation.
			if errs[i] = tgt.conn.SetWriteDeadline(now().Add(s.cfg.RoundTimeout)); errs[i] == nil {
				_, errs[i] = tgt.conn.Write(frame)
			}
		}()
	}
	wg.Wait()
	return s.targets, errs
}

// noteDropped records client id's connection death in round t in
// DroppedClients; the first failing round wins.
func noteDropped(res *ServerResult, id, t int) {
	if res.DroppedClients == nil {
		res.DroppedClients = make(map[int]int)
	}
	if _, ok := res.DroppedClients[id]; !ok {
		res.DroppedClients[id] = t
	}
}

// shardCounters are one shard's labeled telemetry family instances.
type shardCounters struct {
	rounds     *telemetry.Counter
	accepted   *telemetry.Counter
	wire       *telemetry.Counter
	stragglers *telemetry.Counter
}

// newShardCounters registers the cmfl_shard_* families for one shard. The
// shard index arrives as the label value parameter, mirroring the
// collector's engine-label idiom.
func newShardCounters(reg *telemetry.Registry, name string) shardCounters {
	label := `{shard="` + name + `"}`
	return shardCounters{
		rounds:     reg.Counter(`cmfl_shard_rounds_total`+label, "Gather phases this shard aggregated into the global round."),
		accepted:   reg.Counter(`cmfl_shard_accepted_replies_total`+label, "Replies this shard accepted into its exact partial sum."),
		wire:       reg.Counter(`cmfl_shard_uplink_wire_bytes_total`+label, "TCP payload bytes drained from this shard's clients (frames incl. framing overhead)."),
		stragglers: reg.Counter(`cmfl_shard_stragglers_total`+label, "Deadline stragglers among this shard's clients."),
	}
}

// bumpShardCounters folds one successful gather partial into the shard's
// labeled counters. Summing a family across shards reproduces the matching
// global counter (uplink wire bytes, stragglers) for rounds that aggregated.
func (s *Server) bumpShardCounters(i int, p *shardPartial) {
	if s.shardStats == nil {
		return
	}
	c := s.shardStats[i]
	c.rounds.Add(1)
	c.accepted.Add(int64(p.accepted))
	c.wire.Add(p.wire)
	c.stragglers.Add(int64(len(p.stragglers)))
}
