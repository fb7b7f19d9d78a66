package emu

import (
	"errors"
	"fmt"
	"sort"

	"cmfl/internal/telemetry"
)

// roundOutcome is the root's merged, canonically ordered view of one round:
// what the old flat round loop derived from its single inbox, rebuilt from
// shard partials so the downstream accounting is layout-blind.
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

// runRound drives one synchronous round through the aggregation tree: a
// broadcast phase fanned out to every shard in fixed order, global failure
// checks over the collected broadcast partials, then a gather phase, the
// global quorum decision, and the merge. Directives go out in fixed shard
// order and partials are collected in the same order, so root-side state
// never depends on shard timing.
//
//cmfl:deterministic
func (s *Server) runRound(t int, params []float64, res *ServerResult) (*roundOutcome, error) {
	s.modelFrame = appendModelFrame(s.modelFrame[:0], t, params)
	out := &roundOutcome{}

	// Phase 1: broadcast. Shards run their model writes concurrently; the
	// root waits for all of them so every shard's gather deadline starts
	// only after the whole fleet received the round — same timing contract
	// as the flat server's single broadcast barrier.
	for _, a := range s.shards {
		if err := a.direct(shardDirective{kind: dirBroadcast, round: t, frame: s.modelFrame}); err != nil {
			return nil, err
		}
	}
	expectedTotal := 0
	var bcastErr error
	for _, a := range s.shards {
		p, err := a.collect()
		if err != nil {
			return nil, err
		}
		res.DownlinkWireBytes += p.sent
		out.faults += p.faults
		s.applyDropped(p.dropped, res)
		expectedTotal += p.expected
		if p.err != nil && bcastErr == nil {
			bcastErr = p.err
		}
	}
	if bcastErr != nil {
		return nil, fmt.Errorf("emu: round %d broadcast: %w", t, bcastErr)
	}
	if expectedTotal == 0 {
		// No shard reached anyone — a global judgement no single shard can
		// make (one shard losing all of its clients is survivable).
		return nil, fmt.Errorf("emu: round %d broadcast: %w", t, errors.New("emu: all clients failed"))
	}

	// Phase 2: gather. Each shard drains its own clients against its own
	// deadline; the root collects the partials in shard order.
	for _, a := range s.shards {
		if err := a.direct(shardDirective{kind: dirGather, round: t, dim: len(params)}); err != nil {
			return nil, err
		}
	}
	parts := make([]*shardPartial, len(s.shards))
	for i, a := range s.shards {
		p, err := a.collect()
		if err != nil {
			return nil, err
		}
		parts[i] = p
	}
	for _, p := range parts {
		if p.err != nil {
			return nil, fmt.Errorf("emu: round %d gather: %w", t, p.err)
		}
	}

	// Merge the drain/fault tallies in fixed shard order.
	accepted, deadlineFired := 0, false
	for _, p := range parts {
		out.wire += p.wire
		out.late += p.late
		out.dups += p.dups
		out.faults += p.faults
		s.applyDropped(p.dropped, res)
		accepted += p.accepted
		out.expected += p.expectedEnd
		deadlineFired = deadlineFired || p.deadlineFired
		out.stragglers = append(out.stragglers, p.stragglers...)
	}
	sort.Ints(out.stragglers)

	// The quorum is GLOBAL: replies are summed across shards and judged
	// here, with the flat server's exact failure modes. Per-shard quorum
	// floors (ShardLimits.MinQuorum) already failed inside gather.
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
	for i, p := range parts {
		s.bumpShardCounters(i, p)
	}

	// Merge the exact partial sums in fixed shard order — the order is
	// cosmetic, since exact accumulation is grouping- and order-invariant,
	// but fixing it keeps the loop deterministic to inspection too.
	s.rootAcc.Reset(len(params))
	for _, p := range parts {
		s.rootAcc.Merge(p.sum)
	}

	// Canonicalize reply order by global client id: float accumulation is
	// already layout-proof, but telemetry emission and the history records
	// must read identically too.
	for _, p := range parts {
		for _, m := range p.replies {
			s.replies[m.client] = m.reply
			out.accepted = append(out.accepted, m.client)
			if m.encoded {
				res.CodecUpdates++
				res.CodecEncodedBytes += m.reply.Bytes
				res.CodecRawBytes += int64(len(params)) * 8
			}
		}
	}
	sort.Ints(out.accepted)
	return out, nil
}

// directDone fans the final best-effort done frame out to every shard and
// folds the written bytes into the result.
func (s *Server) directDone(res *ServerResult) {
	for _, a := range s.shards {
		if a.direct(shardDirective{kind: dirDone}) != nil {
			return
		}
	}
	for _, a := range s.shards {
		p, err := a.collect()
		if err != nil {
			return
		}
		res.DownlinkWireBytes += p.sent
	}
}

// applyDropped folds shard-reported connection deaths into DroppedClients,
// first failing round wins (partials arrive in round order, so the first
// record seen is the first failure).
func (s *Server) applyDropped(dropped []droppedClient, res *ServerResult) {
	if len(dropped) == 0 {
		return
	}
	if res.DroppedClients == nil {
		res.DroppedClients = make(map[int]int)
	}
	for _, d := range dropped {
		if _, ok := res.DroppedClients[d.id]; !ok {
			res.DroppedClients[d.id] = d.round
		}
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
