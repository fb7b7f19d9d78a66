package sim

import (
	"fmt"
	"time"

	"cmfl/internal/fl"
	"cmfl/internal/telemetry"
	"cmfl/internal/xrand"
)

// Run executes the simulated federated training in virtual time: fl's
// synchronous loop under sim's schedule. Availability decides who trains,
// each reply's virtual delay is drawn as soon as it is packed, and one pass
// over the trained clients closes the round.
//
//cmfl:deterministic
func Run(cfg Config) (*Result, error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	s := newSchedule(&cfg, len(cfg.ClientData))
	// Training shuffles come from fl.ClientStream in compat mode (bit parity
	// with fl.Run), from the compact splitmix64 derivation otherwise.
	train := make([]*xrand.Stream, len(cfg.ClientData))
	for c := range train {
		if cfg.CompatStreams {
			train[c] = fl.ClientStream(cfg.Seed, c)
		} else {
			train[c] = xrand.DeriveCompact(cfg.Seed, "sim-train", c)
		}
	}

	out, err := fl.RunSchedule(fl.Config{
		Model: cfg.Model, ClientData: cfg.ClientData,
		Epochs: cfg.Epochs, Batch: cfg.Batch, LR: cfg.LR,
		Filter: cfg.Filter, Compressor: cfg.Compressor,
		Rounds: cfg.Rounds, Seed: cfg.Seed, Parallelism: cfg.Shards,
		Observers: cfg.Observers,
	}, telemetry.EngineSim, s, train)
	if err != nil {
		return nil, err
	}
	for i, st := range out.History {
		s.res.History[i].RoundStats = st
	}
	s.res.FinalParams, s.res.SkipCounts, s.res.FilterName, s.res.VirtualDuration = out.FinalParams, out.SkipCounts, out.FilterName, s.clock
	return s.res, nil
}

// schedule is sim's fl.Schedule. Everything but Packed runs on the loop's
// goroutine; Packed touches only the packed client's stream and delay slot.
type schedule struct {
	cfg *Config
	met *Families // nil without a Registry
	res *Result   // StragglerCounts, LateReplies and each round's virtual record

	timing   []*xrand.Stream // client c's availability, arrival and latency draws, in that order each round
	expected []bool          // the broadcast reached client c this round
	trained  []int
	delays   []time.Duration // client c's reply delay this round, in [0, never]
	accepted []int
	late     []straggler // replies cut off by their round's deadline and not yet drained

	q     *fl.Quorum
	clock time.Duration // virtual now; rounds advance it monotonically, saturating at never
}

// newSchedule builds the schedule of a validated cfg over n clients. Timing
// draws use a compact stream per client of their own.
func newSchedule(cfg *Config, n int) *schedule {
	s := &schedule{
		cfg:      cfg,
		timing:   make([]*xrand.Stream, n),
		expected: make([]bool, n),
		delays:   make([]time.Duration, n),
		q:        fl.NewQuorum(n),
		res:      &Result{History: make([]RoundStats, 0, cfg.Rounds), StragglerCounts: make([]int, n)},
	}
	for c := range s.timing {
		s.timing[c] = xrand.DeriveCompact(cfg.Seed, "sim-timing", c)
	}
	if cfg.Registry != nil {
		s.met = MetricFamilies(cfg.Registry)
	}
	return s
}

// straggler is a reply its round's deadline cut off: it reaches the server
// at virtual instant at, where a later round drains it as a late frame.
type straggler struct {
	at            time.Duration
	client, round int
}

// Participants draws availability in ascending client order, before any
// worker touches the round.
func (s *schedule) Participants(int) []int {
	s.trained = s.trained[:0]
	for c := range s.expected {
		s.expected[c] = s.cfg.Availability >= 1 || s.timing[c].Float64() < s.cfg.Availability
		if s.expected[c] {
			s.trained = append(s.trained, c)
		}
	}
	return s.trained
}

// Packed draws client c's reply delay: local arrival, network latency and
// the payload's time on the uplink, saturated at never. The delay alone
// decides the verdict (onTime), and Accept reads it back from the same slot.
func (s *schedule) Packed(_, c int, r *fl.Reply) bool {
	delay := saturate(s.cfg.Arrival.Sample(s.timing[c])) + saturate(s.cfg.Latency.Sample(s.timing[c]))
	if s.cfg.BandwidthBytesPerSec > 0 {
		delay += nanos(float64(r.Bytes) / s.cfg.BandwidthBytesPerSec * float64(time.Second))
	}
	s.delays[c] = min(max(delay, 0), never)
	return s.onTime(s.delays[c])
}

// onTime reports whether a reply delayed by d beats the deadline: a reply
// landing exactly on it does.
func (s *schedule) onTime(d time.Duration) bool {
	return s.cfg.RoundDeadline == 0 || d <= s.cfg.RoundDeadline
}

// at is the virtual instant d after start, saturating at never.
func at(start, d time.Duration) time.Duration { return min(start+d, never) }

// Accept closes round t in virtual time and returns the replies that beat
// the deadline, in ascending client id. One pass over the trained clients
// classifies each on-time reply through the quorum and carries each
// straggler. The round ends at the deadline if a reply missed it, otherwise
// at the last arrival. The carried stragglers of earlier rounds that land
// by then drain as late frames: they are exactly the replies a virtual clock
// draining every event in (time, schedule order) would deliver before the
// round closes, since an earlier round's reply was always scheduled first.
func (s *schedule) Accept(t int, trained []int, replies []fl.Reply) ([]int, error) {
	roundStart := s.clock
	roundEnd, deadlineFired := roundStart, false
	s.q.BeginRound(t, s.expected)
	s.accepted = s.accepted[:0]
	for _, c := range trained {
		d := s.delays[c]
		if !s.onTime(d) {
			deadlineFired = true
			s.res.StragglerCounts[c]++
			s.late = append(s.late, straggler{at: at(roundStart, d), client: c, round: t})
			continue
		}
		if v := s.q.Classify(c, t); v != fl.VerdictAccept {
			return nil, fmt.Errorf("sim: round %d: current-round reply from client %d classified %v", t, c, v)
		}
		s.accepted = append(s.accepted, c)
		roundEnd = max(roundEnd, at(roundStart, d))
		if s.met != nil {
			s.met.ReplyLatency.Observe(d.Seconds())
			s.met.ReplyBytes.Observe(float64(replies[c].Bytes))
		}
	}
	if deadlineFired {
		roundEnd = at(roundStart, s.cfg.RoundDeadline)
	}

	// This round's stragglers land after its close, or with it once the
	// clock has saturated; either way they wait for a later round.
	kept := s.late[:0]
	for _, e := range s.late {
		if e.round == t || e.at > roundEnd {
			kept = append(kept, e)
			continue
		}
		if v := s.q.Classify(e.client, e.round); v != fl.VerdictLate {
			return nil, fmt.Errorf("sim: round %d: stale reply from client %d classified %v, want late", t, e.client, v)
		}
		s.res.LateReplies++
		if s.met != nil {
			s.met.LateReplies.Inc()
		}
	}
	s.late = kept

	if got := len(s.accepted); got < s.cfg.MinQuorum {
		if deadlineFired {
			return nil, fmt.Errorf("sim: round %d: quorum not met at deadline %v: %d of %d replies (minimum %d)",
				t, s.cfg.RoundDeadline, got, len(trained), s.cfg.MinQuorum)
		}
		return nil, fmt.Errorf("sim: round %d: only %d replies possible (minimum %d)", t, got, s.cfg.MinQuorum)
	}
	s.clock = roundEnd
	s.res.History = append(s.res.History, RoundStats{VirtualStart: roundStart, VirtualEnd: roundEnd, DeadlineFired: deadlineFired})
	if s.met != nil {
		s.met.RoundDuration.Observe((roundEnd - roundStart).Seconds())
	}
	return s.accepted, nil
}
