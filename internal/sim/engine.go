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
// each reply's virtual delay is drawn as soon as it is packed, and the event
// heap drained through the quorum decides whose reply the round accepts.
//
//cmfl:deterministic
func Run(cfg Config) (*Result, error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	n := len(cfg.ClientData)
	s := &schedule{
		cfg:      &cfg,
		timing:   make([]*xrand.Stream, n),
		expected: make([]bool, n),
		delays:   make([]time.Duration, n),
		q:        fl.NewQuorum(n),
		res:      &Result{StragglerCounts: make([]int, n)},
	}
	if cfg.Registry != nil {
		s.met = MetricFamilies(cfg.Registry)
	}

	// Training shuffles come from fl.ClientStream in compat mode (bit parity
	// with fl.Run), from the compact splitmix64 derivation otherwise; timing
	// draws always use a compact stream of their own.
	train := make([]*xrand.Stream, n)
	for c := 0; c < n; c++ {
		if cfg.CompatStreams {
			train[c] = fl.ClientStream(cfg.Seed, c)
		} else {
			train[c] = xrand.DeriveCompact(cfg.Seed, "sim-train", c)
		}
		s.timing[c] = xrand.DeriveCompact(cfg.Seed, "sim-timing", c)
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
	res := s.res
	for i, st := range out.History {
		h := &res.History[i]
		h.RoundEvent, h.TrainLoss, h.MeanRelevance = st.RoundEvent, st.TrainLoss, st.MeanRelevance
	}
	res.FinalParams, res.SkipCounts, res.FilterName, res.VirtualDuration = out.FinalParams, out.SkipCounts, out.FilterName, s.clock
	return res, nil
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
	delays   []time.Duration // client c's reply delay this round
	accepted []int

	q     *fl.Quorum
	heap  eventHeap
	clock time.Duration // virtual now; rounds advance it monotonically
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
// the payload's time on the uplink. The delay alone decides the verdict: a
// current-round reply is accepted unless it lands after the deadline, and
// one landing exactly on it is accepted (Accept's drain holds it to this).
func (s *schedule) Packed(_, c int, r *fl.Reply) bool {
	delay := s.cfg.Arrival.Sample(s.timing[c]) + s.cfg.Latency.Sample(s.timing[c])
	if s.cfg.BandwidthBytesPerSec > 0 {
		delay += time.Duration(float64(r.Bytes) / s.cfg.BandwidthBytesPerSec * float64(time.Second))
	}
	s.delays[c] = max(delay, 0)
	return s.cfg.RoundDeadline == 0 || s.delays[c] <= s.cfg.RoundDeadline
}

// Accept runs round t in virtual time and returns the replies that beat the
// deadline, in ascending client id.
func (s *schedule) Accept(t int, trained []int, replies []fl.Reply) ([]int, error) {
	roundStart := s.clock

	// Schedule the round: every expected reply in ascending client order,
	// then the deadline. The push order is the (time, seq) tie-break, so
	// zero-latency replies drain in client order and a reply landing exactly
	// on the deadline beats the deadline event.
	s.q.BeginRound(t, s.expected)
	for _, c := range trained {
		s.heap.push(Event{At: roundStart + s.delays[c], Kind: EventArrive, Client: c, Round: t})
	}
	if s.cfg.RoundDeadline > 0 {
		s.heap.push(Event{At: roundStart + s.cfg.RoundDeadline, Kind: EventDeadline, Round: t})
	}

	// Drain events in virtual-time order until the round closes: all
	// expected replies in, or the deadline fires. Events tagged with earlier
	// rounds are the straggler tail — replies drain as late frames; outrun
	// deadlines are inert.
	deadlineFired := false
	roundEnd := roundStart
	for !deadlineFired && !s.q.Complete() {
		ev, ok := s.heap.pop()
		if !ok {
			return nil, fmt.Errorf("sim: round %d: event heap drained with %d of %d replies outstanding", t, s.q.Accepted(), s.q.Expected())
		}
		if ev.Round != t {
			if ev.Kind == EventArrive {
				if v := s.q.Classify(ev.Client, ev.Round); v != fl.VerdictLate {
					return nil, fmt.Errorf("sim: round %d: stale reply from client %d classified %v, want late", t, ev.Client, v)
				}
				s.res.LateReplies++
				if s.met != nil {
					s.met.LateReplies.Inc()
				}
			}
			continue
		}
		switch ev.Kind {
		case EventDeadline:
			deadlineFired = true
			roundEnd = ev.At
		case EventArrive:
			if v := s.q.Classify(ev.Client, ev.Round); v != fl.VerdictAccept {
				return nil, fmt.Errorf("sim: round %d: current-round reply from client %d classified %v", t, ev.Client, v)
			}
			roundEnd = ev.At
			if s.met != nil {
				s.met.ReplyLatency.Observe((ev.At - roundStart).Seconds())
				s.met.ReplyBytes.Observe(float64(replies[ev.Client].Bytes))
			}
		}
	}
	if got := s.q.Accepted(); got < s.cfg.MinQuorum {
		if deadlineFired {
			return nil, fmt.Errorf("sim: round %d: quorum not met at deadline %v: %d of %d replies (minimum %d)",
				t, s.cfg.RoundDeadline, got, s.q.Expected(), s.cfg.MinQuorum)
		}
		return nil, fmt.Errorf("sim: round %d: only %d replies possible (minimum %d)", t, got, s.cfg.MinQuorum)
	}

	s.accepted = s.accepted[:0]
	for _, c := range trained {
		if s.q.Replied(c) {
			s.accepted = append(s.accepted, c)
		} else {
			s.res.StragglerCounts[c]++
		}
	}
	s.clock = roundEnd
	s.res.History = append(s.res.History, RoundStats{VirtualStart: roundStart, VirtualEnd: roundEnd, DeadlineFired: deadlineFired})
	if s.met != nil {
		s.met.RoundDuration.Observe((roundEnd - roundStart).Seconds())
	}
	return s.accepted, nil
}
