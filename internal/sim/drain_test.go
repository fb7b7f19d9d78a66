package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"cmfl/internal/fl"
	"cmfl/internal/telemetry"
)

// This file keeps the event-heap drain that closed sim's rounds before
// Accept became one pass, as the reference the pass must reproduce
// (FuzzAcceptMatchesHeap): every reply and each round's deadline is an
// event in a binary min-heap, drained in (virtual time, schedule order)
// until the round is complete or its deadline fires.

// EventKind distinguishes the two occurrences the virtual clock schedules.
type EventKind uint8

const (
	// EventArrive is a client's uplink reply reaching the server.
	EventArrive EventKind = iota
	// EventDeadline is a round's quorum deadline firing.
	EventDeadline
)

// Event is one scheduled occurrence in virtual time. At is the virtual
// timestamp; Seq is the push sequence number that breaks ties between
// events scheduled for the same instant, so equal-timestamp events drain in
// the order they were scheduled.
type Event struct {
	At     time.Duration
	Seq    uint64
	Kind   EventKind
	Client int
	Round  int
}

// eventLess orders the heap by (At, Seq): earliest first, FIFO on ties.
func eventLess(a, b Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.Seq < b.Seq
}

// eventHeap is a binary min-heap of Events ordered by eventLess, in one flat
// slice whose capacity is reused across rounds.
type eventHeap struct {
	events []Event
	seq    uint64
}

// push schedules an event, stamping its tie-break sequence number.
func (h *eventHeap) push(e Event) {
	e.Seq = h.seq
	h.seq++
	h.events = append(h.events, e)
	i := len(h.events) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(h.events[i], h.events[parent]) {
			break
		}
		h.events[i], h.events[parent] = h.events[parent], h.events[i]
		i = parent
	}
}

// pop removes and returns the earliest event; ok is false on an empty heap.
func (h *eventHeap) pop() (e Event, ok bool) {
	n := len(h.events)
	if n == 0 {
		return Event{}, false
	}
	top := h.events[0]
	h.events[0] = h.events[n-1]
	h.events = h.events[:n-1]
	n--
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && eventLess(h.events[l], h.events[smallest]) {
			smallest = l
		}
		if r < n && eventLess(h.events[r], h.events[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.events[i], h.events[smallest] = h.events[smallest], h.events[i]
		i = smallest
	}
	return top, true
}

// len reports the number of scheduled events.
func (h *eventHeap) len() int { return len(h.events) }

// heapSchedule is sim's schedule closing its rounds through the heap drain.
type heapSchedule struct {
	*schedule
	heap eventHeap
}

// Accept runs round t in virtual time through the heap and returns the
// replies that beat the deadline, in ascending client id.
func (s *heapSchedule) Accept(t int, trained []int, replies []fl.Reply) ([]int, error) {
	roundStart := s.clock

	// Schedule the round: every expected reply in ascending client order,
	// then the deadline. The push order is the (time, seq) tie-break, so a
	// reply landing exactly on the deadline beats the deadline event.
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

// bucketCounts renders reg's exposition without the histogram sums: the
// one-pass close observes reply latencies in client order, the heap in time
// order, so only the sums' last bits may tell them apart.
func bucketCounts(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(sb.String(), "\n")
	return strings.Join(slices.DeleteFunc(lines, func(l string) bool {
		name, _, _ := strings.Cut(l, " ")
		name, _, _ = strings.Cut(name, "{")
		return strings.HasSuffix(name, "_sum")
	}), "\n")
}

// FuzzAcceptMatchesHeap runs one multi-round schedule through Accept's one
// pass and through the heap drain, and requires the same rounds from both:
// accepted lists, errors, virtual bounds, deadline verdicts, late replies,
// straggler counts and histogram buckets. raw[0] picks 1–8 clients, raw[1] a
// deadline of 0–3 ms (0: none), raw[2] the availability (1, 0.75 or 0.5) and
// 1–6 rounds, and the rest the reply delays in whole milliseconds 0–7,
// cycled, so ties with each other, with the deadline and with the straggler
// tail are the common case.
func FuzzAcceptMatchesHeap(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 1, 2, 2})                       // a round-1 straggler lands exactly as round 2 ends
	f.Add([]byte{3, 0, 9, 7, 0, 3, 3, 5})                    // no deadline: every round waits for its last reply
	f.Add([]byte{3, 2, 12, 2, 2, 1, 0})                      // replies exactly at the deadline
	f.Add([]byte{5, 1, 16, 7, 0, 1, 7, 1, 0, 6, 1, 0})       // stragglers carried across several rounds
	f.Add([]byte{7, 3, 14, 0, 4, 5, 6, 7, 3, 2, 1, 0, 4})    // availability 0.5
	f.Add([]byte{2, 1, 3, 5, 5, 5})                          // every reply misses: the quorum fails
	f.Add([]byte{6, 2, 16, 3, 3, 2, 4, 2, 3, 3, 2, 4, 1, 5}) // availability 0.75
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 3 || len(raw) > 256 {
			t.Skip("three header bytes, a bounded schedule")
		}
		n := 1 + int(raw[0]%8)
		cfg := Config{
			RoundDeadline: time.Duration(raw[1]%4) * time.Millisecond,
			Availability:  []float64{1, 0.75, 0.5}[raw[2]%3],
			Rounds:        1 + int(raw[2]/3%6),
			Seed:          int64(raw[0]),
			MinQuorum:     1,
		}
		delays := raw[3:]
		replies := make([]fl.Reply, n)
		for c := range replies {
			replies[c].Bytes = 16 << c
		}
		build := func() (*schedule, *telemetry.Registry) {
			cfg := cfg
			cfg.Registry = telemetry.NewRegistry()
			return newSchedule(&cfg, n), cfg.Registry
		}
		pass, passReg := build()
		ref, refReg := build()
		drain := &heapSchedule{schedule: ref}
		for round := 1; round <= cfg.Rounds; round++ {
			trained := pass.Participants(round)
			if got := drain.Participants(round); !slices.Equal(got, trained) {
				t.Fatalf("round %d: participants %v, heap %v", round, trained, got)
			}
			for _, c := range trained {
				var d time.Duration
				if len(delays) > 0 {
					d = time.Duration(delays[((round-1)*n+c)%len(delays)]%8) * time.Millisecond
				}
				pass.delays[c], ref.delays[c] = d, d
			}
			got, err := pass.Accept(round, trained, replies)
			want, wantErr := drain.Accept(round, trained, replies)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("round %d: error %v, heap %v", round, err, wantErr)
			}
			if err != nil {
				return
			}
			if !slices.Equal(got, want) {
				t.Fatalf("round %d: accepted %v, heap %v", round, got, want)
			}
			for _, c := range trained {
				if in := slices.Contains(got, c); in != pass.onTime(pass.delays[c]) {
					t.Fatalf("round %d client %d: accepted %v against its Packed verdict", round, c, in)
				}
			}
		}
		if !slices.Equal(pass.res.History, ref.res.History) {
			t.Fatalf("rounds %+v, heap %+v", pass.res.History, ref.res.History)
		}
		if pass.res.LateReplies != ref.res.LateReplies || !slices.Equal(pass.res.StragglerCounts, ref.res.StragglerCounts) {
			t.Fatalf("late %d stragglers %v, heap late %d stragglers %v",
				pass.res.LateReplies, pass.res.StragglerCounts, ref.res.LateReplies, ref.res.StragglerCounts)
		}
		if got, want := bucketCounts(t, passReg), bucketCounts(t, refReg); got != want {
			t.Fatalf("histograms differ:\n%s\nheap:\n%s", got, want)
		}
	})
}
