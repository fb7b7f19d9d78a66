package fl

import (
	"reflect"
	"testing"
)

func mask(clients int, on ...int) []bool {
	m := make([]bool, clients)
	for _, i := range on {
		m[i] = true
	}
	return m
}

func TestQuorumHappyPath(t *testing.T) {
	q := NewQuorum(3)
	q.BeginRound(1, mask(3, 0, 1, 2))
	if q.Complete() {
		t.Fatal("complete before any reply")
	}
	for i := 0; i < 3; i++ {
		if v := q.Classify(i, 1); v != VerdictAccept {
			t.Fatalf("client %d verdict = %v, want accept", i, v)
		}
	}
	if !q.Complete() {
		t.Fatal("not complete after all replies")
	}
	if got := q.Stragglers(); len(got) != 0 {
		t.Fatalf("stragglers = %v, want none", got)
	}
}

func TestQuorumVerdicts(t *testing.T) {
	q := NewQuorum(4)
	q.BeginRound(2, mask(4, 0, 1, 2)) // client 3's broadcast failed

	if v := q.Classify(0, 2); v != VerdictAccept {
		t.Fatalf("first reply = %v, want accept", v)
	}
	if v := q.Classify(0, 2); v != VerdictDuplicate {
		t.Fatalf("second reply = %v, want duplicate", v)
	}
	if v := q.Classify(1, 1); v != VerdictLate {
		t.Fatalf("old-round reply = %v, want late", v)
	}
	if v := q.Classify(1, 3); v != VerdictFuture {
		t.Fatalf("future-round reply = %v, want future", v)
	}
	if v := q.Classify(-1, 2); v != VerdictUnknown {
		t.Fatalf("negative client = %v, want unknown", v)
	}
	if v := q.Classify(4, 2); v != VerdictUnknown {
		t.Fatalf("out-of-range client = %v, want unknown", v)
	}
	if q.dupFrames != 1 || q.lateFrames != 1 {
		t.Fatalf("dup/late = %d/%d, want 1/1", q.dupFrames, q.lateFrames)
	}

	// An unexpected client replying for the current round is promoted into
	// the expected set and accepted: its update is valid round-2 work.
	if v := q.Classify(3, 2); v != VerdictAccept {
		t.Fatalf("unexpected current-round reply = %v, want accept", v)
	}
	if q.expectedCount != 4 || q.accepted != 2 {
		t.Fatalf("expected/accepted = %d/%d, want 4/2", q.expectedCount, q.accepted)
	}
	if got, want := q.Stragglers(), []int{1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("stragglers = %v, want %v", got, want)
	}
}

func TestQuorumBeginRoundResets(t *testing.T) {
	q := NewQuorum(2)
	q.BeginRound(1, mask(2, 0, 1))
	q.Classify(0, 1)
	q.Classify(0, 1) // dup
	q.BeginRound(2, mask(2, 1))

	if q.expectedCount != 1 || q.accepted != 0 {
		t.Fatalf("after reset expected/accepted = %d/%d, want 1/0", q.expectedCount, q.accepted)
	}
	// Cumulative drain counters survive the reset.
	if q.dupFrames != 1 {
		t.Fatalf("dupFrames reset unexpectedly: %d", q.dupFrames)
	}
	// Client 0 is no longer expected: its round-1 reply is late, a round-2
	// reply is a promotion.
	if v := q.Classify(0, 1); v != VerdictLate {
		t.Fatalf("stale reply after reset = %v, want late", v)
	}
	if got, want := q.Stragglers(), []int{1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("stragglers = %v, want %v", got, want)
	}
}

// TestQuorumDeadlineEdges drives the state machine through the reply
// patterns a deadline can cut off, table-driven, and checks the quantities
// tree.go judges the global quorum with: accepted vs the minimum at the
// instant the deadline would fire.
func TestQuorumDeadlineEdges(t *testing.T) {
	cases := []struct {
		name      string
		clients   int
		expected  []int // clients the broadcast reached
		replies   []int // clients that reply in time, in order
		minQuorum int
		wantOK    bool // quorum met when the deadline fires
		wantAcc   int
		wantStrag int
	}{
		{
			name:    "exactly met at deadline",
			clients: 4, expected: []int{0, 1, 2, 3}, replies: []int{0, 2},
			minQuorum: 2, wantOK: true, wantAcc: 2, wantStrag: 2,
		},
		{
			name:    "one short at deadline",
			clients: 4, expected: []int{0, 1, 2, 3}, replies: []int{3},
			minQuorum: 2, wantOK: false, wantAcc: 1, wantStrag: 3,
		},
		{
			name:    "all stragglers",
			clients: 3, expected: []int{0, 1, 2}, replies: nil,
			minQuorum: 1, wantOK: false, wantAcc: 0, wantStrag: 3,
		},
		{
			name:    "promotion lifts accepted to the floor",
			clients: 3, expected: []int{0}, replies: []int{1, 2},
			minQuorum: 2, wantOK: true, wantAcc: 2, wantStrag: 1,
		},
		{
			name:    "full quorum finishes before the deadline",
			clients: 2, expected: []int{0, 1}, replies: []int{1, 0},
			minQuorum: 2, wantOK: true, wantAcc: 2, wantStrag: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := NewQuorum(tc.clients)
			q.BeginRound(7, mask(tc.clients, tc.expected...))
			for _, c := range tc.replies {
				if v := q.Classify(c, 7); v != VerdictAccept {
					t.Fatalf("reply from %d = %v, want accept", c, v)
				}
			}
			if got := q.Accepted() >= tc.minQuorum; got != tc.wantOK {
				t.Fatalf("quorum met = %v (accepted %d, min %d), want %v",
					got, q.Accepted(), tc.minQuorum, tc.wantOK)
			}
			if q.Accepted() != tc.wantAcc {
				t.Fatalf("accepted = %d, want %d", q.Accepted(), tc.wantAcc)
			}
			if q.StragglerCount() != tc.wantStrag {
				t.Fatalf("straggler count = %d, want %d", q.StragglerCount(), tc.wantStrag)
			}
			if got := len(q.Stragglers()); got != tc.wantStrag {
				t.Fatalf("len(Stragglers()) = %d, disagrees with StragglerCount %d", got, tc.wantStrag)
			}
			if full := q.Accepted() == q.Expected(); full != q.Complete() {
				t.Fatalf("Complete() = %v, accepted %d of %d", q.Complete(), q.Accepted(), q.Expected())
			}
		})
	}
}

// TestQuorumDuplicateAtRoundBoundary pins what happens to a resend that
// crosses BeginRound: inside the round it is a duplicate; once the next
// round is armed the same frame is late. Neither is ever aggregated, and
// both drain tallies survive the boundary.
func TestQuorumDuplicateAtRoundBoundary(t *testing.T) {
	cases := []struct {
		name  string
		steps []struct {
			client, round int
			want          Verdict
		}
		wantLate, wantDup int
	}{
		{
			name: "resend after accept, then round advances",
			steps: []struct {
				client, round int
				want          Verdict
			}{
				{0, 1, VerdictAccept},
				{0, 1, VerdictDuplicate}, // resend inside the round
				{1, 1, VerdictAccept},
				{0, 2, VerdictAccept},    // round advanced below
				{0, 1, VerdictLate},      // same resend, now across the boundary
				{0, 2, VerdictDuplicate}, // dup classification resets per round
			},
			wantLate: 1, wantDup: 2,
		},
		{
			name: "duplicate storm straddling the boundary",
			steps: []struct {
				client, round int
				want          Verdict
			}{
				{1, 1, VerdictAccept},
				{1, 1, VerdictDuplicate},
				{1, 1, VerdictDuplicate},
				{1, 2, VerdictAccept}, // round advanced below
				{1, 1, VerdictLate},
				{1, 1, VerdictLate},
			},
			wantLate: 2, wantDup: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := NewQuorum(2)
			q.BeginRound(1, mask(2, 0, 1))
			round := 1
			for i, s := range tc.steps {
				if s.round > round && s.want == VerdictAccept {
					round = s.round
					q.BeginRound(round, mask(2, 0, 1))
				}
				if v := q.Classify(s.client, s.round); v != s.want {
					t.Fatalf("step %d: Classify(%d, %d) = %v, want %v", i, s.client, s.round, v, s.want)
				}
				checkQuorumInvariants(t, q)
			}
			late, dups := q.DrainCounts()
			if late != tc.wantLate || dups != tc.wantDup {
				t.Fatalf("drain counts = %d late / %d dup, want %d/%d", late, dups, tc.wantLate, tc.wantDup)
			}
		})
	}
}

// FuzzQuorum drives the round-reply state machine with arbitrary operation
// sequences — begin-round with fuzz-chosen expected masks, classify with
// in- and out-of-range client ids and rounds before, at, and past the
// current one — and checks the bookkeeping invariants after every step
// (the same ones TestQuorumInvariants spells out deterministically).
// Run with `go test -fuzz '^FuzzQuorum$'`.
func FuzzQuorum(f *testing.F) {
	f.Add(uint8(3), []byte{0, 0x07, 1, 0x00, 5, 0x01, 9, 0x02})
	f.Add(uint8(1), []byte{0, 0xFF, 4, 0x10, 0, 0x01, 8, 0x00})
	f.Fuzz(func(t *testing.T, nClients uint8, ops []byte) {
		clients := int(nClients%8) + 1
		q := NewQuorum(clients)
		round := 0
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			if op%4 == 0 {
				round++
				expected := make([]bool, clients)
				for j := range expected {
					expected[j] = arg&(1<<(j%8)) != 0
				}
				q.BeginRound(round, expected)
			} else {
				// Client ids straddle [0, clients); rounds straddle the
				// current one in both directions.
				q.Classify(int(arg%16)-4, round+int(op%5)-2)
			}
			checkQuorumInvariants(t, q)
		}
	})
}

// TestQuorumInvariants mirrors what FuzzQuorum asserts, as a deterministic
// sanity check that the invariants themselves are satisfiable.
func TestQuorumInvariants(t *testing.T) {
	q := NewQuorum(5)
	q.BeginRound(3, mask(5, 0, 2, 4))
	seq := []struct{ c, r int }{{0, 3}, {0, 3}, {2, 2}, {4, 3}, {1, 3}, {3, 4}, {9, 3}}
	for _, s := range seq {
		q.Classify(s.c, s.r)
		checkQuorumInvariants(t, q)
	}
}

func checkQuorumInvariants(t *testing.T, q *Quorum) {
	t.Helper()
	if q.accepted > q.expectedCount {
		t.Fatalf("accepted %d > expected %d", q.accepted, q.expectedCount)
	}
	if q.expectedCount > q.clients {
		t.Fatalf("expected %d > clients %d", q.expectedCount, q.clients)
	}
	if got := len(q.Stragglers()); got != q.expectedCount-q.accepted {
		t.Fatalf("stragglers %d != expected-accepted %d", got, q.expectedCount-q.accepted)
	}
	for _, id := range q.Stragglers() {
		if q.replied[id] {
			t.Fatalf("straggler %d has replied", id)
		}
	}
	if q.lateFrames < 0 || q.dupFrames < 0 {
		t.Fatal("negative drain counter")
	}
}
