package fl

import "sort"

// Verdict classifies one reply frame against the current round.
type Verdict uint8

const (
	// VerdictAccept: a first reply for the current round — aggregate it.
	VerdictAccept Verdict = iota
	// VerdictDuplicate: the client already replied this round (e.g. a
	// resend after reconnect whose original did arrive). Drained, counted,
	// never aggregated twice.
	VerdictDuplicate
	// VerdictLate: a reply to an earlier round whose deadline already cut
	// the sender off. Drained and counted; the aggregate is immutable.
	VerdictLate
	// VerdictFuture: a reply to a round the server has not broadcast yet —
	// a protocol violation, the connection cannot be trusted.
	VerdictFuture
	// VerdictUnknown: client id outside [0, clients).
	VerdictUnknown
)

func (v Verdict) String() string {
	switch v {
	case VerdictAccept:
		return "accept"
	case VerdictDuplicate:
		return "duplicate"
	case VerdictLate:
		return "late"
	case VerdictFuture:
		return "future"
	case VerdictUnknown:
		return "unknown"
	}
	return "invalid"
}

// Quorum is the per-round reply bookkeeping shared by every aggregation
// loop that enforces RoundDeadline/MinQuorum semantics: which clients the
// round's model broadcast reached, which have replied, and what to do with
// frames that arrive outside their round. The TCP emulation's shard
// aggregators drive it with real frames; the discrete-event simulation
// (internal/sim) drives the identical machine with virtual-time arrival
// events, so the two engines cannot diverge on straggler or duplicate
// semantics. It is a pure state machine — no I/O, no clock — so the
// FuzzQuorum target can drive it with arbitrary sequences and check its
// invariants directly.
type Quorum struct {
	clients int
	round   int

	// expected marks clients whose round-t model write succeeded; only they
	// owe a reply. A current-round reply from an unexpected client is
	// promoted into the set (its update is valid) so the accounting
	// invariant accepted ≤ expectedCount always holds.
	expected      []bool
	replied       []bool
	expectedCount int
	accepted      int

	// lateFrames / dupFrames accumulate across rounds: drained frames that
	// were received but never aggregated.
	lateFrames int
	dupFrames  int
}

// NewQuorum builds the reply tracker for a fixed client population.
func NewQuorum(clients int) *Quorum {
	return &Quorum{
		clients:  clients,
		expected: make([]bool, clients),
		replied:  make([]bool, clients),
	}
}

// BeginRound arms the tracker for the given round. expected[i] reports
// whether the model broadcast reached client i (missing entries are false).
func (q *Quorum) BeginRound(round int, expected []bool) {
	q.round = round
	q.expectedCount = 0
	q.accepted = 0
	for i := range q.replied {
		q.replied[i] = false
		q.expected[i] = i < len(expected) && expected[i]
		if q.expected[i] {
			q.expectedCount++
		}
	}
}

// Classify routes one reply frame tagged (client, round).
//
//cmfl:hotpath
func (q *Quorum) Classify(client, round int) Verdict {
	if client < 0 || client >= q.clients {
		return VerdictUnknown
	}
	switch {
	case round < q.round:
		q.lateFrames++
		return VerdictLate
	case round > q.round:
		return VerdictFuture
	}
	if q.replied[client] {
		q.dupFrames++
		return VerdictDuplicate
	}
	if !q.expected[client] {
		q.expected[client] = true
		q.expectedCount++
	}
	q.replied[client] = true
	q.accepted++
	return VerdictAccept
}

// Complete reports whether every expected client has replied — the fast
// path that lets healthy rounds finish without waiting for the deadline.
//
//cmfl:hotpath
func (q *Quorum) Complete() bool { return q.accepted >= q.expectedCount }

// Accepted returns the number of replies aggregated this round.
func (q *Quorum) Accepted() int { return q.accepted }

// Expected returns the number of clients that owe a reply this round
// (broadcast reached plus promotions).
func (q *Quorum) Expected() int { return q.expectedCount }

// StragglerCount returns how many expected clients have not replied,
// without materialising the id list — the million-client simulation reads
// this every round where Stragglers would allocate.
func (q *Quorum) StragglerCount() int { return q.expectedCount - q.accepted }

// Replied reports whether client's reply was accepted this round. Clients
// outside [0, clients) have not replied.
func (q *Quorum) Replied(client int) bool {
	return client >= 0 && client < q.clients && q.replied[client]
}

// DrainCounts returns the cumulative late and duplicate frame tallies.
func (q *Quorum) DrainCounts() (late, dups int) { return q.lateFrames, q.dupFrames }

// Stragglers lists the expected clients that have not replied, ascending —
// the set excluded when the deadline fires.
func (q *Quorum) Stragglers() []int {
	var out []int
	for i := range q.expected {
		if q.expected[i] && !q.replied[i] {
			out = append(out, i)
		}
	}
	sort.Ints(out) // already ascending by construction; keep the contract explicit
	return out
}
