package emu

import (
	"strings"
	"testing"
	"time"
)

// TestChaosMinQuorumExactlyMetAtDeadline runs a real cluster where the
// deadline fires with accepted == MinQuorum exactly: two of three clients
// drop every reply, the floor is one. The round must aggregate (not abort)
// and the droppers must be recorded as stragglers.
func TestChaosMinQuorumExactlyMetAtDeadline(t *testing.T) {
	plan := NewFaultPlan().
		Add(1, 1, Fault{Kind: FaultDropUpdate}).Add(2, 1, Fault{Kind: FaultDropUpdate}).
		Add(1, 2, Fault{Kind: FaultDropUpdate}).Add(2, 2, Fault{Kind: FaultDropUpdate})
	res := chaosCluster(t, 3, 2, 700*time.Millisecond, 1, plan)
	if got := len(res.Server.History); got != 2 {
		t.Fatalf("aggregated %d rounds, want 2 (quorum exactly met must not abort)", got)
	}
	if res.Server.StragglerCounts[0] != 0 {
		t.Fatalf("client 0 replied every round but has %d straggler rounds", res.Server.StragglerCounts[0])
	}
	for c := 1; c <= 2; c++ {
		if res.Server.StragglerCounts[c] != 2 {
			t.Fatalf("client %d dropped both rounds but has %d straggler rounds", c, res.Server.StragglerCounts[c])
		}
	}
}

// TestChaosAllStragglerAbortMessage runs the all-straggler abort twice and
// asserts the quorum error is (a) the deadline-fired variant with its full
// accounting and (b) stable across runs — downstream tooling greps for it.
func TestChaosAllStragglerAbortMessage(t *testing.T) {
	run := func() error {
		plan := NewFaultPlan().
			Add(0, 1, Fault{Kind: FaultDropUpdate}).Add(1, 1, Fault{Kind: FaultDropUpdate})
		cfg := clusterConfig(t, 2, 3, nil)
		cfg.DialTimeout = 10 * time.Second
		cfg.RoundDeadline = 500 * time.Millisecond
		cfg.MinQuorum = 1
		cfg.Faults = plan
		_, err := RunCluster(cfg)
		return err
	}
	first, second := run(), run()
	if first == nil || second == nil {
		t.Fatalf("all-straggler round must abort, got %v / %v", first, second)
	}
	want := "emu: round 1: quorum not met at deadline 500ms: 0 of 2 replies (minimum 1)"
	if !strings.Contains(first.Error(), want) {
		t.Fatalf("abort error = %q, want it to contain %q", first, want)
	}
	if first.Error() != second.Error() {
		t.Fatalf("abort message unstable across reruns:\n  first:  %q\n  second: %q", first, second)
	}
}
