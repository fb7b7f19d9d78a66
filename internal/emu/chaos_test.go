package emu

import (
	"math"
	"strings"
	"testing"
	"time"

	"cmfl/internal/compress"
	"cmfl/internal/telemetry"
)

// chaosCluster runs one cluster under the given plan with a fresh registry,
// failing the test on server-side errors. Faulty clients may legitimately
// end mid-recovery, so client errors are returned for per-case inspection.
// Whatever the plan, every round's record and its published event must
// balance: Uploaded + Skipped + Dropped == Participants, with the deadline's
// stragglers, and only they, in Dropped.
func chaosCluster(t *testing.T, clients, rounds int, deadline time.Duration, minQuorum int, plan *FaultPlan) *ClusterResult {
	t.Helper()
	cfg := clusterConfig(t, clients, rounds, nil)
	cfg.DialTimeout = 10 * time.Second
	cfg.RoundDeadline = deadline
	cfg.MinQuorum = minQuorum
	cfg.Faults = plan
	cfg.Registry = telemetry.NewRegistry()
	var events []telemetry.RoundEvent
	cfg.Observers = []telemetry.Observer{telemetry.Funcs{Round: func(e telemetry.RoundEvent) { events = append(events, e) }}}
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatalf("chaos cluster: %v", err)
	}
	if len(events) != len(res.Server.History) {
		t.Fatalf("%d round events for %d rounds", len(events), len(res.Server.History))
	}
	for i, h := range res.Server.History {
		if e := events[i]; e.Uploaded+e.Skipped+e.Dropped != e.Participants || e.Dropped != len(h.Stragglers) || e != h.RoundEvent {
			t.Fatalf("round %d: %d uploaded + %d skipped + %d dropped for %d participants and stragglers %v; event %+v",
				h.Round, h.Uploaded, h.Skipped, h.Dropped, h.Participants, h.Stragglers, e)
		}
	}
	return res
}

// faultCounters extracts the cmfl_fault_* / cmfl_straggler_* families from
// a registry snapshot — the values the acceptance criteria pin across runs.
func faultCounters(reg *telemetry.Registry) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range reg.Snapshot() {
		if strings.HasPrefix(k, "cmfl_fault_") || strings.HasPrefix(k, "cmfl_straggler_") {
			out[k] = v
		}
	}
	return out
}

func sumStragglers(res *ServerResult) int {
	n := 0
	for _, c := range res.StragglerCounts {
		n += c
	}
	return n
}

// TestChaos drives a full CMFL round schedule under each fault class (and a
// mixture), asserting quorum math, straggler exclusion, and — by running
// every scenario twice — that a fixed FaultPlan yields bit-identical global
// models and identical fault/straggler counter values.
func TestChaos(t *testing.T) {
	const (
		clients  = 3
		rounds   = 4
		deadline = 900 * time.Millisecond
	)
	cases := []struct {
		name  string
		plan  *FaultPlan
		check func(t *testing.T, res *ClusterResult)
	}{
		{
			name: "drop-update stragglers",
			plan: NewFaultPlan().
				Add(1, 2, Fault{Kind: FaultDropUpdate}).
				Add(1, 3, Fault{Kind: FaultDropUpdate}),
			check: func(t *testing.T, res *ClusterResult) {
				srv := res.Server
				if got := srv.StragglerCounts[1]; got != 2 {
					t.Fatalf("client 1 straggled %d rounds, want 2", got)
				}
				if n := sumStragglers(srv); n != 2 {
					t.Fatalf("total straggler rounds = %d, want 2", n)
				}
				// A swallowed upload is not a transport fault: the
				// connection stays healthy, the server just never hears.
				if len(srv.DroppedClients) != 0 || srv.Rejoins != 0 {
					t.Fatalf("drop-update must not register conn faults: dropped=%v rejoins=%d",
						srv.DroppedClients, srv.Rejoins)
				}
				for _, h := range srv.History {
					wantDropped := 0
					if h.Round == 2 || h.Round == 3 {
						wantDropped = 1
					}
					if h.Dropped != wantDropped || len(h.Stragglers) != wantDropped {
						t.Fatalf("round %d: Dropped=%d Stragglers=%v, want %d", h.Round, h.Dropped, h.Stragglers, wantDropped)
					}
					if h.Participants != clients {
						t.Fatalf("round %d: %d participants, want all %d clients the broadcast reached",
							h.Round, h.Participants, clients)
					}
				}
			},
		},
		{
			name: "delay within deadline is absorbed",
			plan: NewFaultPlan().
				Add(2, 2, Fault{Kind: FaultDelay, Delay: 120 * time.Millisecond}),
			check: func(t *testing.T, res *ClusterResult) {
				srv := res.Server
				if n := sumStragglers(srv); n != 0 {
					t.Fatalf("short delay produced %d straggler rounds, want 0", n)
				}
				if last := srv.History[rounds-1]; last.CumUploads != clients*rounds {
					t.Fatalf("cum uploads = %d, want %d (no round lost anything)", last.CumUploads, clients*rounds)
				}
			},
		},
		{
			name: "delay past deadline straggles then drains late",
			plan: NewFaultPlan().
				Add(0, 2, Fault{Kind: FaultDelay, Delay: 1400 * time.Millisecond}),
			check: func(t *testing.T, res *ClusterResult) {
				srv := res.Server
				if got := srv.StragglerCounts[0]; got != 1 {
					t.Fatalf("client 0 straggled %d rounds, want 1", got)
				}
				if srv.LateFrames != 1 {
					t.Fatalf("late frames = %d, want 1 (the delayed round-2 reply)", srv.LateFrames)
				}
				if len(srv.DroppedClients) != 0 {
					t.Fatalf("a slow client is not a dead client: %v", srv.DroppedClients)
				}
			},
		},
		{
			name: "disconnect mid-message resends after rejoin",
			plan: NewFaultPlan().
				Add(1, 2, Fault{Kind: FaultDisconnect}),
			check: func(t *testing.T, res *ClusterResult) {
				srv := res.Server
				if n := sumStragglers(srv); n != 0 {
					t.Fatalf("disconnect with resend straggled %d rounds, want 0", n)
				}
				if srv.Rejoins != 1 {
					t.Fatalf("rejoins = %d, want 1", srv.Rejoins)
				}
				if srv.DroppedClients[1] != 2 {
					t.Fatalf("DroppedClients = %v, want {1:2}", srv.DroppedClients)
				}
				if last := srv.History[rounds-1]; last.CumUploads != clients*rounds {
					t.Fatalf("cum uploads = %d, want %d (resend preserved the round)", last.CumUploads, clients*rounds)
				}
				if res.Clients[1] == nil || res.Clients[1].Reconnects != 1 {
					t.Fatalf("client 1 result = %+v, want 1 reconnect", res.Clients[1])
				}
			},
		},
		{
			name: "crash then rejoin within the deadline",
			plan: NewFaultPlan().
				Add(2, 3, Fault{Kind: FaultCrashRejoin, Delay: 60 * time.Millisecond}),
			check: func(t *testing.T, res *ClusterResult) {
				srv := res.Server
				if n := sumStragglers(srv); n != 0 {
					t.Fatalf("fast crash-rejoin straggled %d rounds, want 0", n)
				}
				if srv.Rejoins != 1 {
					t.Fatalf("rejoins = %d, want 1", srv.Rejoins)
				}
				if last := srv.History[rounds-1]; last.CumUploads != clients*rounds {
					t.Fatalf("cum uploads = %d, want %d", last.CumUploads, clients*rounds)
				}
			},
		},
		{
			name: "corrupt frame kills the conn and straggles the round",
			plan: NewFaultPlan().
				Add(0, 2, Fault{Kind: FaultCorruptFrame}),
			check: func(t *testing.T, res *ClusterResult) {
				srv := res.Server
				if got := srv.StragglerCounts[0]; got != 1 {
					t.Fatalf("client 0 straggled %d rounds, want 1 (corrupted reply never counts)", got)
				}
				if srv.Rejoins != 1 {
					t.Fatalf("rejoins = %d, want 1", srv.Rejoins)
				}
				if srv.DroppedClients[0] != 2 {
					t.Fatalf("DroppedClients = %v, want {0:2}", srv.DroppedClients)
				}
				// Round 2 aggregated exactly the two clean updates.
				r2 := srv.History[1]
				if r2.Uploaded != 2 || r2.Dropped != 1 {
					t.Fatalf("round 2: uploaded=%d dropped=%d, want 2/1", r2.Uploaded, r2.Dropped)
				}
			},
		},
		{
			name: "mixed plan",
			plan: NewFaultPlan().
				Add(0, 2, Fault{Kind: FaultDropUpdate}).
				Add(1, 3, Fault{Kind: FaultCrashRejoin, Delay: 50 * time.Millisecond}).
				Add(2, 2, Fault{Kind: FaultDelay, Delay: 100 * time.Millisecond}),
			check: func(t *testing.T, res *ClusterResult) {
				srv := res.Server
				if got := srv.StragglerCounts[0]; got != 1 {
					t.Fatalf("client 0 straggled %d rounds, want 1", got)
				}
				if got := srv.StragglerCounts[1] + srv.StragglerCounts[2]; got != 0 {
					t.Fatalf("clients 1/2 straggled %d rounds, want 0", got)
				}
				if srv.Rejoins != 1 {
					t.Fatalf("rejoins = %d, want 1", srv.Rejoins)
				}
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			first := chaosCluster(t, clients, rounds, deadline, 1, tc.plan)
			tc.check(t, first)

			// Determinism: the same immutable plan must reproduce the run
			// bit for bit — global model, wire accounting, and every
			// cmfl_fault_*/cmfl_straggler_* counter value.
			second := chaosCluster(t, clients, rounds, deadline, 1, tc.plan)
			a, b := first.Server, second.Server
			if len(a.FinalParams) != len(b.FinalParams) {
				t.Fatalf("param dims differ: %d vs %d", len(a.FinalParams), len(b.FinalParams))
			}
			for j := range a.FinalParams {
				if math.Float64bits(a.FinalParams[j]) != math.Float64bits(b.FinalParams[j]) {
					t.Fatalf("param %d differs between runs: %v vs %v", j, a.FinalParams[j], b.FinalParams[j])
				}
			}
			if a.UplinkWireBytes != b.UplinkWireBytes || a.DownlinkWireBytes != b.DownlinkWireBytes {
				t.Fatalf("wire bytes differ: up %d/%d down %d/%d",
					a.UplinkWireBytes, b.UplinkWireBytes, a.DownlinkWireBytes, b.DownlinkWireBytes)
			}
			ca, cb := faultCounters(first.Registry), faultCounters(second.Registry)
			if len(ca) == 0 {
				t.Fatal("no cmfl_fault_*/cmfl_straggler_* counters registered")
			}
			for k, v := range ca {
				if cb[k] != v {
					t.Fatalf("counter %s differs between runs: %v vs %v", k, v, cb[k])
				}
			}
			// The registry's straggler/fault families must agree with the
			// result's own accounting (the /metrics contract).
			if got, want := ca["cmfl_straggler_clients_total{engine=\"emu\"}"], float64(sumStragglers(a)); got != want {
				t.Fatalf("straggler counter = %v, want %v", got, want)
			}
			if got, want := ca["cmfl_fault_rejoins_total"], float64(a.Rejoins); got != want {
				t.Fatalf("rejoin counter = %v, want %v", got, want)
			}
			if got, want := ca["cmfl_straggler_late_frames_total"], float64(a.LateFrames); got != want {
				t.Fatalf("late-frame counter = %v, want %v", got, want)
			}
			// Wire counters are pinned bit-for-bit to the result totals.
			snap := first.Registry.Snapshot()
			if got := snap["cmfl_emu_uplink_wire_bytes_total"]; got != float64(a.UplinkWireBytes) {
				t.Fatalf("uplink wire counter = %v, want %d", got, a.UplinkWireBytes)
			}
			if got := snap["cmfl_emu_downlink_wire_bytes_total"]; got != float64(a.DownlinkWireBytes) {
				t.Fatalf("downlink wire counter = %v, want %d", got, a.DownlinkWireBytes)
			}
		})
	}
}

// TestChaosWithCodecChainDeterministic reruns a mixed fault plan with the
// full wire-efficiency stack (CMFL gate absent here, codec chain + error
// feedback present) and requires bit-identical final models and identical
// codec counters across runs: compression must not perturb the fault
// machinery's determinism, and vice versa.
func TestChaosWithCodecChainDeterministic(t *testing.T) {
	plan := NewFaultPlan().
		Add(0, 2, Fault{Kind: FaultDropUpdate}).
		Add(1, 3, Fault{Kind: FaultDisconnect}).
		Add(2, 2, Fault{Kind: FaultDelay, Delay: 100 * time.Millisecond})
	run := func() *ClusterResult {
		cfg := clusterConfig(t, 3, 4, nil)
		cfg.DialTimeout = 10 * time.Second
		cfg.RoundDeadline = 900 * time.Millisecond
		cfg.MinQuorum = 1
		cfg.Faults = plan
		cfg.Compressor = compress.NewChain(compress.TopK{K: 50}, compress.Uniform8{})
		cfg.ErrorFeedback = true
		cfg.Registry = telemetry.NewRegistry()
		res, err := RunCluster(cfg)
		if err != nil {
			t.Fatalf("chaos codec cluster: %v", err)
		}
		return res
	}
	first, second := run(), run()
	a, b := first.Server, second.Server
	for j := range a.FinalParams {
		if math.Float64bits(a.FinalParams[j]) != math.Float64bits(b.FinalParams[j]) {
			t.Fatalf("param %d differs between codec chaos runs: %v vs %v", j, a.FinalParams[j], b.FinalParams[j])
		}
	}
	if a.CodecUpdates != b.CodecUpdates || a.CodecEncodedBytes != b.CodecEncodedBytes || a.CodecRawBytes != b.CodecRawBytes {
		t.Fatalf("codec accounting differs: %d/%d/%d vs %d/%d/%d",
			a.CodecUpdates, a.CodecEncodedBytes, a.CodecRawBytes,
			b.CodecUpdates, b.CodecEncodedBytes, b.CodecRawBytes)
	}
	if a.CodecUpdates == 0 {
		t.Fatal("codec chaos run recorded zero compressed updates")
	}
	// The resend path must reuse the same encoded bytes: a disconnected
	// client that rejoins re-sends its staged frame, and the codec counters
	// count each accepted update exactly once.
	if a.UplinkWireBytes != b.UplinkWireBytes {
		t.Fatalf("wire bytes differ: %d vs %d", a.UplinkWireBytes, b.UplinkWireBytes)
	}
	snap := first.Registry.Snapshot()
	if got := snap["cmfl_codec_updates_total"]; got != float64(a.CodecUpdates) {
		t.Fatalf("codec updates counter = %v, result says %d", got, a.CodecUpdates)
	}
	if got := snap["cmfl_codec_encoded_bytes_total"]; got != float64(a.CodecEncodedBytes) {
		t.Fatalf("codec encoded counter = %v, result says %d", got, a.CodecEncodedBytes)
	}
	if got := snap["cmfl_codec_raw_bytes_total"]; got != float64(a.CodecRawBytes) {
		t.Fatalf("codec raw counter = %v, result says %d", got, a.CodecRawBytes)
	}
}

// TestChaosHungClientCompletesAtDeadline is the acceptance scenario: a
// permanently silent client must cost ~RoundDeadline per round — not the
// old flat 120s timeout — with the straggler excluded and reported.
func TestChaosHungClientCompletesAtDeadline(t *testing.T) {
	const (
		clients  = 3
		rounds   = 3
		deadline = 700 * time.Millisecond
	)
	plan := NewFaultPlan()
	for r := 1; r <= rounds; r++ {
		plan.Add(2, r, Fault{Kind: FaultDropUpdate})
	}
	start := now()
	res := chaosCluster(t, clients, rounds, deadline, 2, plan)
	elapsed := now().Sub(start)

	srv := res.Server
	if len(srv.History) != rounds {
		t.Fatalf("history = %d rounds, want %d", len(srv.History), rounds)
	}
	for _, h := range srv.History {
		if len(h.Stragglers) != 1 || h.Stragglers[0] != 2 {
			t.Fatalf("round %d stragglers = %v, want [2]", h.Round, h.Stragglers)
		}
		if h.Uploaded != 2 {
			t.Fatalf("round %d uploaded = %d, want 2 (quorum aggregation)", h.Round, h.Uploaded)
		}
	}
	if got := srv.StragglerCounts[2]; got != rounds {
		t.Fatalf("client 2 straggler count = %d, want %d", got, rounds)
	}
	// Every round must wait out its deadline (the hung client never
	// replies), and nothing should wait much longer than that.
	if min := time.Duration(rounds) * deadline; elapsed < min {
		t.Fatalf("run finished in %v, before %d deadlines (%v) could elapse — straggler exclusion broken", elapsed, rounds, min)
	}
	if max := time.Duration(rounds)*deadline + 20*time.Second; elapsed > max {
		t.Fatalf("run took %v, want ≲ rounds×deadline (old flat-timeout behaviour?)", elapsed)
	}
}

// TestChaosQuorumFailureAborts pins the other side of MinQuorum: when the
// deadline fires with fewer replies than the quorum, the run fails loudly
// instead of aggregating a hollow round.
func TestChaosQuorumFailureAborts(t *testing.T) {
	plan := NewFaultPlan().Add(0, 2, Fault{Kind: FaultDropUpdate}).Add(1, 2, Fault{Kind: FaultDropUpdate})
	cfg := clusterConfig(t, 2, 4, nil)
	cfg.DialTimeout = 10 * time.Second
	cfg.RoundDeadline = 500 * time.Millisecond
	cfg.MinQuorum = 1
	cfg.Faults = plan
	_, err := RunCluster(cfg)
	if err == nil || !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("run with zero possible replies must fail with a quorum error, got: %v", err)
	}
}
