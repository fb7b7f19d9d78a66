package emu

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"cmfl/internal/compress"
	"cmfl/internal/telemetry"
)

// chaosClusterSharded is chaosCluster with an explicit shard count: same
// clients, same plan, same quorum — only the aggregation tree layout differs.
func chaosClusterSharded(t *testing.T, clients, rounds int, deadline time.Duration, minQuorum int, plan *FaultPlan, shards int) *ClusterResult {
	t.Helper()
	cfg := clusterConfig(t, clients, rounds, nil)
	cfg.DialTimeout = 10 * time.Second
	cfg.RoundDeadline = deadline
	cfg.MinQuorum = minQuorum
	cfg.Faults = plan
	cfg.Topology = Topology{Shards: shards}
	cfg.Registry = telemetry.NewRegistry()
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatalf("sharded chaos cluster (%d shards): %v", shards, err)
	}
	return res
}

// assertShardParity requires two runs of the same workload under different
// shard layouts to agree on everything the flat server's contract pins:
// bit-identical final model, exact wire/fault/codec accounting, and the
// per-round history core. Late-frame ROUND attribution may legally shift
// (a frame drained by shard i during round r+1's gather was drained by the
// flat inbox at the same wall-clock moment but possibly across a round
// boundary), so per-round wire/late columns are checked as run totals only.
func assertShardParity(t *testing.T, label string, a, b *ServerResult) {
	t.Helper()
	if len(a.FinalParams) != len(b.FinalParams) {
		t.Fatalf("%s: param dims differ: %d vs %d", label, len(a.FinalParams), len(b.FinalParams))
	}
	for j := range a.FinalParams {
		if math.Float64bits(a.FinalParams[j]) != math.Float64bits(b.FinalParams[j]) {
			t.Fatalf("%s: param %d differs: %v vs %v", label, j, a.FinalParams[j], b.FinalParams[j])
		}
	}
	if a.UplinkWireBytes != b.UplinkWireBytes || a.DownlinkWireBytes != b.DownlinkWireBytes {
		t.Fatalf("%s: wire bytes differ: up %d/%d down %d/%d",
			label, a.UplinkWireBytes, b.UplinkWireBytes, a.DownlinkWireBytes, b.DownlinkWireBytes)
	}
	if a.LateFrames != b.LateFrames || a.DupFrames != b.DupFrames || a.Rejoins != b.Rejoins {
		t.Fatalf("%s: drain accounting differs: late %d/%d dup %d/%d rejoin %d/%d",
			label, a.LateFrames, b.LateFrames, a.DupFrames, b.DupFrames, a.Rejoins, b.Rejoins)
	}
	if a.CodecUpdates != b.CodecUpdates || a.CodecEncodedBytes != b.CodecEncodedBytes || a.CodecRawBytes != b.CodecRawBytes {
		t.Fatalf("%s: codec accounting differs: %d/%d/%d vs %d/%d/%d", label,
			a.CodecUpdates, a.CodecEncodedBytes, a.CodecRawBytes,
			b.CodecUpdates, b.CodecEncodedBytes, b.CodecRawBytes)
	}
	for i := range a.SkipCounts {
		if a.SkipCounts[i] != b.SkipCounts[i] {
			t.Fatalf("%s: client %d skips differ: %d vs %d", label, i, a.SkipCounts[i], b.SkipCounts[i])
		}
	}
	for i := range a.StragglerCounts {
		if a.StragglerCounts[i] != b.StragglerCounts[i] {
			t.Fatalf("%s: client %d straggler rounds differ: %d vs %d", label, i, a.StragglerCounts[i], b.StragglerCounts[i])
		}
	}
	if len(a.DroppedClients) != len(b.DroppedClients) {
		t.Fatalf("%s: dropped clients differ: %v vs %v", label, a.DroppedClients, b.DroppedClients)
	}
	for id, r := range a.DroppedClients {
		if b.DroppedClients[id] != r {
			t.Fatalf("%s: client %d first-drop round differs: %d vs %d", label, id, r, b.DroppedClients[id])
		}
	}
	if len(a.History) != len(b.History) {
		t.Fatalf("%s: history lengths differ: %d vs %d", label, len(a.History), len(b.History))
	}
	for i := range a.History {
		ha, hb := a.History[i], b.History[i]
		if ha.Round != hb.Round || ha.Participants != hb.Participants ||
			ha.Uploaded != hb.Uploaded || ha.Skipped != hb.Skipped ||
			ha.Dropped != hb.Dropped || ha.CumUploads != hb.CumUploads ||
			ha.CumUplinkBytes != hb.CumUplinkBytes {
			t.Fatalf("%s: round %d core differs:\n%+v\nvs\n%+v", label, ha.Round, ha.RoundEvent, hb.RoundEvent)
		}
		if math.Float64bits(ha.Accuracy) != math.Float64bits(hb.Accuracy) {
			t.Fatalf("%s: round %d accuracy differs: %v vs %v", label, ha.Round, ha.Accuracy, hb.Accuracy)
		}
		if math.Float64bits(ha.MeanRelevance) != math.Float64bits(hb.MeanRelevance) {
			t.Fatalf("%s: round %d mean relevance differs: %v vs %v", label, ha.Round, ha.MeanRelevance, hb.MeanRelevance)
		}
		if len(ha.Stragglers) != len(hb.Stragglers) {
			t.Fatalf("%s: round %d stragglers differ: %v vs %v", label, ha.Round, ha.Stragglers, hb.Stragglers)
		}
		for j := range ha.Stragglers {
			if ha.Stragglers[j] != hb.Stragglers[j] {
				t.Fatalf("%s: round %d stragglers differ: %v vs %v", label, ha.Round, ha.Stragglers, hb.Stragglers)
			}
		}
	}
}

// assertRegistryParity requires every non-shard-scoped counter family to
// carry identical values across layouts. The cmfl_shard_* families are the
// only legal difference between a flat and a sharded run's registry.
func assertRegistryParity(t *testing.T, label string, a, b *telemetry.Registry) {
	t.Helper()
	sa, sb := a.Snapshot(), b.Snapshot()
	checked := 0
	for k, v := range sa {
		if strings.HasPrefix(k, "cmfl_shard_") {
			continue
		}
		if sb[k] != v {
			t.Fatalf("%s: counter %s differs: %v vs %v", label, k, v, sb[k])
		}
		checked++
	}
	for k := range sb {
		if !strings.HasPrefix(k, "cmfl_shard_") {
			if _, ok := sa[k]; !ok {
				t.Fatalf("%s: counter %s only present in sharded run", label, k)
			}
		}
	}
	if checked == 0 {
		t.Fatalf("%s: no global counters compared", label)
	}
}

// TestChaosSharded is the tentpole oracle: every chaos fault class runs under
// the flat layout and under 3- and 8-shard aggregation trees, and the shard
// layout must be unobservable — bit-identical global model, identical wire,
// straggler, fault, and codec accounting, identical telemetry families. The
// fault targets deliberately span shard boundaries of both layouts
// (8 clients split [0-2][3-5][6-7] at 3 shards, singletons at 8).
func TestChaosSharded(t *testing.T) {
	const (
		clients  = 8
		rounds   = 4
		deadline = 1200 * time.Millisecond
	)
	cases := []struct {
		name string
		plan *FaultPlan
	}{
		{
			name: "drop-update stragglers",
			plan: NewFaultPlan().
				Add(1, 2, Fault{Kind: FaultDropUpdate}).
				Add(4, 2, Fault{Kind: FaultDropUpdate}).
				Add(7, 3, Fault{Kind: FaultDropUpdate}),
		},
		{
			name: "delay past deadline straggles then drains late",
			plan: NewFaultPlan().
				Add(0, 2, Fault{Kind: FaultDelay, Delay: 1800 * time.Millisecond}),
		},
		{
			name: "disconnect resends after rejoin",
			plan: NewFaultPlan().
				Add(1, 2, Fault{Kind: FaultDisconnect}).
				Add(6, 3, Fault{Kind: FaultDisconnect}),
		},
		{
			name: "crash then rejoin within the deadline",
			plan: NewFaultPlan().
				Add(2, 3, Fault{Kind: FaultCrashRejoin, Delay: 60 * time.Millisecond}),
		},
		{
			name: "corrupt frame kills the conn",
			plan: NewFaultPlan().
				Add(0, 2, Fault{Kind: FaultCorruptFrame}),
		},
		{
			name: "mixed plan",
			plan: NewFaultPlan().
				Add(0, 2, Fault{Kind: FaultDropUpdate}).
				Add(3, 3, Fault{Kind: FaultCrashRejoin, Delay: 50 * time.Millisecond}).
				Add(5, 2, Fault{Kind: FaultDelay, Delay: 100 * time.Millisecond}).
				Add(7, 2, Fault{Kind: FaultDisconnect}),
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			flat := chaosClusterSharded(t, clients, rounds, deadline, 1, tc.plan, 1)
			for _, shards := range []int{3, 8} {
				sharded := chaosClusterSharded(t, clients, rounds, deadline, 1, tc.plan, shards)
				label := fmt.Sprintf("%d shards", shards)
				assertShardParity(t, label, flat.Server, sharded.Server)
				assertRegistryParity(t, label, flat.Registry, sharded.Registry)
			}
		})
	}
}

// TestChaosShardedCodecChain reruns the full wire-efficiency stack (codec
// chain + error feedback) under a fault plan across layouts: compression,
// fault machinery, and the aggregation tree must compose without perturbing
// each other's determinism.
func TestChaosShardedCodecChain(t *testing.T) {
	plan := NewFaultPlan().
		Add(0, 2, Fault{Kind: FaultDropUpdate}).
		Add(2, 3, Fault{Kind: FaultDisconnect}).
		Add(5, 2, Fault{Kind: FaultDelay, Delay: 100 * time.Millisecond})
	run := func(shards int) *ClusterResult {
		cfg := clusterConfig(t, 6, 4, nil)
		cfg.DialTimeout = 10 * time.Second
		cfg.RoundDeadline = 1200 * time.Millisecond
		cfg.MinQuorum = 1
		cfg.Faults = plan
		cfg.Compressor = compress.NewChain(compress.TopK{K: 50}, compress.Uniform8{})
		cfg.ErrorFeedback = true
		cfg.Topology = Topology{Shards: shards}
		cfg.Registry = telemetry.NewRegistry()
		res, err := RunCluster(cfg)
		if err != nil {
			t.Fatalf("sharded codec chaos cluster (%d shards): %v", shards, err)
		}
		return res
	}
	flat, sharded := run(1), run(3)
	assertShardParity(t, "codec chain, 3 shards", flat.Server, sharded.Server)
	assertRegistryParity(t, "codec chain, 3 shards", flat.Registry, sharded.Registry)
	if flat.Server.CodecUpdates == 0 {
		t.Fatal("codec chaos run recorded zero compressed updates")
	}
}

// TestShardedScale64 is the scale acceptance check: a 64-client round over an
// 8-shard tree completes, and the per-shard counter families sum back to the
// global accounting (the invariant the dashboards rely on).
func TestShardedScale64(t *testing.T) {
	cfg := clusterConfig(t, 64, 1, nil)
	cfg.DialTimeout = 30 * time.Second
	cfg.RoundDeadline = 30 * time.Second
	cfg.Topology = Topology{Shards: 8}
	cfg.Registry = telemetry.NewRegistry()
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatalf("64-client sharded cluster: %v", err)
	}
	srv := res.Server
	if len(srv.History) != 1 {
		t.Fatalf("history = %d rounds, want 1", len(srv.History))
	}
	if got := srv.History[0].Participants; got != 64 {
		t.Fatalf("participants = %d, want 64", got)
	}
	snap := res.Registry.Snapshot()
	var shardRounds, shardAccepted, shardStragglers float64
	for i := 0; i < 8; i++ {
		shardRounds += snap[fmt.Sprintf(`cmfl_shard_rounds_total{shard="%d"}`, i)]
		shardAccepted += snap[fmt.Sprintf(`cmfl_shard_accepted_replies_total{shard="%d"}`, i)]
		shardStragglers += snap[fmt.Sprintf(`cmfl_shard_stragglers_total{shard="%d"}`, i)]
	}
	if shardRounds != 8 {
		t.Fatalf("shard rounds counters sum to %v, want 8 (one aggregated gather per shard)", shardRounds)
	}
	accepted := 0
	for _, h := range srv.History {
		accepted += h.Uploaded + h.Skipped
	}
	if shardAccepted != float64(accepted) {
		t.Fatalf("shard accepted counters sum to %v, history says %d", shardAccepted, accepted)
	}
	if shardStragglers != float64(sumStragglers(srv)) {
		t.Fatalf("shard straggler counters sum to %v, result says %d", shardStragglers, sumStragglers(srv))
	}
}

// TestServerShutdownMidRun drives the graceful-shutdown contract: Shutdown
// after round 1 finishes the in-flight round, sends the done frames, and
// returns the partial history cleanly — clients exit without errors.
func TestServerShutdownMidRun(t *testing.T) {
	cfg := clusterConfig(t, 2, 50, nil)
	var srv *Server
	stop := telemetry.Funcs{Round: func(e telemetry.RoundEvent) {
		if e.Round == 1 {
			srv.Shutdown()
		}
	}}
	srv, err := NewServer(ServerConfig{
		Addr:         "127.0.0.1:0",
		Clients:      2,
		Model:        cfg.Model,
		TestData:     cfg.TestData,
		Rounds:       50,
		RoundTimeout: 10 * time.Second,
		Limits:       Limits{DialTimeout: 10 * time.Second},
		Topology:     Topology{Shards: 2},
		Observers:    []telemetry.Observer{stop},
	})
	if err != nil {
		t.Fatal(err)
	}
	type out struct {
		res *ServerResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := srv.Run()
		done <- out{res, err}
	}()
	clientErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, err := RunClient(ClientConfig{
				Addr:   srv.Addr(),
				ID:     i,
				Model:  cfg.Model,
				Data:   cfg.ClientData[i],
				Epochs: cfg.Epochs,
				Batch:  cfg.Batch,
				LR:     cfg.LR,
				Seed:   cfg.Seed,
			})
			clientErrs <- err
		}(i)
	}
	o := <-done
	if o.err != nil {
		t.Fatalf("graceful shutdown returned error: %v", o.err)
	}
	if len(o.res.History) != 1 {
		t.Fatalf("shutdown after round 1 left %d rounds of history, want 1", len(o.res.History))
	}
	for i := 0; i < 2; i++ {
		if err := <-clientErrs; err != nil {
			t.Fatalf("client did not exit cleanly on shutdown: %v", err)
		}
	}
	// Idempotent and safe post-Run.
	srv.Shutdown()
}

// TestCloseEndsShardWork closes a fault-tolerant sharded server while a
// shard gathers towards a distant deadline: client 2 withholds its round-2
// reply and the deadline is 30 s away. Close must end the shard's gather
// with the rest of the run, so the process is back to its goroutines of
// before the run within 2 s.
func TestCloseEndsShardWork(t *testing.T) {
	cfg := clusterConfig(t, 3, 5, nil)
	// Start whatever the process starts once, on its first run, before
	// counting.
	warm := cfg
	warm.ClientData, warm.Rounds = cfg.ClientData[:1], 1
	if _, err := RunCluster(warm); err != nil {
		t.Fatal(err)
	}
	before := settledGoroutines()

	gathering := make(chan struct{})
	srv, err := NewServer(ServerConfig{
		Addr:     "127.0.0.1:0",
		Clients:  3,
		Model:    cfg.Model,
		TestData: cfg.TestData,
		Rounds:   5,
		Limits:   Limits{DialTimeout: 10 * time.Second, RoundDeadline: 30 * time.Second, FaultTolerant: true},
		Topology: Topology{Shards: 3},
		Observers: []telemetry.Observer{telemetry.Funcs{Round: func(e telemetry.RoundEvent) {
			if e.Round == 1 {
				close(gathering)
			}
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan error, 1)
	go func() {
		_, err := srv.Run()
		ran <- err
	}()
	plan := NewFaultPlan().Add(2, 2, Fault{Kind: FaultDropUpdate})
	for i := range 3 {
		ccfg := ClientConfig{Addr: srv.Addr(), ID: i, Model: cfg.Model, Data: cfg.ClientData[i],
			Epochs: cfg.Epochs, Batch: cfg.Batch, LR: cfg.LR, Seed: cfg.Seed}
		if i == 2 {
			ccfg.Faults = plan
		}
		go func() {
			// Every client ends on the closed connection; the goroutine
			// count below waits for them too.
			_, _ = RunClient(ccfg)
		}()
	}
	select {
	case <-gathering:
	case <-time.After(20 * time.Second):
		t.Fatal("round 1 did not finish")
	}
	time.Sleep(300 * time.Millisecond) // round 2 is out; shard 2 waits for client 2

	closed := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-ran:
		if err == nil {
			t.Fatal("Run succeeded although the server closed mid-round")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return within 2 s of Close")
	}
	for n := runtime.NumGoroutine(); n > before; n = runtime.NumGoroutine() {
		if time.Since(closed) > 2*time.Second {
			t.Fatalf("%d goroutines 2 s after Close, %d before the run", n, before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// settledGoroutines returns the goroutine count once two reads 10 ms apart
// agree (or after half a second), so goroutines still exiting from earlier
// work are not counted.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for range 50 {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestRunClusterFastFailReleasesServer pins the strict-mode leak fix: when a
// client dies before the accept barrier completes, RunCluster must cancel the
// server instead of letting it burn the whole DialTimeout.
func TestRunClusterFastFailReleasesServer(t *testing.T) {
	cfg := clusterConfig(t, 2, 3, nil)
	cfg.ClientData[1] = nil // client 1 fails validation before dialing
	cfg.DialTimeout = 60 * time.Second
	start := now()
	_, err := RunCluster(cfg)
	elapsed := now().Sub(start)
	if err == nil || !strings.Contains(err.Error(), "clients") {
		t.Fatalf("cluster with an unstartable client must fail with a client error, got: %v", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("fast client failure took %v to surface — server sat out its accept barrier", elapsed)
	}
}
