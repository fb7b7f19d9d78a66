package emu

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"cmfl/internal/core"
	"cmfl/internal/dataset"
	"cmfl/internal/fl"
	"cmfl/internal/nn"
	"cmfl/internal/telemetry"
)

// ClusterConfig runs a complete master+slaves emulation in one process over
// localhost TCP — the shape of the paper's 30-node EC2 benchmark, with the
// network stack real and the machines collapsed onto one host.
type ClusterConfig struct {
	Model      func() *nn.Network
	ClientData []*dataset.Set
	TestData   *dataset.Set

	Epochs     int
	Batch      int
	LR         core.Schedule
	Filter     fl.UploadFilter
	Compressor fl.UpdateCodec
	// ErrorFeedback enables client-side EF-SGD residual accumulation for
	// compressed uploads (see ClientConfig.ErrorFeedback).
	ErrorFeedback bool

	Rounds         int
	TargetAccuracy float64
	EvalEvery      int

	Seed int64

	// Limits bounds timing, quorum, and fault posture (see emu.Limits):
	// DialTimeout defaults to 30s, RoundDeadline to 60s, MinQuorum to all
	// clients (or 1 when FaultTolerant/Faults are set), and FaultTolerant
	// is implied by Faults.
	Limits
	// Topology lays out the server's aggregation tree (see emu.Topology).
	// The zero value is the flat server.
	Topology Topology
	// Faults wires a deterministic FaultPlan into every client, enables
	// client reconnection, and implies FaultTolerant. Client errors are
	// then collected into ClusterResult.ClientErrs instead of failing
	// RunCluster (a faulty run may legitimately end with a client
	// mid-recovery).
	Faults *FaultPlan

	// Observers receive the master's live telemetry (see ServerConfig).
	Observers []telemetry.Observer
	// MetricsAddr serves /metrics and /healthz while the cluster runs; the
	// endpoint is torn down before RunCluster returns (use NewServer
	// directly to keep scraping after training ends). The final registry
	// remains readable via ClusterResult.Registry.
	MetricsAddr string
	// Registry receives the master's metrics (optional; see ServerConfig).
	Registry *telemetry.Registry
}

// ClusterResult combines the server view and the per-client views.
type ClusterResult struct {
	Server  *ServerResult
	Clients []*ClientResult
	// ClientErrs holds per-client terminal errors when a FaultPlan was
	// active (nil entries for clean exits). Without a plan, any client
	// error fails RunCluster instead.
	ClientErrs []error
	// Registry is the master's metrics registry (nil unless MetricsAddr or
	// Registry was configured).
	Registry *telemetry.Registry
}

// RunCluster starts a server on an ephemeral localhost port, launches one
// goroutine per client, and returns when training completes.
func RunCluster(cfg ClusterConfig) (*ClusterResult, error) {
	if len(cfg.ClientData) == 0 {
		return nil, errors.New("emu: cluster needs at least one client shard")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 30 * time.Second
	}
	if cfg.RoundDeadline <= 0 {
		cfg.RoundDeadline = 60 * time.Second
	}
	if cfg.Faults != nil {
		cfg.FaultTolerant = true
	}
	// The raw I/O safety net sits well above the aggregation deadline so it
	// only ever fires on a truly wedged transport.
	roundTimeout := 2 * cfg.RoundDeadline
	srv, err := NewServer(ServerConfig{
		Addr:           "127.0.0.1:0",
		Clients:        len(cfg.ClientData),
		Model:          cfg.Model,
		TestData:       cfg.TestData,
		EvalEvery:      cfg.EvalEvery,
		Rounds:         cfg.Rounds,
		TargetAccuracy: cfg.TargetAccuracy,
		Compressor:     cfg.Compressor,
		Limits:         cfg.Limits,
		Topology:       cfg.Topology,
		RoundTimeout:   roundTimeout,
		Observers:      cfg.Observers,
		MetricsAddr:    cfg.MetricsAddr,
		Registry:       cfg.Registry,
	})
	if err != nil {
		return nil, err
	}
	defer closeQuietly(srv)

	type serverOut struct {
		res *ServerResult
		err error
	}
	srvCh := make(chan serverOut, 1)
	go func() {
		res, err := srv.Run()
		srvCh <- serverOut{res: res, err: err}
	}()

	// cancel aborts the server early in strict mode: a failed client means
	// the cohort can never complete, so waiting out the accept barrier (or
	// the round deadline) would only leak time. Once-guarded because several
	// client goroutines may fail concurrently.
	var cancelOnce sync.Once
	cancel := func() { cancelOnce.Do(func() { closeQuietly(srv) }) }

	clients := make([]*ClientResult, len(cfg.ClientData))
	clientErrs := make([]error, len(cfg.ClientData))
	var wg sync.WaitGroup
	for i, data := range cfg.ClientData {
		wg.Add(1)
		go func(i int, data *dataset.Set) {
			defer wg.Done()
			res, err := RunClient(ClientConfig{
				Addr:          srv.Addr(),
				ID:            i,
				Model:         cfg.Model,
				Data:          data,
				Epochs:        cfg.Epochs,
				Batch:         cfg.Batch,
				LR:            cfg.LR,
				Filter:        cfg.Filter,
				Compressor:    cfg.Compressor,
				ErrorFeedback: cfg.ErrorFeedback,
				Seed:          cfg.Seed,
				RoundTimeout:  roundTimeout,
				DialTimeout:   cfg.DialTimeout,
				Faults:        cfg.Faults,
			})
			clients[i], clientErrs[i] = res, err
			if err != nil && cfg.Faults == nil {
				cancel()
			}
		}(i, data)
	}
	wg.Wait()
	cliErr := errors.Join(clientErrs...)
	out := <-srvCh
	if cfg.Faults == nil && cliErr != nil {
		return nil, fmt.Errorf("emu: clients: %w", cliErr)
	}
	if out.err != nil {
		return nil, fmt.Errorf("emu: server: %w", out.err)
	}
	if cfg.Faults == nil {
		clientErrs = nil
	}
	return &ClusterResult{Server: out.res, Clients: clients, ClientErrs: clientErrs, Registry: srv.Registry()}, nil
}
