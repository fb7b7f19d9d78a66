// Package sim is a deterministic simulation of CMFL training at population
// scales the TCP emulation cannot reach. Where internal/emu gives every
// client a real socket and a goroutine, sim multiplexes many simulated
// clients onto a few workers and replaces wall-clock time with a virtual
// clock: each reply lands at the round's start plus a delay drawn from the
// client's own stream, and a round ends at its deadline if a reply missed it,
// otherwise at its last arrival.
//
// Run is internal/fl's synchronous loop — the one behind fl.Run, with both
// halves of Algorithm 1 — under sim's fl.Schedule: availability decides who
// trains, each packed reply draws a virtual delay that decides against the
// deadline whether the round folds it, and one pass over the trained clients
// closes the round, classifying the on-time replies through fl.Quorum (the
// machine emu's shards drive with real frames), carrying the stragglers and
// draining earlier rounds' stragglers that land by the close as late frames.
// With zero latency, full availability and no deadline, Run is bit-identical
// to fl.Run (TestFLParity) and to emu.RunCluster at any shard count
// (TestTierParity).
//
// Everything is a pure function of Config (including the seed): reruns and
// different shard counts produce bit-identical final parameters, round
// histories and registry histograms. Workers touch only per-client state
// and their own exact partial sums, the loop's goroutine draws availability
// and closes rounds in ascending client order, and all float aggregation is
// exact, so no order is left to observe.
package sim

import (
	"errors"
	"time"

	"cmfl/internal/core"
	"cmfl/internal/dataset"
	"cmfl/internal/fl"
	"cmfl/internal/nn"
	"cmfl/internal/telemetry"
)

// Config describes one simulated federated run.
type Config struct {
	// Model builds a fresh network with the experiment's architecture; the
	// factory must be deterministic (seed its own initialisation stream).
	// Called once for the server and once per worker shard.
	Model func() *nn.Network
	// ClientData holds one private shard per simulated client.
	ClientData []*dataset.Set

	// Epochs, Batch and LR parameterise the local solver exactly as in
	// fl.Config.
	Epochs int
	Batch  int
	LR     core.Schedule

	// Filter gates uploads (nil = fl.Vanilla: upload everything).
	Filter fl.UploadFilter
	// Compressor lossily encodes uploads; nil uploads raw float64 vectors.
	// Each upload is encoded and decoded once, in its worker, so the codec
	// sees concurrent calls (the fl.UpdateCodec contract). Byte accounting
	// and lossy aggregation match fl.Run; client-side error feedback
	// (EF-SGD) is not simulated.
	Compressor fl.UpdateCodec

	// Rounds is the number of synchronous rounds.
	Rounds int
	// Seed drives every random draw: training shuffles, timing
	// distributions and availability, all via per-client derived streams.
	Seed int64

	// Shards is the number of worker goroutines clients are multiplexed
	// onto (default: GOMAXPROCS). Each holds a model replica, the solver
	// and codec scratch, one delta and a 16 B/coordinate accumulator of the
	// round's accepted uploads, which it adds as it packs them. Results are
	// bit-identical across shard counts; Shards only trades wall-clock speed
	// for memory.
	Shards int

	// Arrival is the per-reply local delay before a client's reply leaves
	// the device: compute time plus queuing (nil = 0).
	Arrival Dist
	// Latency is the per-reply network delay (nil = 0).
	Latency Dist
	// BandwidthBytesPerSec serialises the reply payload onto the uplink:
	// payload/bandwidth is added to the reply delay. Zero = infinite.
	BandwidthBytesPerSec float64
	// Availability is the per-round probability that the round's broadcast
	// reaches a client; unavailable clients neither train nor reply and
	// are not expected by the quorum. Zero means fully available (1.0).
	Availability float64

	// RoundDeadline bounds a round in virtual time: replies arriving later
	// are excluded (stragglers) and drain as late frames in the first round
	// that closes at or after their arrival. Zero waits for every expected
	// reply. A reply landing exactly at the deadline instant is accepted.
	RoundDeadline time.Duration
	// MinQuorum is the minimum number of replies a round must aggregate;
	// fewer at the deadline aborts the run (default 1).
	MinQuorum int

	// CompatStreams derives training shuffles from fl.ClientStream — the
	// in-process engine's exact per-client streams — making zero-latency
	// runs bit-identical to fl.Run at the cost of ~5 KB of generator state
	// per client. Off (the default), training streams use the compact
	// splitmix64 derivation, which is what makes million-client
	// populations affordable.
	CompatStreams bool

	// Registry receives the sim histogram families (reply latency, round
	// duration, reply bytes) when non-nil.
	Registry *telemetry.Registry
	// Observers receive one telemetry.ClientEvent per accepted reply (in
	// client order) followed by one telemetry.RoundEvent per round.
	Observers []telemetry.Observer
}

// RoundStats records one simulated round: the record every tier keeps plus
// the virtual-time quantities only a simulation can measure.
type RoundStats struct {
	fl.RoundStats

	// VirtualStart / VirtualEnd bound the round in virtual time; the next
	// round starts where this one ended.
	VirtualStart time.Duration
	VirtualEnd   time.Duration
	// DeadlineFired reports whether the round closed at its deadline
	// (true) or because every expected reply arrived (false).
	DeadlineFired bool
}

// Result is the outcome of a simulated run.
type Result struct {
	History []RoundStats
	// FinalParams is the global parameter vector after the last round.
	FinalParams []float64
	// SkipCounts is the number of gate-filtered uploads per client.
	SkipCounts []int
	// StragglerCounts is the number of rounds each client was expected but
	// cut off by the deadline.
	StragglerCounts []int
	// LateReplies counts straggler replies that arrived after their
	// round's deadline and were drained, never aggregated.
	LateReplies int
	// VirtualDuration is the total virtual time the run spanned.
	VirtualDuration time.Duration
	// FilterName echoes the upload filter used.
	FilterName string
}

// validate checks and defaults what is sim's; fl.RunSchedule checks the rest.
func validate(cfg *Config) error {
	switch {
	case cfg.RoundDeadline < 0:
		return errors.New("sim: RoundDeadline must be non-negative")
	case cfg.BandwidthBytesPerSec < 0:
		return errors.New("sim: BandwidthBytesPerSec must be non-negative")
	case cfg.Availability < 0 || cfg.Availability > 1:
		return errors.New("sim: Availability must be in [0, 1]")
	}
	if cfg.Arrival == nil {
		cfg.Arrival = FixedDist{}
	}
	if cfg.Latency == nil {
		cfg.Latency = FixedDist{}
	}
	if cfg.Availability <= 0 { // negatives were rejected above; zero means unset
		cfg.Availability = 1
	}
	if cfg.MinQuorum <= 0 {
		cfg.MinQuorum = 1
	}
	return nil
}
