package emu

import (
	"fmt"
	"slices"
	"time"

	"cmfl/internal/emu/shard"
	"cmfl/internal/xrand"
)

// Limits bounds the emulation's timing, quorum, and fault posture. It is
// embedded by ServerConfig and ClusterConfig, so callers read and write the
// fields directly (cfg.RoundDeadline, cfg.MinQuorum, ...). One struct, one
// documentation site — this replaces the retired flat ClusterConfig.Timeout
// shim that used to govern dialing, accepting, and round I/O alike.
type Limits struct {
	// DialTimeout bounds client dials and the server's accept barrier
	// (cluster default 30s; bare servers default 60s).
	DialTimeout time.Duration
	// RoundDeadline is the per-round aggregation cut-off: rounds where
	// every reachable client replies finish immediately, and a hung client
	// costs at most this long before being excluded as a straggler
	// (cluster default 60s; bare servers default to their RoundTimeout).
	RoundDeadline time.Duration
	// MinQuorum is the minimum number of replies required to aggregate
	// when the deadline fires; below it the round (and the run) fails. The
	// quorum is global: replies are summed across every shard and enforced
	// at the tree root, so the shard layout never changes quorum
	// semantics. Default: 1 when FaultTolerant, else all clients.
	MinQuorum int
	// FaultTolerant makes the server survive client transport failures: a
	// client whose connection errors is marked down, its round counts it
	// as a straggler, and it may redial and rejoin (resent replies are
	// deduplicated). Training aborts only when every client is gone or a
	// round misses MinQuorum. Without it (the default) any failure aborts
	// the run, which keeps tests strict.
	FaultTolerant bool
}

//cmfl:api-change Topology.QueueDepth is removed: each connection reader holds at most one received frame and reads the next only once its shard released the last, so a shard's queue needs two events per owned client and the knob bounded nothing; callers drop the field.

// Topology lays out the server's aggregation tree. The zero value is the
// flat server: one aggregator owning every client.
//
// With Shards > 1 the server runs N shard aggregators, each owning a
// contiguous slice of clients and running the quorum/straggler/fault
// machinery locally; per round each shard folds its accepted updates into
// an exact partial sum (internal/emu/shard.Accumulator) and pushes it to
// the root, which merges partials in fixed shard order. Because the
// accumulator's correctly rounded result is independent of grouping,
// FinalParams and every wire/codec counter are bit-identical across shard
// counts — the flat server is simply Shards: 1.
type Topology struct {
	// Shards is the number of shard aggregators between the clients and
	// the root. 0 and 1 both mean flat; it must not exceed the client
	// count (every shard owns at least one client).
	Shards int
	// Shuffle assigns clients to shards by a seeded permutation drawn from
	// xrand.Derive(Seed, "emu-shard-assign", 0) instead of ascending
	// contiguous slices. The aggregate is bit-identical either way (the
	// root re-canonicalizes client order); only which clients share a
	// shard's deadline pool and event queue changes.
	Shuffle bool
	// Seed keys the Shuffle permutation. RunCluster defaults it to the
	// cluster Seed when Shuffle is set and Seed is zero.
	Seed int64
	// ShardLimits optionally overrides limits per shard, indexed by shard;
	// missing or zero entries inherit the global Limits. Overrides are an
	// extension point — the bit-identical parity guarantee is stated for
	// uniform limits.
	ShardLimits []ShardLimit
	// MaxPendingHandshakes bounds concurrently in-flight hello handshakes
	// (default 4 per shard). Excess connections wait their turn — admission
	// backpressure, not rejection, so a thundering-herd dial burst
	// serializes instead of failing — and each slot is held for at most
	// DialTimeout.
	MaxPendingHandshakes int
}

// ShardLimit is one shard's local override of the global Limits.
type ShardLimit struct {
	// RoundDeadline overrides the shard's local gather deadline
	// (0 inherits Limits.RoundDeadline).
	RoundDeadline time.Duration
	// MinQuorum is a local reply floor: if the shard's deadline fires with
	// fewer accepted replies the round fails even when the global quorum
	// is met. 0 disables the local floor.
	MinQuorum int
}

// shardCount normalizes Shards: 0 means flat, i.e. one shard.
func (t Topology) shardCount() int {
	if t.Shards <= 0 {
		return 1
	}
	return t.Shards
}

// validate rejects layouts the tree cannot honour.
func (t Topology) validate(clients int) error {
	if t.Shards < 0 {
		return fmt.Errorf("emu: Topology.Shards %d is negative", t.Shards)
	}
	n := t.shardCount()
	if n > clients {
		return fmt.Errorf("emu: Topology.Shards %d exceeds Clients %d (every shard owns at least one client)", n, clients)
	}
	if len(t.ShardLimits) > n {
		return fmt.Errorf("emu: %d ShardLimits for %d shards", len(t.ShardLimits), n)
	}
	if t.MaxPendingHandshakes < 0 {
		return fmt.Errorf("emu: Topology.MaxPendingHandshakes %d is negative", t.MaxPendingHandshakes)
	}
	ranges := shard.Split(clients, n)
	for i, sl := range t.ShardLimits {
		if sl.MinQuorum < 0 || sl.MinQuorum > ranges[i].Len() {
			return fmt.Errorf("emu: ShardLimits[%d].MinQuorum %d outside [0, %d]", i, sl.MinQuorum, ranges[i].Len())
		}
		if sl.RoundDeadline < 0 {
			return fmt.Errorf("emu: ShardLimits[%d].RoundDeadline is negative", i)
		}
	}
	return nil
}

// shardAssignment maps clients onto shards: contiguous balanced ascending
// slices by default, or balanced slices of a seeded permutation with
// Shuffle. Each shard's owned set is returned ascending — the shard's
// canonical internal order — and the union always covers every client
// exactly once.
func shardAssignment(clients int, topo Topology) [][]int {
	order := make([]int, clients)
	for i := range order {
		order[i] = i
	}
	if topo.Shuffle {
		rng := xrand.Derive(topo.Seed, "emu-shard-assign", 0)
		rng.Shuffle(clients, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	ranges := shard.Split(clients, topo.shardCount())
	out := make([][]int, len(ranges))
	for i, r := range ranges {
		out[i] = slices.Clone(order[r.Lo:r.Hi])
		slices.Sort(out[i])
	}
	return out
}
