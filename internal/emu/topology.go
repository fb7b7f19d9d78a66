package emu

import (
	"fmt"
	"time"
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

// Topology lays out the server's aggregation tree. The zero value is the
// flat server: one aggregator owning every client.
//
// With Shards > 1 the server runs N shard aggregators, each owning a
// contiguous range of clients and running the quorum/straggler/fault
// machinery over it; per round each shard folds its accepted updates into
// an exact partial sum (internal/emu/shard.Accumulator), and the root
// merges the partials in fixed shard order. Because the accumulator's
// correctly rounded result is independent of grouping, FinalParams and
// every wire/codec counter are bit-identical across shard counts — the
// flat server is simply Shards: 1.
type Topology struct {
	// Shards is the number of shard aggregators between the clients and
	// the root. 0 and 1 both mean flat; it must not exceed the client
	// count (every shard owns at least one client).
	Shards int
}

// handshakesPerShard bounds the hello handshakes in flight per shard.
// Excess connections wait their turn — admission backpressure, not
// rejection, so a thundering-herd dial burst serializes instead of failing
// — and each slot is held for at most DialTimeout.
const handshakesPerShard = 4

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
	if n := t.shardCount(); n > clients {
		return fmt.Errorf("emu: Topology.Shards %d exceeds Clients %d (every shard owns at least one client)", n, clients)
	}
	return nil
}
