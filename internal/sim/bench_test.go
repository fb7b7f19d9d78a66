package sim

import (
	"runtime"
	"testing"
	"time"

	"cmfl/internal/core"
	"cmfl/internal/fl"
)

// closeLoop is a schedule over n clients, every one available, whose reply
// delays spread over 0–996 µs against a 900 µs deadline: about one reply in
// ten is a straggler, and the next round drains it as a late frame. round
// closes one round in virtual time, the whole of Run's serial work per round
// minus training and the availability draws. The first two rounds size the
// accepted and straggler lists: the second carries the first's stragglers
// beside its own until it drains them.
type closeLoop struct {
	s       *schedule
	replies []fl.Reply
	t       int
}

func newCloseLoop(n int) *closeLoop {
	cfg := &Config{RoundDeadline: 900 * time.Microsecond, Availability: 1, MinQuorum: 1}
	l := &closeLoop{s: newSchedule(cfg, n), replies: make([]fl.Reply, n)}
	for c := 0; c < n; c++ {
		l.s.expected[c] = true
		l.s.trained = append(l.s.trained, c)
		l.s.delays[c] = time.Duration((c*7919)%997) * time.Microsecond
	}
	return l
}

// warm closes the two rounds that size the lists.
func (l *closeLoop) warm(tb testing.TB) *closeLoop {
	l.round(tb)
	l.round(tb)
	return l
}

func (l *closeLoop) round(tb testing.TB) {
	l.t++
	l.s.res.History = l.s.res.History[:0]
	if _, err := l.s.Accept(l.t, l.s.trained, l.replies); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkEventLoopSteadyState closes rounds of 4096 clients with
// stragglers, 0 allocs/op once the lists are sized.
func BenchmarkEventLoopSteadyState(b *testing.B) {
	l := newCloseLoop(4096).warm(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.round(b)
	}
}

// BenchmarkEventLoop100k is the 100k-client smoke at the round-close level:
// one pass over a full round's replies, the stragglers carried and the last
// round's drained, 0 allocs/op once the lists are sized.
func BenchmarkEventLoop100k(b *testing.B) {
	l := newCloseLoop(100_000).warm(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.round(b)
	}
}

// TestEventLoopAllocFree enforces the 0 allocs/op contract directly: once
// the lists are sized, closing a round with stragglers allocates nothing.
func TestEventLoopAllocFree(t *testing.T) {
	l := newCloseLoop(1024).warm(t)
	if allocs := testing.AllocsPerRun(100, func() { l.round(t) }); allocs != 0 {
		t.Fatalf("a steady-state round close allocates %.1f times, want 0", allocs)
	}
	if l.s.res.LateReplies == 0 {
		t.Fatal("no straggler drained as a late reply; the loop no longer exercises the carried list")
	}
}

// TestRunAllocsPerClient bounds what a simulated client costs the allocator
// over a whole run: its two compact streams, one allocation each, and
// nothing per round.
func TestRunAllocsPerClient(t *testing.T) {
	const clients = 20_000
	wl, err := SyntheticWorkload(clients, 16, 4, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Model: wl.Model, ClientData: wl.Shards,
		Epochs: 1, Batch: 8, LR: core.Constant(0.1),
		Filter: core.NewFilter(core.Constant(0.6)),
		Rounds: 3, Seed: 5, Shards: 2,
		Arrival: LogNormalDist{Median: 200 * time.Millisecond, Sigma: 0.6}, Latency: ExpDist{Mean: 50 * time.Millisecond},
		BandwidthBytesPerSec: 1e6, Availability: 0.9, RoundDeadline: 2 * time.Second,
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.LateReplies == 0 {
		t.Fatal("no straggler drained; the run no longer exercises the deadline")
	}
	if per := float64(after.Mallocs-before.Mallocs) / clients; per > 2.05 {
		t.Fatalf("Run makes %.2f allocations per client, want at most 2.05", per)
	}
}

// TestSyntheticWorkloadAllocsPerClient bounds what building a client costs
// the allocator: its Set, X (header, shape and data) and Y, and nothing
// else — the build workers re-point one stream and reuse one offset buffer.
func TestSyntheticWorkloadAllocsPerClient(t *testing.T) {
	const clients = 20_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	wl, err := SyntheticWorkload(clients, 16, 4, 8, 5)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(wl.Shards) != clients {
		t.Fatalf("built %d shards, want %d", len(wl.Shards), clients)
	}
	if per := float64(after.Mallocs-before.Mallocs) / clients; per > 5.05 {
		t.Fatalf("SyntheticWorkload makes %.2f allocations per client, want at most 5.05", per)
	}
}

// BenchmarkSyntheticWorkload builds sim_100k_narrow's population (100k
// training and 1k test clients, 8 samples of 16 features, 4 classes) and
// sim_wide_q8's (256 clients, 32 samples of 1000 features, 100 classes).
func BenchmarkSyntheticWorkload(b *testing.B) {
	for _, c := range []struct {
		name                                string
		clients, features, classes, samples int
	}{
		{"narrow-101k", 101_000, 16, 4, 8},
		{"wide-256", 256, 1000, 100, 32},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SyntheticWorkload(c.clients, c.features, c.classes, c.samples, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
