package fl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"cmfl/internal/core"
	"cmfl/internal/dataset"
	"cmfl/internal/emu/shard"
	"cmfl/internal/nn"
	"cmfl/internal/xrand"
)

func asyncConfig(t *testing.T, clients int) AsyncConfig {
	t.Helper()
	all, err := dataset.Digits(dataset.DigitsConfig{
		Samples: clients * 30, ImageSize: 10, Noise: 0.2, Seed: 71,
	})
	if err != nil {
		t.Fatal(err)
	}
	shards, err := dataset.SortedShards(all, clients, 2, xrand.New(72))
	if err != nil {
		t.Fatal(err)
	}
	test, err := dataset.Digits(dataset.DigitsConfig{Samples: 150, ImageSize: 10, Noise: 0.2, Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	return AsyncConfig{
		Model: func() *nn.Network {
			return nn.NewNetwork(nn.NewFlatten(), nn.NewDense(100, 10, xrand.Derive(74, "init", 0)))
		},
		ClientData: shards,
		TestData:   test,
		Epochs:     2,
		Batch:      4,
		LR:         core.Constant(0.1),
		Updates:    clients * 20,
		Seed:       75,
	}
}

func TestAsyncVanillaLearns(t *testing.T) {
	res, err := RunAsync(asyncConfig(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.FinalAccuracy(); acc < 0.6 {
		t.Fatalf("async accuracy = %v, want >= 0.6", acc)
	}
	if len(res.Events) != 120 {
		t.Fatalf("events = %d, want 120", len(res.Events))
	}
	last := res.Events[len(res.Events)-1]
	if last.CumUploads != 120 {
		t.Fatalf("vanilla async should upload every completion: %d", last.CumUploads)
	}
}

func TestAsyncStalenessObserved(t *testing.T) {
	cfg := asyncConfig(t, 8)
	cfg.StragglerFactor = 6
	res, err := RunAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanStaleness <= 0 {
		t.Fatalf("mean staleness = %v; stragglers should produce stale updates", res.MeanStaleness)
	}
	maxStale := 0
	for _, ev := range res.Events {
		if ev.Staleness > maxStale {
			maxStale = ev.Staleness
		}
	}
	if maxStale < 3 {
		t.Fatalf("max staleness = %d; straggler factor 6 should create >3", maxStale)
	}
}

func TestAsyncCMFLFiltersAndLearns(t *testing.T) {
	cfg := asyncConfig(t, 8)
	cfg.Filter = core.NewFilter(core.Constant(0.5))
	res, err := RunAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Events[len(res.Events)-1]
	if last.CumUploads >= len(res.Events) {
		t.Fatal("async CMFL never filtered")
	}
	skips := 0
	for _, s := range res.SkipCounts {
		skips += s
	}
	if skips+last.CumUploads != len(res.Events) {
		t.Fatalf("skips %d + uploads %d != events %d", skips, last.CumUploads, len(res.Events))
	}
	if acc := res.FinalAccuracy(); acc < 0.5 {
		t.Fatalf("async CMFL accuracy = %v, want >= 0.5", acc)
	}
}

func TestAsyncDeterministic(t *testing.T) {
	r1, err := RunAsync(asyncConfig(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunAsync(asyncConfig(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	for j := range r1.FinalParams {
		if r1.FinalParams[j] != r2.FinalParams[j] {
			t.Fatal("async runs with equal seeds diverged")
		}
	}
}

func TestAsyncEarlyStop(t *testing.T) {
	cfg := asyncConfig(t, 5)
	cfg.Updates = 500
	cfg.TargetAccuracy = 0.4
	cfg.EvalEvery = 5
	res, err := RunAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 500 {
		t.Fatal("async run did not stop early")
	}
	if res.FinalAccuracy() < 0.4 {
		t.Fatalf("stopped below target: %v", res.FinalAccuracy())
	}
}

func TestAsyncStalenessDamping(t *testing.T) {
	// An update with staleness s must be applied with weight α/√(1+s):
	// verify indirectly — fast clients (low staleness) move the model more.
	cfg := asyncConfig(t, 4)
	cfg.Updates = 40
	res, err := RunAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range res.Events {
		if ev.Staleness < 0 {
			t.Fatal("negative staleness")
		}
	}
	if math.IsNaN(res.FinalAccuracy()) {
		t.Fatal("no evaluation recorded")
	}
}

func TestAsyncValidation(t *testing.T) {
	base := asyncConfig(t, 3)
	cases := []struct {
		name   string
		mutate func(*AsyncConfig)
	}{
		{"nil model", func(c *AsyncConfig) { c.Model = nil }},
		{"no clients", func(c *AsyncConfig) { c.ClientData = nil }},
		{"zero epochs", func(c *AsyncConfig) { c.Epochs = 0 }},
		{"zero batch", func(c *AsyncConfig) { c.Batch = 0 }},
		{"nil lr", func(c *AsyncConfig) { c.LR = nil }},
		{"zero updates", func(c *AsyncConfig) { c.Updates = 0 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := RunAsync(cfg); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

// TestAsyncPinnedTrace pins one CMFL-gated asynchronous run bit for bit: the
// final model, the skip counts and every field of every event. The hash was
// taken before RunAsync trained through a reused workspace and folded each
// scaled coordinate in one sweep; neither may move a bit.
func TestAsyncPinnedTrace(t *testing.T) {
	cfg := asyncConfig(t, 5)
	cfg.Filter = core.NewFilter(core.Constant(0.5))
	cfg.Updates = 60
	res, err := RunAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	for _, v := range res.FinalParams {
		put(math.Float64bits(v))
	}
	for _, s := range res.SkipCounts {
		put(uint64(s))
	}
	for _, ev := range res.Events {
		for _, u := range []uint64{
			math.Float64bits(ev.Time), uint64(ev.Client), uint64(ev.Staleness), uint64(ev.Uploaded),
			math.Float64bits(ev.MeanRelevance), math.Float64bits(ev.Accuracy),
			uint64(ev.CumUploads), uint64(ev.CumUplinkBytes),
		} {
			put(u)
		}
	}
	// The vector kernels fuse the GEMM multiply-adds and the portable loops
	// do not, so each path has its own bits.
	const wantSIMD, wantPortable = "5005c2ce8d448db1ac13fb9b08e6ad561ca0e55426248b850413b4f12c91260d",
		"c56abe34fb6530aa13a54d7d0df4ce8069a1ebaf461d1dbc69ca6b06ce7ab109"
	if got := hex.EncodeToString(h.Sum(nil)); got != wantSIMD && got != wantPortable {
		t.Errorf("async run SHA-256 %s, want %s (AVX-512) or %s (portable)", got, wantSIMD, wantPortable)
	}
	if last := res.Events[len(res.Events)-1]; last.CumUploads == len(res.Events) {
		t.Error("the gate withheld nothing: the pin does not cover a skip")
	}
}

// TestAsyncTrainsOnOneNetwork: every completion trains on one network, so a
// run builds two, that and the evaluator, whatever the client count.
func TestAsyncTrainsOnOneNetwork(t *testing.T) {
	cfg := asyncConfig(t, 5)
	model, built := cfg.Model, 0
	cfg.Model = func() *nn.Network {
		built++
		return model()
	}
	cfg.Updates = 10
	if _, err := RunAsync(cfg); err != nil {
		t.Fatal(err)
	}
	if built != 2 {
		t.Fatalf("RunAsync built %d networks, want 2", built)
	}
}

// TestAsyncAdaptiveGateAdapts: every completion reports its one-participant
// round to the filter, so an AdaptiveFilter steers the upload fraction to its
// target from either side. A gate that is never told stays at its start
// threshold and uploads one fraction whatever the target.
func TestAsyncAdaptiveGateAdapts(t *testing.T) {
	for _, target := range []float64{0.3, 0.9} {
		cfg := asyncConfig(t, 8)
		cfg.Filter = core.NewAdaptiveFilter(0.5, target)
		res, err := RunAsync(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := len(res.Events)
		uploads := res.Events[n-1].CumUploads - res.Events[n/2-1].CumUploads
		if frac := float64(uploads) / float64(n-n/2); math.Abs(frac-target) > 0.1 {
			t.Errorf("target %v: second-half upload fraction %.3f, want within 0.1", target, frac)
		}
	}
}

// TestAsyncRefusesNonFiniteUpdate: a client whose data holds one +Inf
// feature trains to a non-finite update. RunAsync refuses it, naming the
// client and the completion, and the model it returns is the finite one from
// before that completion.
func TestAsyncRefusesNonFiniteUpdate(t *testing.T) {
	cfg := asyncConfig(t, 4)
	const bad = 2
	cfg.ClientData[bad].X.Data[0] = math.Inf(1)
	res, err := RunAsync(cfg)
	if !errors.Is(err, shard.ErrNonFinite) {
		t.Fatalf("err = %v, want one wrapping shard.ErrNonFinite", err)
	}
	if want := fmt.Sprintf("client %d, completion %d:", bad, len(res.Events)+1); !strings.Contains(err.Error(), want) {
		t.Errorf("err = %q, want it to name %q", err, want)
	}
	if err := shard.CheckFinite(res.FinalParams); err != nil {
		t.Errorf("the returned model: %v", err)
	}
}
