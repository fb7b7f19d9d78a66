package fl

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"cmfl/internal/compress"
	"cmfl/internal/core"
	"cmfl/internal/dataset"
	"cmfl/internal/nn"
	"cmfl/internal/xrand"
)

// stepFixture is one client of the digit-logistic workload plus a broadcast
// whose feedback is non-zero, so a CMFL gate has something to compare with.
type stepFixture struct {
	cfg Config
	net *nn.Network
	b   Broadcast
}

func newStepFixture(t *testing.T) *stepFixture {
	t.Helper()
	cfg := digitLogisticConfig(t, 8, true)
	net := cfg.Model()
	params := net.ParamVector()
	feedback := xrand.New(31).NormVec(len(params), 0, 1)
	return &stepFixture{cfg: cfg, net: net, b: Broadcast{
		Round: 2, LR: 0.15, Params: params,
		Feedback: feedback, Signs: core.SignsInto(nil, feedback),
	}}
}

func (f *stepFixture) step(filter UploadFilter, codec UpdateCodec) *ClientStep {
	return &ClientStep{Epochs: f.cfg.Epochs, Batch: f.cfg.Batch, Filter: filter, Compressor: codec}
}

// train runs step for the fixture's client on sc's buffers.
func (f *stepFixture) train(t *testing.T, step *ClientStep, sc *Scratch) Reply {
	t.Helper()
	var r Reply
	if err := step.Train(sc, f.net, f.cfg.ClientData[0], xrand.New(33), &f.b, &r); err != nil {
		t.Fatal(err)
	}
	return r
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s[%d] = %v, want %v", what, j, got[j], want[j])
		}
	}
}

// TestClientStep pins the order of operations inside the shared client step
// — the determinism contract every engine now inherits from one place.
func TestClientStep(t *testing.T) {
	codec, err := compress.ParseName("top6+quantize8")
	if err != nil {
		t.Fatal(err)
	}
	never := core.NewFilter(core.Constant(2)) // no relevance reaches 2: always skip

	t.Run("skip leaves the residual untouched and costs a notification", func(t *testing.T) {
		f := newStepFixture(t)
		step := f.step(never, codec)
		sc := Scratch{Residual: xrand.New(32).NormVec(len(f.b.Params), 0, 1)}
		before := append([]float64(nil), sc.Residual...)
		r := f.train(t, step, &sc)
		payload, err := step.Pack(&sc, &r)
		if err != nil {
			t.Fatal(err)
		}
		if r.Upload || payload != nil || r.Bytes != SkipNotificationBytes {
			t.Fatalf("skip: upload=%v payload=%d bytes, Bytes=%d", r.Upload, len(payload), r.Bytes)
		}
		sameBits(t, "residual", sc.Residual, before)
	})

	t.Run("error feedback keeps what the codec dropped", func(t *testing.T) {
		f := newStepFixture(t)
		step := f.step(Vanilla{}, codec)
		sc := Scratch{Residual: xrand.New(32).NormVec(len(f.b.Params), 0, 1)}
		r := f.train(t, step, &sc)
		corrected := append([]float64(nil), r.Delta...)
		for j := range corrected {
			corrected[j] += sc.Residual[j]
		}
		payload, err := step.Pack(&sc, &r)
		if err != nil {
			t.Fatal(err)
		}
		if r.Bytes != int64(len(payload)) || len(payload) == 0 {
			t.Fatalf("Bytes = %d, payload %d bytes", r.Bytes, len(payload))
		}
		decoded, err := codec.DecodeInto(nil, payload, len(corrected))
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "aggregated delta", r.Delta, decoded)
		for j := range corrected {
			corrected[j] -= decoded[j]
		}
		sameBits(t, "residual", sc.Residual, corrected)
	})

	t.Run("raw upload costs 8 bytes a coordinate and no codec scratch", func(t *testing.T) {
		f := newStepFixture(t)
		step := f.step(Vanilla{}, nil)
		var sc Scratch
		r := f.train(t, step, &sc)
		sent := append([]float64(nil), r.Delta...)
		payload, err := step.Pack(&sc, &r)
		if err != nil {
			t.Fatal(err)
		}
		if payload != nil || r.Bytes != int64(8*len(f.b.Params)) {
			t.Fatalf("raw: payload %d bytes, Bytes = %d, want %d", len(payload), r.Bytes, 8*len(f.b.Params))
		}
		if sc.enc != nil || sc.vals != nil {
			t.Fatal("raw upload allocated codec scratch")
		}
		sameBits(t, "delta", r.Delta, sent)
	})

	t.Run("DP noise is drawn after the solver's draws", func(t *testing.T) {
		f := newStepFixture(t)
		step := f.step(Vanilla{}, nil)
		step.DPNoiseSigma = 0.01
		r := f.train(t, step, new(Scratch))
		rng := xrand.New(33)
		want, _, err := LocalTrainProx(f.cfg.Model(), f.cfg.ClientData[0], f.b.Params, f.b.LR, step.Epochs, step.Batch, 0, rng)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			want[j] += step.DPNoiseSigma * rng.Norm()
		}
		sameBits(t, "delta", r.Delta, want)
	})

	t.Run("nil signs are the zero-feedback bootstrap", func(t *testing.T) {
		cosine := core.NewFilter(core.Constant(2))
		cosine.UseCosine = true // no sign fast path: falls back to Check on the float feedback
		for _, filter := range []UploadFilter{never, cosine} {
			f := newStepFixture(t)
			f.b.Feedback, f.b.Signs = make([]float64, len(f.b.Params)), nil
			r := f.train(t, f.step(filter, nil), new(Scratch))
			if !r.Upload || !math.IsNaN(r.Relevance) {
				t.Fatalf("%s bootstrap: upload=%v relevance=%v, want true, NaN", filter.Name(), r.Upload, r.Relevance)
			}
		}
	})

	t.Run("the step allocates nothing over the bare solver", func(t *testing.T) {
		// Nor does the solver: a steady-state Train+Pack allocates nothing.
		f := newStepFixture(t)
		gate := core.NewFilter(core.Constant(0)) // sign path, always uploads
		// quantize8 keeps no pooled scratch; top-k's sync.Pool drops items under
		// the race detector, which would count as the step's allocations.
		dense, err := compress.ParseName("quantize8")
		if err != nil {
			t.Fatal(err)
		}
		lstm := nn.LSTMConfig{Vocab: 40, Embed: 8, Hidden: 12, Layers: 2}
		for _, m := range []struct {
			name string
			net  *nn.Network
			data *dataset.Set
		}{
			{"flatten-dense", f.net, f.cfg.ClientData[0]},
			{"logistic", nn.NewLogistic(20, 5, xrand.New(41)), randomSet(24, []int{20}, 5, xrand.New(42))},
			{"cnn", nn.NewCNN(nn.DefaultCNNConfig(), xrand.New(43)), randomSet(12, []int{1, 14, 14}, 10, xrand.New(44))},
			{"lstm", nn.NewNextWordLSTM(lstm, xrand.New(45)), tokenSet(16, 5, lstm.Vocab, xrand.New(46))},
		} {
			params := m.net.ParamVector()
			feedback := xrand.New(31).NormVec(len(params), 0, 1)
			b := Broadcast{Round: 2, LR: 0.05, Params: params, Feedback: feedback, Signs: core.SignsInto(nil, feedback)}
			rng := xrand.New(33)
			for name, c := range map[string]UpdateCodec{"raw": nil, "codec": dense} {
				step := &ClientStep{Epochs: 2, Batch: 4, Filter: gate, Compressor: c}
				var sc Scratch
				var r Reply
				run := func() {
					err := step.Train(&sc, m.net, m.data, rng, &b, &r)
					if err == nil {
						_, err = step.Pack(&sc, &r)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				run() // warm-up: the buffers grow once
				if got := testing.AllocsPerRun(20, run); got != 0 {
					t.Errorf("%s %s: %v allocs per Train+Pack, want 0", m.name, name, got)
				}
				if !r.Upload {
					t.Fatalf("%s %s: expected an upload", m.name, name)
				}
			}
		}
	})
}

// TestPackSparseEF holds Pack's sparse route — residual updated at the k
// coordinates that travelled, Reply.Delta cleared and scattered — to the
// dense definition of error feedback it replaces: send = delta + residual,
// residual = send − decode(encode(send)), Reply.Delta = that decode. Twenty
// rounds, so the residual the codec discards compounds through both.
func TestPackSparseEF(t *testing.T) {
	const dim = 4000
	codec := compress.NewChain(compress.TopK{K: 1000}, compress.Uniform8{})
	step := &ClientStep{Compressor: codec}
	sc := Scratch{Residual: make([]float64, dim)}
	residual := make([]float64, dim)
	rng := xrand.New(9)
	for round := 1; round <= 20; round++ {
		delta := rng.NormVec(dim, 0, 0.1)
		for j := 0; j < dim; j += 7 {
			delta[j] = 0 // exact zeros, so some coordinates never travel
		}
		send := make([]float64, dim)
		for j := range send {
			send[j] = delta[j] + residual[j]
		}
		wantPayload, err := compress.Encode(codec, send)
		if err != nil {
			t.Fatal(err)
		}
		wantDelta, err := compress.Decode(codec, wantPayload, dim)
		if err != nil {
			t.Fatal(err)
		}
		for j := range residual {
			residual[j] = send[j] - wantDelta[j]
		}

		r := Reply{Delta: delta, Upload: true}
		payload, err := step.Pack(&sc, &r)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if string(payload) != string(wantPayload) {
			t.Fatalf("round %d: payload differs from the dense formula's", round)
		}
		if r.Bytes != int64(len(wantPayload)) {
			t.Fatalf("round %d: Bytes = %d, want %d", round, r.Bytes, len(wantPayload))
		}
		sameBits(t, "Reply.Delta", r.Delta, wantDelta)
		sameBits(t, "residual", sc.Residual, residual)
	}
}

// TestSplitRespectsBusyCores is the engine-level half of the tensor test of
// the same name: as many CNN local rounds as there are cores, run side by
// side (each product serial, its cores held by the other rounds), produce
// bit-identical deltas and losses to the same rounds run one at a time (each
// a lone caller whose large products split). Run with -race.
func TestSplitRespectsBusyCores(t *testing.T) {
	trainers := max(runtime.GOMAXPROCS(0), 2)
	cfg := nn.CNNConfig{ImageSize: 28, Kernel: 5, Conv1: 8, Conv2: 16, Hidden: 64, Classes: 10} // conv2 crosses the split threshold
	step := &ClientStep{Epochs: 1, Batch: 2, Filter: Vanilla{}}
	params := nn.NewCNN(cfg, xrand.New(1)).ParamVector()
	b := &Broadcast{Round: 1, LR: 0.05, Params: params, Feedback: make([]float64, len(params))}
	round := func(i int) Reply {
		shard := randomSet(6, []int{1, 28, 28}, 10, xrand.New(int64(10+i)))
		var r Reply
		if err := step.Train(new(Scratch), nn.NewCNN(cfg, xrand.New(1)), shard, xrand.New(int64(20+i)), b, &r); err != nil {
			t.Error(err)
		}
		return r
	}
	alone := make([]Reply, trainers)
	for i := range alone {
		alone[i] = round(i)
	}
	together := make([]Reply, trainers)
	var wg sync.WaitGroup
	for i := range together {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			together[i] = round(i)
		}(i)
	}
	wg.Wait()
	for i := range alone {
		sameBits(t, "delta of a round run beside others", together[i].Delta, alone[i].Delta)
		if math.Float64bits(together[i].Loss) != math.Float64bits(alone[i].Loss) {
			t.Errorf("trainer %d: loss %v beside others, %v alone", i, together[i].Loss, alone[i].Loss)
		}
	}
}
