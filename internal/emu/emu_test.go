package emu

import (
	"bytes"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"cmfl/internal/compress"
	"cmfl/internal/core"
	"cmfl/internal/dataset"
	"cmfl/internal/fl"
	"cmfl/internal/nn"
	"cmfl/internal/telemetry"
	"cmfl/internal/xrand"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	n, err := writeFrame(&buf, msgModel, []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(frameOverhead+3) {
		t.Fatalf("wire size = %d, want %d", n, frameOverhead+3)
	}
	f, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.kind != msgModel || !bytes.Equal(f.payload, []byte{1, 2, 3}) {
		t.Fatalf("frame round trip = %+v", f)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if _, err := writeFrame(&buf, msgDone, nil); err != nil {
		t.Fatal(err)
	}
	f, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.kind != msgDone || len(f.payload) != 0 {
		t.Fatalf("frame = %+v", f)
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, msgModel})
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("expected ErrFrameTooLarge")
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 10, msgModel, 1, 2}) // claims 10 bytes, has 2
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestModelCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		params := rng.NormVec(1+rng.Intn(50), 0, 3)
		round := rng.Intn(10000)
		got, gotParams, err := decodeModel(nil, encodeModel(round, params))
		if err != nil || got != round || len(gotParams) != len(params) {
			return false
		}
		for i := range params {
			if params[i] != gotParams[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		delta := rng.NormVec(1+rng.Intn(50), 0, 3)
		want := replyHeader{client: rng.Intn(100), round: rng.Intn(1000), relevance: rng.Float64(), loss: rng.Float64(), dim: len(delta)}
		h, gd, err := decodeUpdate(nil, encodeUpdate(want.client, want.round, want.relevance, want.loss, delta))
		if err != nil || h != want || len(gd) != len(delta) {
			return false
		}
		for i := range delta {
			if delta[i] != gd[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSkipCodecRoundTrip(t *testing.T) {
	h, err := decodeSkip(encodeSkip(7, 42, 0.375, 1.25))
	if want := (replyHeader{client: 7, round: 42, relevance: 0.375, loss: 1.25}); err != nil || h != want {
		t.Fatalf("skip round trip = %+v %v, want %+v", h, err, want)
	}
}

func TestHelloCodec(t *testing.T) {
	// v1 (raw) form: 4 bytes, nil spec.
	id, spec, err := decodeHello(encodeHello(29, nil))
	if err != nil || id != 29 || spec != nil {
		t.Fatalf("hello v1 round trip = %d, %v, %v", id, spec, err)
	}
	// v2 form carries the codec spec verbatim.
	wantSpec, err := compress.EncodeSpec(compress.NewChain(compress.TopK{K: 5}, compress.Uniform8{}))
	if err != nil {
		t.Fatal(err)
	}
	id, spec, err = decodeHello(encodeHello(3, wantSpec))
	if err != nil || id != 3 || !bytes.Equal(spec, wantSpec) {
		t.Fatalf("hello v2 round trip = %d, %x, %v (want spec %x)", id, spec, err, wantSpec)
	}
	if _, _, err := decodeHello([]byte{1, 2}); err == nil {
		t.Fatal("expected error for short hello")
	}
	// Bad version tag.
	bad := encodeHello(3, wantSpec)
	bad[4] = 9
	if _, _, err := decodeHello(bad); err == nil {
		t.Fatal("expected error for unknown hello version")
	}
	// Spec length disagreeing with the payload.
	bad = encodeHello(3, wantSpec)
	if _, _, err := decodeHello(bad[:len(bad)-1]); err == nil {
		t.Fatal("expected error for truncated hello spec")
	}
}

func TestDecodeErrorsOnShortPayloads(t *testing.T) {
	if _, _, err := decodeModel(nil, []byte{1}); err == nil {
		t.Fatal("decodeModel should reject short payload")
	}
	if _, _, err := decodeUpdate(nil, []byte{1, 2, 3}); err == nil {
		t.Fatal("decodeUpdate should reject short payload")
	}
	if _, err := decodeSkip([]byte{1}); err == nil {
		t.Fatal("decodeSkip should reject short payload")
	}
	if _, err := decodeSkip(encodeUpdate(1, 2, 0.5, 0.25, nil)); err == nil {
		t.Fatal("decodeSkip should reject an update-sized payload")
	}
	// Declared dim larger than payload.
	p := encodeModel(1, []float64{1, 2})
	if _, _, err := decodeModel(nil, p[:len(p)-8]); err == nil {
		t.Fatal("decodeModel should reject inconsistent dim")
	}
}

// clusterConfig builds a small linear-model cluster over synthetic digits.
func clusterConfig(t *testing.T, clients, rounds int, filter fl.UploadFilter) ClusterConfig {
	t.Helper()
	all, err := dataset.Digits(dataset.DigitsConfig{Samples: 300, ImageSize: 10, Noise: 0.2, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	shards, err := dataset.SortedShards(all, clients, 2, xrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	test, err := dataset.Digits(dataset.DigitsConfig{Samples: 100, ImageSize: 10, Noise: 0.2, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	return ClusterConfig{
		Model: func() *nn.Network {
			return nn.NewNetwork(nn.NewFlatten(), nn.NewDense(100, 10, xrand.Derive(44, "init", 0)))
		},
		ClientData: shards,
		TestData:   test,
		Epochs:     2,
		Batch:      4,
		LR:         core.Constant(0.15),
		Filter:     filter,
		Rounds:     rounds,
		Seed:       45,
		Limits: Limits{
			DialTimeout:   30 * time.Second,
			RoundDeadline: 30 * time.Second,
		},
	}
}

func TestClusterVanillaTrains(t *testing.T) {
	res, err := RunCluster(clusterConfig(t, 4, 10, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Server.History) != 10 {
		t.Fatalf("server history = %d rounds, want 10", len(res.Server.History))
	}
	last := res.Server.History[9]
	if last.CumUploads != 40 {
		t.Fatalf("vanilla uploads = %d, want 40", last.CumUploads)
	}
	if acc := res.Server.FinalAccuracy(); acc < 0.5 {
		t.Fatalf("cluster accuracy = %v, want >= 0.5", acc)
	}
	for i, c := range res.Clients {
		if c.Rounds != 10 || c.Uploads != 10 || c.Skips != 0 {
			t.Fatalf("client %d participation = %+v", i, c)
		}
	}
}

func TestClusterCMFLSkips(t *testing.T) {
	res, err := RunCluster(clusterConfig(t, 6, 12, core.NewFilter(core.Constant(0.5))))
	if err != nil {
		t.Fatal(err)
	}
	last := res.Server.History[len(res.Server.History)-1]
	if last.CumUploads >= 6*len(res.Server.History) {
		t.Fatal("CMFL cluster never skipped an upload")
	}
	totalSkips := 0
	for _, c := range res.Clients {
		totalSkips += c.Skips
	}
	serverSkips := 0
	for _, s := range res.Server.SkipCounts {
		serverSkips += s
	}
	if totalSkips != serverSkips {
		t.Fatalf("client-side skips %d != server-side skips %d", totalSkips, serverSkips)
	}
}

// TestObserverOrderingEmu pins the master's observer stream, the twin of
// fl's checkOrdering: rounds arrive 1..n, every ClientEvent of round k lands
// before round k's RoundEvent in ascending client id (updates and skips
// interleaved, like every other engine), the stream adds up to the round
// totals, and the observed RoundEvents are the history's.
func TestObserverOrderingEmu(t *testing.T) {
	cfg := clusterConfig(t, 8, 6, core.NewFilter(core.Constant(0.55)))
	cfg.Topology = Topology{Shards: 3}
	var rounds []telemetry.RoundEvent
	var pending []telemetry.ClientEvent // the current round's, so far
	var cumBytes int64
	interleaved := false // some skip came before an update of the same round
	cfg.Observers = []telemetry.Observer{telemetry.Funcs{
		Client: func(e telemetry.ClientEvent) {
			if e.Engine != telemetry.EngineEmu || e.Round != len(rounds)+1 {
				t.Errorf("ClientEvent %+v while round %d was current", e, len(rounds)+1)
			}
			if n := len(pending); n > 0 && pending[n-1].Client >= e.Client {
				t.Errorf("round %d: client %d emitted after client %d", e.Round, e.Client, pending[n-1].Client)
			}
			pending = append(pending, e)
		},
		Round: func(e telemetry.RoundEvent) {
			if e.Engine != telemetry.EngineEmu || e.Round != len(rounds)+1 {
				t.Errorf("RoundEvent %+v after %d rounds", e, len(rounds))
			}
			uploads := 0
			for i, c := range pending {
				cumBytes += c.UplinkBytes
				if c.Uploaded {
					uploads++
					interleaved = interleaved || uploads <= i
				}
			}
			if len(pending) != e.Participants || uploads != e.Uploaded || e.Uploaded+e.Skipped != e.Participants {
				t.Errorf("round %d: %d client events with %d uploads, RoundEvent %+v", e.Round, len(pending), uploads, e)
			}
			if e.CumUplinkBytes != cumBytes {
				t.Errorf("round %d: CumUplinkBytes = %d, client stream sums to %d", e.Round, e.CumUplinkBytes, cumBytes)
			}
			rounds, pending = append(rounds, e), pending[:0]
		},
	}}
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != len(res.Server.History) {
		t.Fatalf("observed %d rounds, history has %d", len(rounds), len(res.Server.History))
	}
	for i, e := range rounds {
		if e != res.Server.History[i].RoundEvent {
			t.Fatalf("round %d: observed event %+v != history %+v", i+1, e, res.Server.History[i].RoundEvent)
		}
	}
	if !interleaved {
		t.Fatal("no skip below an updating client id: the interleaving was not exercised")
	}
}

// signProbe counts which gate path the emu client takes.
type signProbe struct {
	*core.Filter
	slow, fast, bootstrap atomic.Int64
}

func (p *signProbe) Check(local, model, prevGlobal []float64, t int) (core.Decision, error) {
	p.slow.Add(1)
	return p.Filter.Check(local, model, prevGlobal, t)
}

func (p *signProbe) CheckSigns(local []float64, signs []int8, t int) (core.Decision, bool, error) {
	p.fast.Add(1)
	if len(signs) == 0 {
		p.bootstrap.Add(1)
	}
	return p.Filter.CheckSigns(local, signs, t)
}

// slowOnly hides a filter's sign fast path, forcing Check on the float
// feedback — the path the emu client took before it shared fl.ClientStep.
type slowOnly struct{ fl.UploadFilter }

// TestClientGatesOnSigns pins the emu client to the shared step's gate: it
// decides on a sign vector computed once per received model (nil, hence an
// upload and a NaN relevance, until the first non-zero model difference), and
// its decisions and reported relevance equal the float-feedback path's.
func TestClientGatesOnSigns(t *testing.T) {
	const clients, rounds = 6, 12
	probe := &signProbe{Filter: core.NewFilter(core.Constant(0.5))}
	fast, err := RunCluster(clusterConfig(t, clients, rounds, probe))
	if err != nil {
		t.Fatal(err)
	}
	if probe.slow.Load() != 0 || probe.fast.Load() != clients*rounds {
		t.Fatalf("gate calls: %d on float feedback, %d on signs, want 0 and %d", probe.slow.Load(), probe.fast.Load(), clients*rounds)
	}
	if probe.bootstrap.Load() != clients {
		t.Fatalf("%d decisions without signs, want %d (round 1 only)", probe.bootstrap.Load(), clients)
	}
	if first := fast.Server.History[0]; first.Uploaded != clients || !math.IsNaN(first.MeanRelevance) {
		t.Fatalf("bootstrap round: %d uploads, mean relevance %v, want %d and NaN", first.Uploaded, first.MeanRelevance, clients)
	}

	slow, err := RunCluster(clusterConfig(t, clients, rounds, slowOnly{core.NewFilter(core.Constant(0.5))}))
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for r, fs := range fast.Server.History {
		ss := slow.Server.History[r]
		if fs.Uploaded != ss.Uploaded || math.Float64bits(fs.MeanRelevance) != math.Float64bits(ss.MeanRelevance) {
			t.Fatalf("round %d: sign path %d uploads, relevance %v; float path %d, %v", r+1, fs.Uploaded, fs.MeanRelevance, ss.Uploaded, ss.MeanRelevance)
		}
		skipped += fs.Skipped
	}
	if skipped == 0 {
		t.Fatal("the gate never skipped: the comparison is vacuous")
	}
	for j := range fast.Server.FinalParams {
		if math.Float64bits(fast.Server.FinalParams[j]) != math.Float64bits(slow.Server.FinalParams[j]) {
			t.Fatalf("param %d: sign path %v, float path %v", j, fast.Server.FinalParams[j], slow.Server.FinalParams[j])
		}
	}
}

// feedbackProbe records, per round, the sign vector and the float feedback the
// client gates on (every client of a round holds the same pair, so the first
// to arrive records it) and withholds every update of round empty.
type feedbackProbe struct {
	empty    int
	mu       sync.Mutex
	signs    map[int][]int8
	feedback map[int][]float64
}

func (p *feedbackProbe) Name() string { return "feedback-probe" }

// CheckSigns declines, so the step goes on to Check with the float feedback.
func (p *feedbackProbe) CheckSigns(local []float64, signs []int8, t int) (core.Decision, bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, seen := p.signs[t]; !seen {
		p.signs[t] = append([]int8(nil), signs...)
	}
	return core.Decision{}, false, nil
}

func (p *feedbackProbe) Check(local, model, prevGlobal []float64, t int) (core.Decision, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, seen := p.feedback[t]; !seen {
		p.feedback[t] = append([]float64(nil), prevGlobal...)
	}
	return core.Decision{Upload: t != p.empty, Metric: 1}, nil
}

// TestClientFeedbackPrelude holds the client's one-sweep prelude to the rule
// it replaced: every round's signs are the signs of that round's feedback,
// the feedback is the difference of the last two distinct models, and a round
// nobody uploaded in (x_t == x_{t−1}) leaves both untouched.
func TestClientFeedbackPrelude(t *testing.T) {
	const clients, rounds, empty = 3, 6, 3
	probe := &feedbackProbe{empty: empty, signs: map[int][]int8{}, feedback: map[int][]float64{}}
	res, err := RunCluster(clusterConfig(t, clients, rounds, probe))
	if err != nil {
		t.Fatal(err)
	}
	if h := res.Server.History[empty-1]; h.Uploaded != 0 {
		t.Fatalf("round %d: %d uploads, want none", empty, h.Uploaded)
	}
	if len(probe.signs[1]) != 0 || !core.AllZero(probe.feedback[1]) {
		t.Fatalf("round 1 gated on %d signs and a non-zero feedback", len(probe.signs[1]))
	}
	for r := 2; r <= rounds; r++ {
		fb, signs := probe.feedback[r], probe.signs[r]
		if core.AllZero(fb) {
			t.Fatalf("round %d: no feedback although round 1 uploaded", r)
		}
		want := core.SignsInto(nil, fb)
		if len(signs) != len(want) {
			t.Fatalf("round %d: %d signs for %d coordinates", r, len(signs), len(want))
		}
		for j := range want {
			if signs[j] != want[j] {
				t.Fatalf("round %d: signs[%d] = %d, feedback %v", r, j, signs[j], fb[j])
			}
		}
		same := true
		for j := range fb {
			same = same && math.Float64bits(fb[j]) == math.Float64bits(probe.feedback[r-1][j])
		}
		if same != (r == empty+1) {
			t.Fatalf("round %d: feedback unchanged since the round before = %v", r, same)
		}
	}
}

func TestClusterByteAccountingConsistency(t *testing.T) {
	res, err := RunCluster(clusterConfig(t, 3, 5, core.NewFilter(core.Constant(0.4))))
	if err != nil {
		t.Fatal(err)
	}
	// Server-observed uplink wire bytes must equal the sum of what clients
	// sent, minus their hello frames.
	var clientSent int64
	for _, c := range res.Clients {
		clientSent += c.SentWire
	}
	helloBytes := int64(len(res.Clients)) * int64(frameOverhead+4)
	if res.Server.UplinkWireBytes != clientSent-helloBytes {
		t.Fatalf("uplink accounting: server saw %d, clients sent %d (incl. %d hello)",
			res.Server.UplinkWireBytes, clientSent, helloBytes)
	}
	// Application-level bytes (paper metric) must be below wire bytes.
	last := res.Server.History[len(res.Server.History)-1]
	if last.CumUplinkBytes >= res.Server.UplinkWireBytes {
		t.Fatalf("app bytes %d should be < wire bytes %d", last.CumUplinkBytes, res.Server.UplinkWireBytes)
	}
}

func TestClusterEarlyStop(t *testing.T) {
	cfg := clusterConfig(t, 4, 50, nil)
	cfg.TargetAccuracy = 0.4
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Server.History) == 50 {
		t.Fatal("cluster did not stop early")
	}
}

func TestServerValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{Clients: 0, Model: nil, Rounds: 1}); err == nil {
		t.Fatal("expected error for zero clients")
	}
	model := func() *nn.Network { return nn.NewLogistic(2, 2, xrand.New(1)) }
	if _, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Clients: 1, Model: model, Rounds: 0}); err == nil {
		t.Fatal("expected error for zero rounds")
	}
}

func TestClientValidation(t *testing.T) {
	model := func() *nn.Network { return nn.NewLogistic(2, 2, xrand.New(1)) }
	data, _ := dataset.Digits(dataset.DigitsConfig{Samples: 10, ImageSize: 8, Seed: 1})
	base := ClientConfig{Addr: "x", ID: 0, Model: model, Data: data, Epochs: 1, Batch: 1, LR: core.Constant(0.1)}
	cases := []struct {
		name   string
		mutate func(*ClientConfig)
	}{
		{"no addr", func(c *ClientConfig) { c.Addr = "" }},
		{"negative id", func(c *ClientConfig) { c.ID = -1 }},
		{"nil model", func(c *ClientConfig) { c.Model = nil }},
		{"nil data", func(c *ClientConfig) { c.Data = nil }},
		{"zero epochs", func(c *ClientConfig) { c.Epochs = 0 }},
		{"zero batch", func(c *ClientConfig) { c.Batch = 0 }},
		{"nil lr", func(c *ClientConfig) { c.LR = nil }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if err := validateClient(&cfg); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestFaultToleranceSurvivesDeadClient(t *testing.T) {
	cfg := clusterConfig(t, 3, 6, nil)
	srv, err := NewServer(ServerConfig{
		Addr:         "127.0.0.1:0",
		Clients:      3,
		Model:        cfg.Model,
		TestData:     cfg.TestData,
		Rounds:       6,
		RoundTimeout: 5 * time.Second,
		Limits:       Limits{DialTimeout: 10 * time.Second, FaultTolerant: true},
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

	// Two healthy clients; their errors are asserted after the server run.
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
	// One client that says hello and immediately dies.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writeFrame(conn, msgHello, encodeHello(2, nil)); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	o := <-done
	if o.err != nil {
		t.Fatalf("fault-tolerant server failed: %v", o.err)
	}
	if len(o.res.DroppedClients) != 1 {
		t.Fatalf("dropped clients = %v, want exactly client 2", o.res.DroppedClients)
	}
	if _, ok := o.res.DroppedClients[2]; !ok {
		t.Fatalf("dropped clients = %v, want client 2", o.res.DroppedClients)
	}
	if len(o.res.History) != 6 {
		t.Fatalf("training stopped after %d rounds, want 6", len(o.res.History))
	}
	// Later rounds should proceed with the two survivors.
	last := o.res.History[5]
	if last.Uploaded != 2 {
		t.Fatalf("final round uploads = %d, want 2 survivors", last.Uploaded)
	}
	// The healthy clients must have finished cleanly.
	for i := 0; i < 2; i++ {
		if err := <-clientErrs; err != nil {
			t.Fatalf("healthy client failed: %v", err)
		}
	}
}

func TestStrictModeAbortsOnDeadClient(t *testing.T) {
	cfg := clusterConfig(t, 2, 4, nil)
	srv, err := NewServer(ServerConfig{
		Addr:         "127.0.0.1:0",
		Clients:      2,
		Model:        cfg.Model,
		TestData:     cfg.TestData,
		Rounds:       4,
		RoundTimeout: 3 * time.Second,
		Limits:       Limits{DialTimeout: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run()
		done <- err
	}()
	clientErr := make(chan error, 1)
	go func() {
		_, err := RunClient(ClientConfig{
			Addr:   srv.Addr(),
			ID:     0,
			Model:  cfg.Model,
			Data:   cfg.ClientData[0],
			Epochs: cfg.Epochs,
			Batch:  cfg.Batch,
			LR:     cfg.LR,
			Seed:   cfg.Seed,
		})
		clientErr <- err
	}()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writeFrame(conn, msgHello, encodeHello(1, nil)); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if err := <-done; err == nil {
		t.Fatal("strict server should abort when a client dies")
	}
	// The surviving client's connection dies with the aborting server; it
	// must observe that as an error, not a clean finish.
	if err := <-clientErr; err == nil {
		t.Fatal("client finished cleanly although the server aborted mid-run")
	}
}

func TestUpdate2CodecRoundTrip(t *testing.T) {
	payload := []byte{9, 8, 7}
	p := encodeUpdate2(3, 14, 0.25, 2.5, 100, payload)
	h, got, err := decodeUpdate2(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := (replyHeader{client: 3, round: 14, relevance: 0.25, loss: 2.5, dim: 100}); h != want {
		t.Fatalf("header round trip: %+v, want %+v", h, want)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %v", got)
	}
	if _, _, err := decodeUpdate2([]byte{1, 2}); err == nil {
		t.Fatal("expected error for short payload")
	}
}

func TestParseReplyHeader(t *testing.T) {
	cases := []struct {
		kind    byte
		payload []byte
	}{
		{msgUpdate, encodeUpdate(7, 42, 0.5, 0.25, []float64{1, 2})},
		{msgUpdate2, encodeUpdate2(7, 42, 0.5, 0.25, 2, []byte{1})},
		{msgSkip, encodeSkip(7, 42, 0.5, 0.25)},
	}
	for _, tc := range cases {
		id, round, err := parseReplyHeader(&frame{kind: tc.kind, payload: tc.payload})
		if err != nil || id != 7 || round != 42 {
			t.Fatalf("kind %d: parseReplyHeader = %d, %d, %v", tc.kind, id, round, err)
		}
	}
	if _, _, err := parseReplyHeader(&frame{kind: msgUpdateCRetired, payload: make([]byte, 24)}); err == nil {
		t.Fatal("retired wire-v1 compressed update must be rejected")
	}
	if _, _, err := parseReplyHeader(&frame{kind: msgModel, payload: make([]byte, 24)}); err == nil {
		t.Fatal("non-reply frame kind must be rejected")
	}
	if _, _, err := parseReplyHeader(&frame{kind: msgSkip, payload: []byte{1}}); err == nil {
		t.Fatal("short reply payload must be rejected")
	}
}

func TestClusterWithCompression(t *testing.T) {
	cfg := clusterConfig(t, 4, 8, nil)
	cfg.Compressor = compress.Uniform8{}
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The app-level bytes must reflect the 8-bit encoding (~dim bytes per
	// update instead of dim*8).
	last := res.Server.History[len(res.Server.History)-1]
	dim := len(res.Server.FinalParams)
	raw := int64(last.CumUploads) * int64(dim) * 8
	if last.CumUplinkBytes >= raw/4 {
		t.Fatalf("compressed app bytes %d should be well under raw %d", last.CumUplinkBytes, raw)
	}
	// And the quantised training must still learn.
	if acc := res.Server.FinalAccuracy(); acc < 0.4 {
		t.Fatalf("compressed cluster accuracy = %v, want >= 0.4", acc)
	}
	// Wire bytes shrink too (the real footprint win).
	plain, err := RunCluster(clusterConfig(t, 4, 8, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Server.UplinkWireBytes >= plain.Server.UplinkWireBytes/2 {
		t.Fatalf("compressed wire bytes %d should be far below plain %d",
			res.Server.UplinkWireBytes, plain.Server.UplinkWireBytes)
	}
}

func TestServerRejectsCodecMismatch(t *testing.T) {
	cfg := clusterConfig(t, 2, 3, nil)
	srv, err := NewServer(ServerConfig{
		Addr:         "127.0.0.1:0",
		Clients:      2,
		Model:        cfg.Model,
		TestData:     cfg.TestData,
		Rounds:       3,
		RoundTimeout: 5 * time.Second,
		Limits:       Limits{DialTimeout: 10 * time.Second},
		// Server pins quantize8; clients negotiate top-k below.
		Compressor: compress.Uniform8{},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run()
		done <- err
	}()
	clientErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, err := RunClient(ClientConfig{
				Addr:       srv.Addr(),
				ID:         i,
				Model:      cfg.Model,
				Data:       cfg.ClientData[i],
				Epochs:     1,
				Batch:      4,
				LR:         cfg.LR,
				Compressor: compress.TopK{K: 10}, // mismatch
				Seed:       cfg.Seed,
			})
			clientErrs <- err
		}(i)
	}
	if err := <-done; err == nil {
		t.Fatal("server should reject mismatched codec")
	}
	// Both clients lose their connection when the server rejects the codec;
	// neither may report a clean finish.
	for i := 0; i < 2; i++ {
		if err := <-clientErrs; err == nil {
			t.Fatal("client finished cleanly although the server rejected its codec")
		}
	}
}

// TestServerAdoptsClientCodec covers the other negotiation branch: a server
// with no pinned codec parses each client's hello spec and decodes whatever
// that client declared, so mixed raw/compressed fleets work.
func TestServerAdoptsClientCodec(t *testing.T) {
	cfg := clusterConfig(t, 2, 3, nil)
	srv, err := NewServer(ServerConfig{
		Addr:         "127.0.0.1:0",
		Clients:      2,
		Model:        cfg.Model,
		TestData:     cfg.TestData,
		Rounds:       3,
		RoundTimeout: 10 * time.Second,
		Limits:       Limits{DialTimeout: 10 * time.Second},
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
	codecs := []fl.UpdateCodec{nil, compress.NewChain(compress.TopK{K: 20}, compress.Uniform8{})}
	clientErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, err := RunClient(ClientConfig{
				Addr:       srv.Addr(),
				ID:         i,
				Model:      cfg.Model,
				Data:       cfg.ClientData[i],
				Epochs:     1,
				Batch:      4,
				LR:         cfg.LR,
				Compressor: codecs[i],
				Seed:       cfg.Seed,
			})
			clientErrs <- err
		}(i)
	}
	o := <-done
	if o.err != nil {
		t.Fatalf("mixed-fleet server failed: %v", o.err)
	}
	for i := 0; i < 2; i++ {
		if err := <-clientErrs; err != nil {
			t.Fatalf("mixed-fleet client failed: %v", err)
		}
	}
	// Only client 1's updates are compressed: 3 rounds x 1 client.
	if o.res.CodecUpdates != 3 {
		t.Fatalf("codec updates = %d, want 3", o.res.CodecUpdates)
	}
	if o.res.CodecRawBytes != 3*int64(len(o.res.FinalParams))*8 {
		t.Fatalf("codec raw bytes = %d, want %d", o.res.CodecRawBytes, 3*int64(len(o.res.FinalParams))*8)
	}
	if o.res.CodecEncodedBytes <= 0 || o.res.CodecEncodedBytes >= o.res.CodecRawBytes {
		t.Fatalf("codec encoded bytes = %d, want in (0, %d)", o.res.CodecEncodedBytes, o.res.CodecRawBytes)
	}
}

// TestClusterWithChainCodec runs the flagship wire-v2 stack — CMFL gate +
// top-k selection + 8-bit quantization + error feedback — and checks both
// that training still converges and that the codec telemetry is exact.
func TestClusterWithChainCodec(t *testing.T) {
	cfg := clusterConfig(t, 4, 10, core.NewFilter(core.Constant(0.4)))
	cfg.Compressor = compress.NewChain(compress.TopK{K: 200}, compress.Uniform8{})
	cfg.ErrorFeedback = true
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Server.FinalAccuracy(); acc < 0.4 {
		t.Fatalf("chain-codec cluster accuracy = %v, want >= 0.4", acc)
	}
	last := res.Server.History[len(res.Server.History)-1]
	// Every upload went through the codec; raw bytes are dim*8 per update.
	if res.Server.CodecUpdates != last.CumUploads {
		t.Fatalf("codec updates %d != uploads %d", res.Server.CodecUpdates, last.CumUploads)
	}
	dim := int64(len(res.Server.FinalParams))
	if res.Server.CodecRawBytes != int64(last.CumUploads)*dim*8 {
		t.Fatalf("codec raw bytes = %d, want %d", res.Server.CodecRawBytes, int64(last.CumUploads)*dim*8)
	}
	// App-level accounting counts exactly the encoded payload bytes.
	if last.CumUplinkBytes != res.Server.CodecEncodedBytes+16*int64(cumSkips(res.Server)) {
		t.Fatalf("app bytes %d != encoded %d + skip frames", last.CumUplinkBytes, res.Server.CodecEncodedBytes)
	}
	// The chain payload per update is 4 + 200*4 + 16 + 200 bytes.
	perUpdate := int64(4 + 200*4 + 16 + 200)
	if res.Server.CodecEncodedBytes != int64(last.CumUploads)*perUpdate {
		t.Fatalf("encoded bytes = %d, want %d per update x %d", res.Server.CodecEncodedBytes, perUpdate, last.CumUploads)
	}
}

func cumSkips(res *ServerResult) int {
	n := 0
	for _, s := range res.SkipCounts {
		n += s
	}
	return n
}

// TestErrorFeedbackImprovesAggression: with an extremely lossy codec, EF-SGD
// must at minimum keep the run healthy and produce different (residual-
// corrected) bytes than the no-feedback run.
func TestErrorFeedbackChangesUploads(t *testing.T) {
	base := clusterConfig(t, 3, 5, nil)
	base.Compressor = compress.TopK{K: 20}
	plain, err := RunCluster(base)
	if err != nil {
		t.Fatal(err)
	}
	withEF := clusterConfig(t, 3, 5, nil)
	withEF.Compressor = compress.TopK{K: 20}
	withEF.ErrorFeedback = true
	ef, err := RunCluster(withEF)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range plain.Server.FinalParams {
		if plain.Server.FinalParams[i] != ef.Server.FinalParams[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("error feedback produced bit-identical params to no feedback; residuals are not being applied")
	}
}
