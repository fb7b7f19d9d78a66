package emu

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"cmfl/internal/compress"
	"cmfl/internal/emu/shard"
)

// scriptedClient speaks the wire protocol by hand as client id: a finite
// update in round 1, then in round 2 either an update with plant at its
// middle coordinate (a NaN makes the frame hostile) or, when plant is zero,
// a skip, then skips until the server is done with it. Every reply reports
// diag as its relevance and its loss. codec nil sends raw msgUpdate frames;
// otherwise the codec is negotiated in the hello and updates travel as
// msgUpdate2.
func scriptedClient(addr string, id int, codec compress.Codec, plant, diag float64) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	var spec []byte
	if codec != nil {
		if spec, err = compress.EncodeSpec(codec); err != nil {
			return err
		}
	}
	if _, err := writeFrame(conn, msgHello, encodeHello(id, spec)); err != nil {
		return err
	}
	for {
		f, err := readFrame(conn)
		if err != nil {
			return nil // the server hung up on us: expected once hostile
		}
		if f.kind != msgModel {
			return nil
		}
		round, params, err := decodeModel(nil, f.payload)
		if err != nil {
			return err
		}
		if round > 2 || (round == 2 && plant == 0) {
			if _, err := writeFrame(conn, msgSkip, encodeSkip(id, round, diag, diag)); err != nil {
				return err
			}
			continue
		}
		delta := make([]float64, len(params))
		for j := range delta {
			delta[j] = 0.01 * float64(j%7-3)
		}
		if round == 2 {
			delta[len(delta)/2] = plant
		}
		kind, payload := msgUpdate, encodeUpdate(id, round, diag, diag, delta)
		if codec != nil {
			enc, err := compress.Encode(codec, delta)
			if err != nil {
				return err
			}
			kind, payload = msgUpdate2, encodeUpdate2(id, round, diag, diag, len(delta), enc)
		}
		if _, err := writeFrame(conn, kind, payload); err != nil {
			return err
		}
	}
}

// runWithScripted runs a 3-client server for 4 rounds: two honest clients
// and scriptedClient as client 2.
func runWithScripted(t *testing.T, codec compress.Codec, plant, diag float64, faultTolerant bool) (*ServerResult, error) {
	t.Helper()
	cfg := clusterConfig(t, 3, 4, nil)
	srv, err := NewServer(ServerConfig{
		Addr:         "127.0.0.1:0",
		Clients:      3,
		Model:        cfg.Model,
		TestData:     cfg.TestData,
		Rounds:       4,
		RoundTimeout: 10 * time.Second,
		Limits:       Limits{DialTimeout: 10 * time.Second, FaultTolerant: faultTolerant},
	})
	if err != nil {
		t.Fatal(err)
	}
	clientErrs := make(chan error, 3)
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, err := RunClient(ClientConfig{
				Addr: srv.Addr(), ID: i, Model: cfg.Model, Data: cfg.ClientData[i],
				Epochs: cfg.Epochs, Batch: cfg.Batch, LR: cfg.LR, Seed: cfg.Seed,
			})
			clientErrs <- err
		}(i)
	}
	go func() { clientErrs <- scriptedClient(srv.Addr(), 2, codec, plant, diag) }()
	res, runErr := srv.Run()
	for i := 0; i < 3; i++ {
		if err := <-clientErrs; err != nil && runErr == nil {
			t.Errorf("client failed under a healthy server: %v", err)
		}
	}
	return res, runErr
}

// TestNonFiniteUpdateRejected sends the server a NaN through each route an
// update can take — raw frame, dense codec, sparse codec. In fault-tolerant
// mode the frame is dropped whole and the sender's connection with it: the
// final model is finite and bit-identical to a run in which that client
// withheld the update instead. In strict mode the run aborts naming the
// cause.
func TestNonFiniteUpdateRejected(t *testing.T) {
	routes := []struct {
		name  string
		codec compress.Codec
	}{
		{"raw", nil},
		{"identity", compress.Identity{}},
		{"top-k", compress.TopK{K: 50}},
		{"top-k+identity", compress.NewChain(compress.TopK{K: 50}, compress.Identity{})},
	}
	for _, rt := range routes {
		t.Run(rt.name, func(t *testing.T) {
			want, err := runWithScripted(t, rt.codec, 0, 0, true)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			got, err := runWithScripted(t, rt.codec, math.NaN(), 0, true)
			if err != nil {
				t.Fatalf("fault-tolerant run: %v", err)
			}
			if got.DroppedClients[2] != 2 {
				t.Fatalf("dropped clients = %v, want client 2 in round 2", got.DroppedClients)
			}
			for j, v := range got.FinalParams {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("FinalParams[%d] = %v", j, v)
				}
				if math.Float64bits(v) != math.Float64bits(want.FinalParams[j]) {
					t.Fatalf("FinalParams[%d] = %v, want %v as without the rejected update", j, v, want.FinalParams[j])
				}
			}
			if _, err := runWithScripted(t, rt.codec, math.NaN(), 0, false); !errors.Is(err, shard.ErrNonFinite) {
				t.Fatalf("strict run: error %v, want shard.ErrNonFinite", err)
			}
		})
	}
}

// TestNonFiniteDiagnosticsAreKept: a reply header's relevance and loss are
// the client's own report, which the server averages and never checks. A NaN
// or an infinity there, in an update or a skip, is taken without error in
// strict mode, leaves the model as a finite report does, and is what the
// round's mean loss reads, as the IEEE sum of the reports would be.
func TestNonFiniteDiagnosticsAreKept(t *testing.T) {
	want, err := runWithScripted(t, nil, 0, 0, false)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	for _, diag := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		got, err := runWithScripted(t, nil, 0, diag, false)
		if err != nil {
			t.Fatalf("%v reported: %v", diag, err)
		}
		if !slices.Equal(got.FinalParams, want.FinalParams) {
			t.Fatalf("%v reported: the model moved", diag)
		}
		for _, h := range got.History {
			if loss := h.TrainLoss; math.IsNaN(loss) != math.IsNaN(diag) || (!math.IsNaN(diag) && loss != diag) {
				t.Fatalf("%v reported: round %d mean loss %v", diag, h.Round, loss)
			}
			if rel := h.MeanRelevance; !math.IsNaN(diag) && rel != diag {
				t.Fatalf("%v reported: round %d mean relevance %v", diag, h.Round, rel)
			}
		}
	}
}

// TestOverflowingSumFailsTheRound: two clients each send a finite update, so
// no frame is at fault, but one coordinate of their sum overflows. Dividing
// that by the upload count and adding it to the model would leave a
// parameter non-finite for every later round; the server refuses the round
// instead, whether or not it tolerates faulty clients.
func TestOverflowingSumFailsTheRound(t *testing.T) {
	for _, faultTolerant := range []bool{false, true} {
		cfg := clusterConfig(t, 2, 4, nil)
		srv, err := NewServer(ServerConfig{
			Addr:         "127.0.0.1:0",
			Clients:      2,
			Model:        cfg.Model,
			TestData:     cfg.TestData,
			Rounds:       4,
			RoundTimeout: 10 * time.Second,
			Limits:       Limits{DialTimeout: 10 * time.Second, FaultTolerant: faultTolerant},
		})
		if err != nil {
			t.Fatal(err)
		}
		clientErrs := make(chan error, 2)
		for id := 0; id < 2; id++ {
			go func(id int) { clientErrs <- scriptedClient(srv.Addr(), id, nil, 1.5e308, 0) }(id)
		}
		res, err := srv.Run()
		if !errors.Is(err, shard.ErrNonFinite) || !strings.Contains(err.Error(), "round 2") {
			t.Errorf("fault-tolerant %v: Run = %v, %v; want round 2 refused with shard.ErrNonFinite", faultTolerant, res, err)
		}
		for id := 0; id < 2; id++ {
			<-clientErrs // each ends when the server hangs up
		}
	}
}

// TestFloatCodecWordByWord holds the four-words-a-step float codec to the
// word-by-word definition of the format at every length around a group
// boundary, and to naming the first non-finite coordinate wherever in a
// group it sits.
func TestFloatCodecWordByWord(t *testing.T) {
	for n := 0; n <= 13; n++ {
		vals := make([]float64, n)
		want := []byte{0xAB} // putFloats appends
		for i := range vals {
			vals[i] = float64(i) - 2.5
			want = binary.BigEndian.AppendUint64(want, math.Float64bits(vals[i]))
		}
		wire := putFloats([]byte{0xAB}, vals)
		if !bytes.Equal(wire, want) {
			t.Fatalf("n=%d: putFloats = %x, want %x", n, wire, want)
		}
		got, err := getFloats(nil, wire[1:], n)
		if err != nil || !slices.Equal(got, vals) {
			t.Fatalf("n=%d: getFloats = %v, %v", n, got, err)
		}
		for pos := 0; pos < n; pos++ {
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				damaged := slices.Clone(vals)
				damaged[pos], damaged[n-1] = bad, bad
				_, err := getFloats(nil, putFloats(nil, damaged), n)
				if !errors.Is(err, shard.ErrNonFinite) || !strings.Contains(err.Error(), fmt.Sprintf("coordinate %d = %v:", pos, bad)) {
					t.Fatalf("n=%d, %v at %d: error %v", n, bad, pos, err)
				}
			}
		}
	}
}
