package emu

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"cmfl/internal/compress"
	"cmfl/internal/emu/shard"
	"cmfl/internal/nn"
	"cmfl/internal/xrand"
)

// wireVals returns n finite values with both zeros, a subnormal and the
// extremes among ordinary ones.
func wireVals(n int) []float64 {
	special := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.MaxFloat64, math.MaxFloat64}
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i%17)*0.61 - 4
		if i%7 == 5 {
			v[i] = special[i%len(special)]
		}
	}
	return v
}

// wirePaths runs the float codec over vals with the tensor kernels and with
// the scalar code alone, and fails unless both write the same bytes and
// decode them to the same bits or the same error.
func wirePaths(t *testing.T, vals []float64) {
	t.Helper()
	defer func() { vectorWire = true }()
	var wire [2][]byte
	var got [2][]float64
	var errs [2]string
	for i, vector := range []bool{false, true} {
		vectorWire = vector
		wire[i] = putFloats([]byte{0xAB}, vals)
		var err error
		got[i], err = getFloats(nil, wire[i][1:], len(vals))
		errs[i] = fmt.Sprint(err)
	}
	if !bytes.Equal(wire[0], wire[1]) {
		t.Fatalf("n=%d: the kernel path writes other bytes than the scalar path", len(vals))
	}
	if errs[0] != errs[1] {
		t.Fatalf("n=%d: kernel path error %q, scalar path error %q", len(vals), errs[1], errs[0])
	}
	if errs[0] != "<nil>" {
		return
	}
	for j := range vals {
		if a, b := math.Float64bits(got[0][j]), math.Float64bits(got[1][j]); a != b || a != math.Float64bits(vals[j]) {
			t.Fatalf("n=%d: coordinate %d decodes to %#x (scalar) and %#x (kernel), want %#x", len(vals), j, a, b, math.Float64bits(vals[j]))
		}
	}
}

// TestWireFloatsKernelMatchesScalar holds the kernel path of the float
// codec to the scalar code, which is the codec as it was before the kernels,
// on every length up to two blocks and a bit, on 68 and on the wide model's
// 102,538 coordinates. A NaN, ±Inf or a NaN with a payload sits in turn at
// each lane of a block and in the tail, and both paths must name the same
// coordinate.
func TestWireFloatsKernelMatchesScalar(t *testing.T) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Float64frombits(0x7FF0000000C0FFEE)}
	lengths := []int{68, 102_538}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		vals := wireVals(n)
		wirePaths(t, vals)
		var at []int
		if blocks := n / 8; blocks > 0 {
			for lane := range 8 {
				at = append(at, max(blocks-2, 0)*8+lane)
			}
		}
		for i := n / 8 * 8; i < n; i++ {
			at = append(at, i)
		}
		for _, i := range at {
			for _, b := range bad {
				saved := vals[i]
				vals[i] = b
				wirePaths(t, vals)
				vals[i] = saved
			}
		}
	}
}

// FuzzWireFloats decodes arbitrary bytes as float words on both paths: they
// agree, word for word or on the error, and a clean decode re-encodes to
// the bytes it came from. `go test -fuzz '^FuzzWireFloats$'`.
func FuzzWireFloats(f *testing.F) {
	f.Add(putFloats(nil, wireVals(19)))
	nan := putFloats(nil, wireVals(16))
	binary.BigEndian.PutUint64(nan[8*11:], 0x7FF8000000000001)
	f.Add(nan)
	f.Add([]byte{0x7F, 0xF0, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		defer func() { vectorWire = true }()
		var got [2][]float64
		var errs [2]string
		for i, vector := range []bool{false, true} {
			vectorWire = vector
			var err error
			got[i], err = getFloats(nil, data, n)
			errs[i] = fmt.Sprint(err)
		}
		if errs[0] != errs[1] {
			t.Fatalf("kernel path error %q, scalar path error %q", errs[1], errs[0])
		}
		if errs[0] != "<nil>" {
			if !strings.Contains(errs[0], shard.ErrNonFinite.Error()) {
				t.Fatalf("error %q does not name a non-finite coordinate", errs[0])
			}
			return
		}
		for i, vector := range []bool{false, true} {
			vectorWire = vector
			if wire := putFloats(nil, got[i]); !bytes.Equal(wire, data[:8*n]) {
				t.Fatalf("vector=%v: decode then encode changed the bytes", vector)
			}
		}
	})
}

// BenchmarkWireFloats prices one raw update of the wide model through the
// float codec: the server's decode and the client's encode.
func BenchmarkWireFloats(b *testing.B) {
	vals := wireVals(102_538)
	wire := putFloats(nil, vals)
	dst := make([]float64, len(vals))
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(wire)))
		for range b.N {
			if err := decodeFloats(dst, wire, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(wire)))
		for range b.N {
			wire = putFloats(wire[:0], vals)
		}
	})
}

// TestReadModelStreamsAtChunkBoundaries streams models whose end falls a
// word before, on and a word after each of the client's first two chunk
// boundaries, through readers that return every short read they can. Each
// decodes to the broadcast bit for bit, and a non-finite word in the last
// chunk still rejects the model.
func TestReadModelStreamsAtChunkBoundaries(t *testing.T) {
	step := chunkSize / 8
	chunk := make([]byte, chunkSize)
	readers := map[string]func(io.Reader) io.Reader{
		"whole":    func(r io.Reader) io.Reader { return r },
		"half":     iotest.HalfReader,
		"one-byte": iotest.OneByteReader,
	}
	for _, dim := range []int{1, step - 1, step, step + 1, 2*step - 1, 2 * step, 2*step + 1} {
		params := wireVals(dim)
		payload := encodeModel(7, params)
		got := make([]float64, dim)
		for name, wrap := range readers {
			clear(got)
			round, err := readModel(wrap(bytes.NewReader(payload)), len(payload), got, chunk)
			if err != nil || round != 7 {
				t.Fatalf("dim %d, %s reader: round %d, %v", dim, name, round, err)
			}
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(params[j]) {
					t.Fatalf("dim %d, %s reader: coordinate %d = %v, want %v", dim, name, j, got[j], params[j])
				}
			}
		}

		params[dim-1] = math.Inf(-1)
		payload = encodeModel(8, params)
		_, err := readModel(iotest.HalfReader(bytes.NewReader(payload)), len(payload), got, chunk)
		var bad malformedFrame
		if !errors.As(err, &bad) || !errors.Is(err, shard.ErrNonFinite) || !strings.Contains(err.Error(), fmt.Sprintf("coordinate %d = -Inf:", dim-1)) {
			t.Fatalf("dim %d: -Inf in the last chunk: error %v", dim, err)
		}
	}

	payload := encodeModel(3, wireVals(5))
	var bad malformedFrame
	if _, err := readModel(bytes.NewReader(payload), len(payload), make([]float64, 6), chunk); !errors.As(err, &bad) {
		t.Fatalf("a model of another dimension: error %v, want a malformed frame", err)
	}
	if _, err := readModel(bytes.NewReader(payload[:len(payload)-3]), len(payload), make([]float64, 5), chunk); err == nil || errors.As(err, &bad) {
		t.Fatalf("a model cut short: error %v, want a transport error", err)
	}
}

// TestInjectorCountsFrameBytes splits a reply frame and the hello that
// follows it into writes at every pair of cut points. A dropped frame is
// exactly that frame, and a corrupted one puts exactly that frame's header
// on the socket, its length prefix poisoned, however the writes carry it;
// the hello always reaches the socket whole.
func TestInjectorCountsFrameBytes(t *testing.T) {
	var reply, hello bytes.Buffer
	if _, err := writeFrame(&reply, msgUpdate, encodeUpdate(0, 1, 0.5, 0.25, []float64{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	if _, err := writeFrame(&hello, msgHello, encodeHello(0, nil)); err != nil {
		t.Fatal(err)
	}
	stream := append(slices.Clone(reply.Bytes()), hello.Bytes()...)
	want := map[FaultKind][]byte{
		FaultDropUpdate:   hello.Bytes(),
		FaultCorruptFrame: append([]byte{0xFF, 0xFF, 0xFF, 0xFF, msgUpdate}, hello.Bytes()...),
	}
	for kind, want := range want {
		for a := 1; a < len(stream); a++ {
			for b := a; b < len(stream); b++ {
				in := newFaultInjector(NewFaultPlan().Add(0, 1, Fault{Kind: kind}), 0)
				raw := &countingConn{}
				conn := in.wrap(raw)
				in.beginRound(1)
				for _, piece := range [][]byte{stream[:a], stream[a:b], stream[b:]} {
					if n, err := conn.Write(piece); n != len(piece) || err != nil {
						t.Fatalf("%v, cuts %d/%d: Write = %d, %v", kind, a, b, n, err)
					}
				}
				if got := bytes.Join(raw.writes, nil); !bytes.Equal(got, want) {
					t.Fatalf("%v, cuts %d/%d: socket saw % x, want % x", kind, a, b, got, want)
				}
				if in.injected != 1 {
					t.Fatalf("%v, cuts %d/%d: %d faults fired", kind, a, b, in.injected)
				}
			}
		}
	}
}

// TestReaderHoldsOneFrame floods the server with back-to-back update frames
// from a client whose round never starts. The connection's reader holds the
// first and reads no further until its shard releases it, so the client
// meets TCP backpressure: it cannot write more than the socket buffers
// hold, the shard's queue holds one frame, and the server allocates one
// payload buffer, not one per frame.
func TestReaderHoldsOneFrame(t *testing.T) {
	model := func() *nn.Network { return nn.NewNetwork(nn.NewDense(1024, 127, xrand.Derive(1, "init", 0))) }
	srv, err := NewServer(ServerConfig{
		Addr:    "127.0.0.1:0",
		Clients: 2, // client 0 never comes, so no round starts
		Model:   model,
		Rounds:  1,
		Limits:  Limits{DialTimeout: 20 * time.Second, FaultTolerant: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan error, 1)
	go func() {
		_, err := srv.Run()
		ran <- err
	}()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := writeFrame(conn, msgHello, encodeHello(1, nil)); err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	if _, err := writeFrame(&frame, msgUpdate, encodeUpdate(1, 1, 0, 0, make([]float64, model().NumParams()))); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const flood = 256 << 20
	written := 0
	if err := conn.SetWriteDeadline(time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	for written < flood {
		n, err := conn.Write(frame.Bytes())
		written += n
		if err != nil {
			break
		}
	}
	runtime.ReadMemStats(&after)
	if written >= flood {
		t.Fatalf("the client wrote %d MiB with no round running: no backpressure", written>>20)
	}
	if q := len(srv.shards[0].events); q != 1 {
		t.Fatalf("the shard queue holds %d events, want the one frame its reader read", q)
	}
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d MiB written, %d KiB allocated", written>>20, grew>>10)
	if grew > 4<<20 {
		t.Fatalf("the server allocated %d KiB while %d frames of %d KiB arrived", grew>>10, written/frame.Len(), frame.Len()>>10)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-ran; err == nil {
		t.Fatal("Run succeeded without client 0")
	}
}

// TestLyingLengthPrefixCostsNoMemory has every raw client of a
// fault-tolerant cluster answer its first broadcast with nothing but the
// length prefix of a 64 MiB frame. A raw connection's frames are at most an
// update long, so each prefix is refused before a payload byte is read or
// allocated: each lying connection is dropped as one fault in round 1, the
// round completes by quorum with the honest codec client, and the run
// allocates a few megabytes in all.
func TestLyingLengthPrefixCostsNoMemory(t *testing.T) {
	cfg := clusterConfig(t, 4, 2, nil)
	srv, err := NewServer(ServerConfig{
		Addr:         "127.0.0.1:0",
		Clients:      4,
		Model:        cfg.Model,
		TestData:     cfg.TestData,
		Rounds:       2,
		RoundTimeout: 10 * time.Second,
		Limits:       Limits{DialTimeout: 10 * time.Second, RoundDeadline: 300 * time.Millisecond, FaultTolerant: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	clientErrs := make(chan error, 4)
	go func() {
		_, err := RunClient(ClientConfig{
			Addr: srv.Addr(), ID: 0, Model: cfg.Model, Data: cfg.ClientData[0],
			Epochs: cfg.Epochs, Batch: cfg.Batch, LR: cfg.LR, Seed: cfg.Seed,
			Compressor: compress.Identity{},
		})
		clientErrs <- err
	}()
	for id := 1; id < 4; id++ {
		go func(id int) { clientErrs <- lyingClient(srv.Addr(), id) }(id)
	}
	res, err := srv.Run()
	for range 4 {
		if cerr := <-clientErrs; cerr != nil {
			t.Errorf("client: %v", cerr)
		}
	}
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("the run allocated %d KiB", grew>>10)
	if grew > 8<<20 {
		t.Fatalf("the run allocated %d MiB", grew>>20)
	}
	if len(res.DroppedClients) != 3 || res.DroppedClients[1] != 1 || res.DroppedClients[2] != 1 || res.DroppedClients[3] != 1 {
		t.Fatalf("dropped clients = %v, want 1, 2 and 3 in round 1", res.DroppedClients)
	}
	if len(res.History) != 2 || res.History[0].Faults != 3 || res.History[0].Uploaded != 1 {
		t.Fatalf("history = %+v, want two rounds, the first with 3 faults and client 0's upload", res.History)
	}
}

// lyingClient greets as a raw client, answers the first broadcast with the
// length prefix of a maximal frame and nothing after it, then waits for the
// server to hang up.
func lyingClient(addr string, id int) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if _, err := writeFrame(conn, msgHello, encodeHello(id, nil)); err != nil {
		return err
	}
	if _, err := readFrame(conn); err != nil {
		return err
	}
	var hdr [frameOverhead]byte
	binary.BigEndian.PutUint32(hdr[:4], maxFrame)
	hdr[4] = msgUpdate
	if _, err := conn.Write(hdr[:]); err != nil {
		return err
	}
	for {
		if _, err := readFrame(conn); err != nil {
			return nil
		}
	}
}
