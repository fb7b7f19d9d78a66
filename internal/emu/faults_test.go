package emu

import (
	"net"
	"reflect"
	"testing"
	"time"
)

func TestFaultPlanAddAtAndLen(t *testing.T) {
	p := NewFaultPlan().
		Add(0, 1, Fault{Kind: FaultDropUpdate}).
		Add(2, 3, Fault{Kind: FaultDelay, Delay: 50 * time.Millisecond}).
		Add(2, 3, Fault{Kind: FaultCrashRejoin, Delay: time.Millisecond}) // replaces

	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (same-cell Add replaces)", p.Len())
	}
	if f, ok := p.At(2, 3); !ok || f.Kind != FaultCrashRejoin {
		t.Fatalf("At(2,3) = %v, %v; want crash-rejoin", f, ok)
	}
	if _, ok := p.At(1, 1); ok {
		t.Fatal("At(1,1) should be empty")
	}
	if _, ok := p.At(-1, 1); ok {
		t.Fatal("negative client must never match")
	}
	// FaultNone entries are ignored rather than stored.
	p.Add(4, 4, Fault{})
	if p.Len() != 2 {
		t.Fatalf("Len after no-op Add = %d, want 2", p.Len())
	}
}

func TestFaultPlanNilSafe(t *testing.T) {
	var p *FaultPlan
	if p.Len() != 0 {
		t.Fatal("nil plan Len != 0")
	}
	if _, ok := p.At(0, 1); ok {
		t.Fatal("nil plan At matched")
	}
	if p.Events() != nil {
		t.Fatal("nil plan Events != nil")
	}
}

func TestRandomFaultPlanDeterministic(t *testing.T) {
	rates := FaultRates{Drop: 0.1, Delay: 0.1, Disconnect: 0.05, Crash: 0.05, Corrupt: 0.05, MeanDelay: 20 * time.Millisecond}
	a := RandomFaultPlan(7, 8, 20, rates)
	b := RandomFaultPlan(7, 8, 20, rates)
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatal("same seed produced different plans")
	}
	if a.Len() == 0 {
		t.Fatal("rates ~0.35 over 160 cells produced an empty plan — generator broken")
	}
	c := RandomFaultPlan(8, 8, 20, rates)
	if reflect.DeepEqual(a.Events(), c.Events()) {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestFaultPlanEventsSorted(t *testing.T) {
	p := NewFaultPlan().
		Add(3, 1, Fault{Kind: FaultDropUpdate}).
		Add(0, 5, Fault{Kind: FaultDropUpdate}).
		Add(0, 2, Fault{Kind: FaultDelay}).
		Add(3, 4, Fault{Kind: FaultCorruptFrame})
	ev := p.Events()
	want := []struct{ c, r int }{{0, 2}, {0, 5}, {3, 1}, {3, 4}}
	if len(ev) != len(want) {
		t.Fatalf("Events len = %d, want %d", len(ev), len(want))
	}
	for i, w := range want {
		if ev[i].Client != w.c || ev[i].Round != w.r {
			t.Fatalf("Events[%d] = (%d,%d), want (%d,%d)", i, ev[i].Client, ev[i].Round, w.c, w.r)
		}
	}
}

func TestFaultKindString(t *testing.T) {
	kinds := map[FaultKind]string{
		FaultNone:         "none",
		FaultDropUpdate:   "drop-update",
		FaultDelay:        "delay",
		FaultDisconnect:   "disconnect",
		FaultCrashRejoin:  "crash-rejoin",
		FaultCorruptFrame: "corrupt-frame",
		FaultKind(99):     "unknown",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Fatalf("FaultKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestInjectorFiresOncePerRound(t *testing.T) {
	plan := NewFaultPlan().Add(1, 2, Fault{Kind: FaultDropUpdate})
	in := newFaultInjector(plan, 1)
	if in == nil {
		t.Fatal("non-empty plan produced nil injector")
	}

	in.beginRound(1)
	if in.mode != modePass {
		t.Fatalf("round 1 mode = %v, want pass", in.mode)
	}
	in.beginRound(2)
	if in.mode != modeArmed {
		t.Fatalf("round 2 mode = %v, want armed", in.mode)
	}
	// Re-arming the same round (e.g. never reached a write) is harmless;
	// the next round clears it.
	in.beginRound(3)
	if in.mode != modePass {
		t.Fatalf("round 3 mode = %v, want pass", in.mode)
	}
}

func TestInjectorNilForEmptyPlan(t *testing.T) {
	if in := newFaultInjector(nil, 0); in != nil {
		t.Fatal("nil plan should yield nil injector")
	}
	if in := newFaultInjector(NewFaultPlan(), 0); in != nil {
		t.Fatal("empty plan should yield nil injector")
	}
	// Nil-receiver methods must all be safe.
	var in *faultInjector
	in.beginRound(1)
	if d := in.takeRejoinDelay(); d != 0 {
		t.Fatal("nil injector rejoin delay != 0")
	}
	var c net.Conn = &countingConn{}
	if in.wrap(c) != c {
		t.Fatal("nil injector wrap must be identity")
	}
}

// TestInjectorWriteSemantics drives the faultConn write path for each kind
// against an in-memory conn and checks the transport-visible outcome.
func TestInjectorWriteSemantics(t *testing.T) {
	t.Run("drop swallows whole round", func(t *testing.T) {
		in := newFaultInjector(NewFaultPlan().Add(0, 1, Fault{Kind: FaultDropUpdate}), 0)
		raw := &countingConn{}
		conn := in.wrap(raw)
		in.beginRound(1)
		if _, err := writeFrame(conn, msgSkip, encodeSkip(0, 1, 0.5, 0.25)); err != nil {
			t.Fatalf("dropped write must report success, got %v", err)
		}
		if len(raw.writes) != 0 {
			t.Fatalf("drop leaked %d writes to the socket", len(raw.writes))
		}
		in.beginRound(2)
		if _, err := writeFrame(conn, msgSkip, encodeSkip(0, 2, 0.5, 0.25)); err != nil {
			t.Fatal(err)
		}
		if len(raw.writes) != 2 { // header + payload
			t.Fatalf("round 2 writes = %d, want 2 (pass-through restored)", len(raw.writes))
		}
	})

	t.Run("corrupt poisons header, swallows payload, reports success", func(t *testing.T) {
		in := newFaultInjector(NewFaultPlan().Add(0, 1, Fault{Kind: FaultCorruptFrame}), 0)
		raw := &countingConn{}
		conn := in.wrap(raw)
		in.beginRound(1)
		if _, err := writeFrame(conn, msgSkip, encodeSkip(0, 1, 0.5, 0.25)); err != nil {
			t.Fatalf("corrupted write must report success, got %v", err)
		}
		if len(raw.writes) != 1 {
			t.Fatalf("corrupt wrote %d chunks, want 1 (poisoned header only)", len(raw.writes))
		}
		hdr := raw.writes[0]
		if len(hdr) < 4 || hdr[0] != 0xFF || hdr[1] != 0xFF || hdr[2] != 0xFF || hdr[3] != 0xFF {
			t.Fatalf("header not poisoned: % x", hdr)
		}
	})

	t.Run("crash closes before writing and stores downtime", func(t *testing.T) {
		in := newFaultInjector(NewFaultPlan().Add(0, 1, Fault{Kind: FaultCrashRejoin, Delay: 5 * time.Millisecond}), 0)
		raw := &countingConn{}
		conn := in.wrap(raw)
		in.beginRound(1)
		if _, err := writeFrame(conn, msgSkip, encodeSkip(0, 1, 0.5, 0.25)); err == nil {
			t.Fatal("crash write must error")
		}
		if !raw.closed {
			t.Fatal("crash must close the connection")
		}
		if len(raw.writes) != 0 {
			t.Fatal("crash must not write")
		}
		if d := in.takeRejoinDelay(); d != 5*time.Millisecond {
			t.Fatalf("rejoin delay = %v, want 5ms", d)
		}
		if d := in.takeRejoinDelay(); d != 0 {
			t.Fatal("rejoin delay must clear after take")
		}
	})

	t.Run("disconnect writes a partial header then errors", func(t *testing.T) {
		in := newFaultInjector(NewFaultPlan().Add(0, 1, Fault{Kind: FaultDisconnect}), 0)
		raw := &countingConn{}
		conn := in.wrap(raw)
		in.beginRound(1)
		if _, err := writeFrame(conn, msgSkip, encodeSkip(0, 1, 0.5, 0.25)); err == nil {
			t.Fatal("disconnect write must error")
		}
		if !raw.closed {
			t.Fatal("disconnect must close the connection")
		}
		if len(raw.writes) != 1 || len(raw.writes[0]) >= frameOverhead {
			t.Fatalf("disconnect should leak a truncated header, got %v", raw.writes)
		}
	})
}

// countingConn is a minimal in-memory net.Conn for injector write tests.
type countingConn struct {
	writes [][]byte
	closed bool
}

func (c *countingConn) Write(b []byte) (int, error) {
	cp := append([]byte(nil), b...)
	c.writes = append(c.writes, cp)
	return len(b), nil
}
func (c *countingConn) Read([]byte) (int, error)         { return 0, nil }
func (c *countingConn) Close() error                     { c.closed = true; return nil }
func (c *countingConn) LocalAddr() net.Addr              { return nil }
func (c *countingConn) RemoteAddr() net.Addr             { return nil }
func (c *countingConn) SetDeadline(time.Time) error      { return nil }
func (c *countingConn) SetReadDeadline(time.Time) error  { return nil }
func (c *countingConn) SetWriteDeadline(time.Time) error { return nil }
