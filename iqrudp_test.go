package iqrudp_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	iqrudp "github.com/cercs/iqrudp"
	"github.com/cercs/iqrudp/echo"
	"github.com/cercs/iqrudp/internal/chaoswire"
	"github.com/cercs/iqrudp/simnet"
)

// The public-API tests exercise the library the way a downstream user would:
// real sockets on loopback, the simulator facade, and the echo middleware.

func TestPublicDialListen(t *testing.T) {
	ln, err := iqrudp.Listen("127.0.0.1:0", iqrudp.ServerConfig(0.2))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	srvc := make(chan *iqrudp.Conn, 1)
	go func() {
		c, err := ln.Accept(5 * time.Second)
		if err == nil {
			srvc <- c
		}
	}()
	cli, err := iqrudp.Dial(ln.Addr().String(), iqrudp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if err := cli.Send([]byte("public api"), true); err != nil {
		t.Fatal(err)
	}
	srv := <-srvc
	msg, err := srv.Recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(msg.Data) != "public api" || !msg.Marked {
		t.Fatalf("msg = %+v", msg)
	}
	if cli.Metrics().SentPackets == 0 {
		t.Fatal("metrics empty")
	}
}

// TestPublicListenMigrates: a client whose source port changes mid-stream
// (a NAT rebind, played by a fault-free chaoswire proxy swapping its
// upstream socket) keeps its connection through iqrudp.Listen, and every
// marked message is delivered in order.
func TestPublicListenMigrates(t *testing.T) {
	ln, err := iqrudp.Listen("127.0.0.1:0", iqrudp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	nat, err := chaoswire.New(ln.Addr().String(), chaoswire.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer nat.Close()

	got := make(chan string, 64)
	go func() {
		c, err := ln.Accept(5 * time.Second)
		if err != nil {
			return
		}
		for {
			msg, err := c.Recv(0)
			if err != nil {
				return
			}
			got <- string(msg.Data)
		}
	}()
	cli, err := iqrudp.DialTimeout(nat.Addr(), iqrudp.DefaultConfig(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const half = 20
	next := 0
	expect := func(upTo int) {
		t.Helper()
		deadline := time.After(5 * time.Second)
		for ; next < upTo; next++ {
			select {
			case m := <-got:
				if want := fmt.Sprintf("m%02d", next); m != want {
					t.Fatalf("delivered %q, want %q", m, want)
				}
			case <-deadline:
				t.Fatalf("delivered %d of %d marked messages (rebinds %d, migrations %d)",
					next, upTo, nat.Stats().Rebinds, ln.Stats().Migrations)
			}
		}
	}
	for i := 0; i < 2*half; i++ {
		if i == half {
			expect(half)
			if err := nat.Rebind(); err != nil {
				t.Fatal(err)
			}
		}
		if err := cli.Send([]byte(fmt.Sprintf("m%02d", i)), true); err != nil {
			t.Fatal(err)
		}
	}
	expect(2 * half)
	if ln.Stats().Migrations == 0 {
		t.Fatal("the engine recorded no migration")
	}
}

func TestPublicAttrsAndReports(t *testing.T) {
	attrs := iqrudp.NewAttrList(
		iqrudp.Attr{Name: iqrudp.AdaptPktSizeAttr, Value: iqrudp.Float(0.25)},
		iqrudp.Attr{Name: iqrudp.AdaptCondAttr, Value: iqrudp.Float(0.1)},
	)
	if attrs.Len() != 2 {
		t.Fatal("attr list broken")
	}
	rep := iqrudp.NoAdaptation()
	if rep.Kind != iqrudp.AdaptNone || rep.WhenFrames != -1 {
		t.Fatalf("NoAdaptation = %+v", rep)
	}
}

func TestPublicSimnetRoundTrip(t *testing.T) {
	s := simnet.NewScheduler(1)
	d := simnet.NewDumbbell(s, simnet.DefaultDumbbell())
	snd, rcv := simnet.Pair(d, iqrudp.DefaultConfig(), iqrudp.ServerConfig(0.3))
	rcv.Record = true
	if !simnet.WaitEstablished(s, snd, rcv, 5*time.Second) {
		t.Fatal("handshake failed")
	}
	payload := bytes.Repeat([]byte{9}, 5000)
	if err := snd.Machine.Send(payload, true); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(s.Now() + 5*time.Second)
	if len(rcv.Delivered) != 1 || !bytes.Equal(rcv.Delivered[0].Data, payload) {
		t.Fatalf("delivered = %d", len(rcv.Delivered))
	}
}

func TestPublicSimnetCrossTraffic(t *testing.T) {
	s := simnet.NewScheduler(2)
	d := simnet.NewDumbbell(s, simnet.DefaultDumbbell())
	cbr := simnet.NewCBR(d, 8e6, 1000)
	cbr.Start()
	s.RunUntil(2 * time.Second)
	cbr.Stop()
	if cbr.Sink.Bytes == 0 {
		t.Fatal("CBR moved no data")
	}
	tr := simnet.MembershipTrace(simnet.DefaultTraceConfig())
	if tr.Mean() <= 0 {
		t.Fatal("trace degenerate")
	}
}

func TestPublicEchoOverSimnet(t *testing.T) {
	s := simnet.NewScheduler(3)
	d := simnet.NewDumbbell(s, simnet.DefaultDumbbell())
	snd, rcv := simnet.Pair(d, iqrudp.DefaultConfig(), iqrudp.DefaultConfig())
	mux := echo.NewMux(snd.Machine)
	sink := echo.NewMux(nil)
	rcv.OnMessage = sink.HandleMessage
	simnet.WaitEstablished(s, snd, rcv, 5*time.Second)

	var got []echo.Event
	sink.Subscribe(3, func(ev echo.Event) { got = append(got, ev) })
	src := mux.NewSource(3)
	grid := echo.Float64sToBytes([]float64{1, 2, 3, 4})
	if err := src.Submit(grid, true, nil); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(s.Now() + 2*time.Second)
	if len(got) != 1 {
		t.Fatalf("events = %d", len(got))
	}
	xs := echo.BytesToFloat64s(got[0].Data)
	if len(xs) != 4 || xs[2] != 3 {
		t.Fatalf("grid = %v", xs)
	}
}

func TestPublicEchoOverRealConn(t *testing.T) {
	ln, err := iqrudp.Listen("127.0.0.1:0", iqrudp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srvc := make(chan *iqrudp.Conn, 1)
	go func() {
		c, err := ln.Accept(5 * time.Second)
		if err == nil {
			srvc <- c
		}
	}()
	cli, err := iqrudp.Dial(ln.Addr().String(), iqrudp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	mux := echo.NewMux(cli)
	src := mux.NewSource(9)
	if err := src.Submit([]byte("event payload"), true, nil); err != nil {
		t.Fatal(err)
	}
	srv := <-srvc
	msg, err := srv.Recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := echo.DecodeEvent(msg)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Channel != 9 || string(ev.Data) != "event payload" {
		t.Fatalf("event = %+v", ev)
	}
}
