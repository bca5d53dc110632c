package udpwire_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/core"
	"github.com/cercs/iqrudp/internal/packet"
	"github.com/cercs/iqrudp/internal/trace"
	"github.com/cercs/iqrudp/internal/udpwire"
)

// Typed-error taxonomy tests: every way a connection dies must surface as a
// sentinel that works through identity, errors.Is, and the net.Error
// interface — including through the OpError wrapping Dial applies.

func TestDialHandshakeTimeoutTyped(t *testing.T) {
	// A bound but mute socket: SYNs vanish, the handshake can't complete.
	hole, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close()

	start := time.Now()
	_, err = udpwire.Dial(hole.LocalAddr().String(), core.DefaultConfig(), 300*time.Millisecond)
	if err == nil {
		t.Fatal("dial into a black hole succeeded")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("dial timeout not honored")
	}
	if !errors.Is(err, udpwire.ErrHandshakeTimeout) {
		t.Fatalf("errors.Is(err, ErrHandshakeTimeout) false: %v", err)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("handshake timeout must be a net.Error with Timeout()=true: %v", err)
	}
	var op *udpwire.OpError
	if !errors.As(err, &op) || op.Op != "dial" {
		t.Fatalf("want *OpError with Op=dial, got %v", err)
	}
}

func TestDialRefusedTyped(t *testing.T) {
	// A responder that answers every SYN with RST, like a draining server.
	sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	go func() {
		buf := make([]byte, 4096)
		var p packet.Packet
		for {
			n, ra, err := sock.ReadFromUDP(buf)
			if err != nil {
				return
			}
			if packet.DecodeInto(&p, buf[:n], p.Payload) != nil {
				continue
			}
			rst := &packet.Packet{
				Type: packet.RST, Flags: packet.FlagAck, ConnID: p.ConnID, Seq: p.Ack, Ack: p.Seq + 1,
			}
			if b, err := packet.Encode(rst); err == nil {
				sock.WriteToUDP(b, ra) //iqlint:ignore errdrop -- test responder, best effort
			}
		}
	}()

	_, err = udpwire.Dial(sock.LocalAddr().String(), core.DefaultConfig(), 3*time.Second)
	if err == nil {
		t.Fatal("dial against an RST responder succeeded")
	}
	if !errors.Is(err, udpwire.ErrRefused) {
		t.Fatalf("errors.Is(err, ErrRefused) false: %v", err)
	}
	var ne net.Error
	if !errors.As(err, &ne) || ne.Timeout() {
		t.Fatalf("refusal must be a non-timeout net.Error: %v", err)
	}
}

func TestDeadPeerTyped(t *testing.T) {
	cliCfg := core.DefaultConfig()
	cliCfg.Keepalive = 100 * time.Millisecond
	cliCfg.DeadInterval = 400 * time.Millisecond
	_, cli, srv := pair(t, core.DefaultConfig(), cliCfg)

	// The server side vanishes without a word: no FIN, no RST.
	srv.Abort()

	done := make(chan error, 1)
	go func() {
		_, err := cli.Recv(0)
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not unblock on dead peer")
	}
	if !errors.Is(err, udpwire.ErrPeerDead) {
		t.Fatalf("Recv err = %v, want ErrPeerDead", err)
	}
	if err != udpwire.ErrPeerDead {
		t.Fatalf("identity comparison broken: %v", err)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("dead peer must be a net.Error with Timeout()=true: %v", err)
	}
	if got := cli.Err(); got != udpwire.ErrPeerDead {
		t.Fatalf("Err() = %v, want ErrPeerDead", got)
	}
	if got := cli.CloseReason(); got != trace.ReasonPeerDead {
		t.Fatalf("CloseReason() = %q, want %q", got, trace.ReasonPeerDead)
	}
}

func TestErrNilWhileOpen(t *testing.T) {
	_, cli, srv := pair(t, core.DefaultConfig(), core.DefaultConfig())
	if err := cli.Err(); err != nil {
		t.Fatalf("open connection reported %v", err)
	}
	srv.Close()
	cli.Close()
	if err := cli.Err(); !errors.Is(err, udpwire.ErrClosed) {
		t.Fatalf("after local close Err() = %v, want ErrClosed", err)
	}
}

// TestResumeCarriesMarkedBacklog: a dialed connection that dies with marked
// data queued resumes and re-sends it; the accepted successor delivers
// every payload.
func TestResumeCarriesMarkedBacklog(t *testing.T) {
	ln := listen(t, core.DefaultConfig())
	delivered := make(chan string, 256)
	go func() {
		for {
			c, err := ln.Accept(5 * time.Second)
			if err != nil {
				return
			}
			go func(c *udpwire.Conn) {
				for {
					msg, err := c.Recv(0)
					if err != nil {
						return
					}
					if msg.Marked {
						delivered <- string(msg.Data)
					}
				}
			}(c)
		}
	}()

	cli, err := udpwire.Dial(ln.Addr().String(), core.DefaultConfig(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 8; i++ {
		p := fmt.Sprintf("carry-%02d", i)
		if err := cli.Send([]byte(p), true); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	// Kill the connection before (some of) the backlog is acknowledged —
	// Abort is immediate, so queued/unacked marked messages strand.
	cli.Abort()

	nc, err := cli.Resume(5 * time.Second)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	defer nc.Close()
	if nc.ResumedFrom() != cli.ID() {
		t.Fatalf("ResumedFrom = %d, want %d", nc.ResumedFrom(), cli.ID())
	}

	got := map[string]bool{}
	deadline := time.After(10 * time.Second)
	for len(got) < len(want) {
		select {
		case p := <-delivered:
			got[p] = true
		case <-deadline:
			var missing []string
			for _, p := range want {
				if !got[p] {
					missing = append(missing, p)
				}
			}
			t.Fatalf("marked payloads lost across resume: %v", missing)
		}
	}
}

// TestCarryoverPayloadsIntact: the carried bytes are the original message
// bytes, including a multi-fragment message reassembled from its queue. The
// peer completes the handshake but never acks DATA, so nothing leaves the
// retransmission state before the abort — the test is deterministic.
func TestCarryoverPayloadsIntact(t *testing.T) {
	sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	go func() {
		buf := make([]byte, 65536)
		var p packet.Packet
		for {
			n, ra, err := sock.ReadFromUDP(buf)
			if err != nil {
				return
			}
			if packet.DecodeInto(&p, buf[:n], p.Payload) != nil || p.Type != packet.SYN {
				continue
			}
			synack := &packet.Packet{
				Type: packet.SYNACK, Flags: packet.FlagAck, ConnID: p.ConnID,
				Seq: 100, Ack: p.Seq + 1, Wnd: 512,
			}
			if b, err := packet.Encode(synack); err == nil {
				sock.WriteToUDP(b, ra) //iqlint:ignore errdrop -- test responder, best effort
			}
		}
	}()
	cli, err := udpwire.Dial(sock.LocalAddr().String(), core.DefaultConfig(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte{0xAB}, 5000) // > MSS: multi-fragment
	if err := cli.Send([]byte("small"), true); err != nil {
		t.Fatal(err)
	}
	if err := cli.Send(big, true); err != nil {
		t.Fatal(err)
	}
	cli.Abort()
	carry := udpwire.CarryoverMarked(cli)
	if len(carry) != 2 {
		t.Fatalf("carried %d messages, want 2", len(carry))
	}
	if string(carry[0]) != "small" {
		t.Fatalf("carry[0] = %q", carry[0])
	}
	if !bytes.Equal(carry[1], big) {
		t.Fatalf("multi-fragment carryover corrupted: %d bytes, want %d", len(carry[1]), len(big))
	}
}
