package tracedrv

import (
	"fmt"
	"math/rand/v2"
	"net"
	"time"

	"github.com/cercs/iqrudp/bench/workload"
	"github.com/cercs/iqrudp/internal/core"
	"github.com/cercs/iqrudp/internal/packet"
	"github.com/cercs/iqrudp/internal/uio"
	"github.com/cercs/iqrudp/internal/wheel"
)

// The driver: one goroutine owns a client and a server core.Machine joined
// by a pair of loopback UDP sockets, and is the core.Env of both. The server
// end mirrors a serve shard (unconnected socket, per-datagram destination,
// GRO when the kernel has it, batch 32), the client end mirrors udpwire.Dial
// (connected socket, TX ring 32, RX batch 16). Datagrams move in lock step:
// flush at most one batch, receive exactly that batch on the other socket,
// handle it, repeat until both transmit queues are empty. Loopback delivers
// a datagram before sendmmsg returns, so the receive never waits, and no
// more than one batch is ever in a socket buffer.

const (
	serverBatch = 32
	clientRing  = 32
	clientBatch = 16
	connID      = 0x1001
)

// Options selects what the driver replays.
type Options struct {
	Spec workload.Spec
	Seed uint64
	For  time.Duration
	Rec  *Recorder // nil runs the same code untraced
}

// Result is what one driver run did.
type Result struct {
	Sent      uint64         // messages handed to SendMsg
	Tally     workload.Tally // the receive check's verdict
	Busy      time.Duration  // run time minus time spent waiting for a due instant
	TxPackets [2]uint64      // datagrams per side
	TxFlushes [2]uint64      // TxBatcher.Send calls per side
	Fires     uint64         // timer callbacks run
	Arms      uint64
}

type fired struct {
	t   *dtimer
	gen uint64
}

type held struct {
	at time.Duration
	b  []byte
}

type driver struct {
	opt     Options
	rec     *Recorder
	epoch   time.Time
	wh      *wheel.Wheel
	fires   chan fired
	done    chan struct{}
	ends    [2]*endpoint
	check   *workload.Checker
	pattern *workload.Pattern
	sleep   *time.Timer
	idle    time.Duration // time spent waiting in step
	res     Result
}

// endpoint is one side: a machine, its socket and its core.Env.
type endpoint struct {
	d    *driver
	side Side
	m    *core.Machine
	sock *net.UDPConn
	peer *net.UDPAddr // nil: connected socket
	tx   *uio.TxBatcher
	rx   *uio.RxBatcher
	ring int

	bufs       [][]byte // encode slots, reused
	head, n    int      // bufs[head:n] await transmission
	msgs       []uio.Msg
	free       []*dtimer
	pkt        packet.Packet
	lane       *rand.Rand // seeded drop decisions for datagrams arriving here
	line       []held     // datagrams in flight on the emulated path, FIFO
	lineHead   int
	spareBytes [][]byte
}

func (e *endpoint) Now() time.Duration { return time.Since(e.d.epoch) }

// Emit encodes into the next slot; the pump transmits it.
func (e *endpoint) Emit(p *packet.Packet) {
	id := e.d.rec.Begin(PacketEncode, e.side, p.MsgID)
	var buf []byte
	if e.n < len(e.bufs) {
		buf = e.bufs[e.n][:0]
	}
	b, err := packet.AppendEncode(buf, p)
	if err == nil {
		if e.n < len(e.bufs) {
			e.bufs[e.n] = b
		} else {
			e.bufs = append(e.bufs, b)
		}
		e.n++
	}
	e.d.rec.End(id)
}

// Deliver is the application: the same receive check the sink runs.
func (e *endpoint) Deliver(msg core.Message) {
	id := e.d.rec.Begin(AppDeliver, e.side, msg.ID)
	e.d.check.Check(msg.Data, msg.Marked, msg.Partial)
	e.d.rec.End(id)
}

// dtimer adapts a wheel handle to core.Timer the way udpwire's adapter
// does: handles are recycled through a per-endpoint freelist, and a fire is
// honoured only if its generation is still current. The wheel goroutine only
// posts the fire; every field is touched by the loop goroutine alone.
type dtimer struct {
	e    *endpoint
	wt   *wheel.Timer
	fn   func()
	free bool
}

func (t *dtimer) Stop() bool {
	if t.free {
		return false
	}
	was := t.wt.Stop()
	t.fn = nil
	t.free = true
	t.e.free = append(t.e.free, t)
	return was
}

func (t *dtimer) post(gen uint64) {
	select {
	case t.e.d.fires <- fired{t, gen}:
	case <-t.e.d.done:
	}
}

func (e *endpoint) After(d time.Duration, fn func()) core.Timer {
	id := e.d.rec.Begin(WheelArm, e.side, 0)
	var t *dtimer
	if k := len(e.free); k > 0 {
		t = e.free[k-1]
		e.free = e.free[:k-1]
		t.free = false
	} else {
		t = &dtimer{e: e}
		t.wt = e.d.wh.NewTimer(t.post)
	}
	t.fn = fn
	t.wt.Arm(d)
	e.d.res.Arms++
	e.d.rec.End(id)
	return t
}

// onFire runs a posted timer callback if it is still the current arm.
func (d *driver) onFire(f fired) {
	t := f.t
	if t.free || f.gen != t.wt.Gen() {
		return
	}
	e, fn := t.e, t.fn
	t.fn = nil
	t.free = true
	e.free = append(e.free, t) // recycled first, so the callback's own re-arm can reuse it
	id := d.rec.Begin(CoreTimer, e.side, 0)
	fn()
	d.rec.End(id)
	d.res.Fires++
}

func (d *driver) drainFires() {
	for {
		select {
		case f := <-d.fires:
			d.onFire(f)
		default:
			return
		}
	}
}

// flush transmits at most one batch and returns how many datagrams left.
func (e *endpoint) flush() (int, error) {
	k := e.n - e.head
	if k > e.ring {
		k = e.ring
	}
	id := e.d.rec.Begin(UioTx, e.side, 0)
	e.msgs = e.msgs[:0]
	for _, b := range e.bufs[e.head : e.head+k] {
		e.msgs = append(e.msgs, uio.Msg{B: b, Addr: e.peer})
	}
	sent, err := e.tx.Send(e.msgs)
	e.d.rec.End(id)
	e.d.res.TxPackets[e.side] += uint64(sent)
	e.d.res.TxFlushes[e.side]++
	if sent < k && err == nil {
		err = fmt.Errorf("tracedrv: short send %d of %d", sent, k)
	}
	e.head += sent
	if e.head == e.n {
		e.head, e.n = 0, 0
	}
	return sent, err
}

// receive takes exactly want datagrams off the socket and lets each arrive.
func (e *endpoint) receive(want int) error {
	for got := 0; got < want; {
		id := e.d.rec.Begin(UioRx, e.side, 0)
		msgs, err := e.rx.Recv()
		e.d.rec.End(id)
		if err != nil {
			return fmt.Errorf("tracedrv: recv: %w", err)
		}
		for _, m := range msgs {
			e.arrive(m.B)
		}
		got += len(msgs)
		id = e.d.rec.Begin(UioRx, e.side, 0)
		e.rx.Release(msgs)
		e.d.rec.End(id)
	}
	return nil
}

// arrive applies the workload's path — seeded drop, then one-way delay —
// between the socket and the decoder, where chaoswire would sit.
func (e *endpoint) arrive(b []byte) {
	sp := e.d.opt.Spec
	if sp.Loss > 0 && e.lane.Float64() < sp.Loss {
		return
	}
	if sp.Latency <= 0 {
		e.handle(b)
		return
	}
	var cp []byte
	if k := len(e.spareBytes); k > 0 {
		cp = e.spareBytes[k-1][:0]
		e.spareBytes = e.spareBytes[:k-1]
	}
	e.line = append(e.line, held{at: e.Now() + sp.Latency, b: append(cp, b...)})
}

// releaseDue handles every held datagram whose delay has passed.
func (e *endpoint) releaseDue() {
	now := e.Now()
	for e.lineHead < len(e.line) && e.line[e.lineHead].at <= now {
		h := e.line[e.lineHead]
		e.line[e.lineHead] = held{}
		e.lineHead++
		e.handle(h.b)
		e.spareBytes = append(e.spareBytes, h.b)
	}
	if e.lineHead == len(e.line) {
		e.line, e.lineHead = e.line[:0], 0
	}
}

func (e *endpoint) handle(b []byte) {
	id := e.d.rec.Begin(PacketDecode, e.side, 0)
	err := packet.DecodeInto(&e.pkt, b, e.pkt.Payload)
	e.d.rec.End(id)
	if err != nil {
		return
	}
	id = e.d.rec.Begin(CoreHandle, e.side, e.pkt.MsgID)
	e.m.HandlePacket(&e.pkt)
	e.d.rec.End(id)
}

// pump moves datagrams in lock step until both transmit queues are empty.
func (d *driver) pump() error {
	for d.ends[Client].n > 0 || d.ends[Server].n > 0 {
		for s, e := range d.ends {
			if e.n == 0 {
				continue
			}
			sent, err := e.flush()
			if err != nil {
				return err
			}
			if err := d.ends[1-s].receive(sent); err != nil {
				return err
			}
		}
	}
	return nil
}

func (d *driver) newEndpoint(side Side, cfg core.Config, sock *net.UDPConn, peer *net.UDPAddr) (*endpoint, error) {
	e := &endpoint{d: d, side: side, sock: sock, peer: peer}
	ring, batch, bufSize := clientRing, clientBatch, 4096
	if side == Server {
		ring, batch = serverBatch, serverBatch
		if uio.ProbeOffload().GRO {
			bufSize = uio.GROBufSize
		}
	}
	e.ring = ring
	var err error
	if e.tx, err = uio.NewTxBatcher(sock, ring); err != nil {
		return nil, err
	}
	// The peer is fixed on both sockets, so neither parses source addresses.
	if e.rx, err = uio.NewConnectedRxBatcher(sock, uio.NewBufPool(bufSize), batch); err != nil {
		return nil, err
	}
	if side == Server && bufSize == uio.GROBufSize {
		e.rx.EnableGRO()
	}
	e.lane = rand.New(rand.NewPCG(d.opt.Seed, 0x75+uint64(side)))
	e.m = core.NewMachine(cfg, e)
	return e, nil
}

// Run replays opt.Spec's message schedule through the driver for opt.For,
// or until the recorder's slab is full.
func Run(opt Options) (Result, error) {
	sp := opt.Spec
	a, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return Result{}, err
	}
	defer a.Close()
	b, err := net.DialUDP("udp", nil, a.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return Result{}, err
	}
	defer b.Close()
	// A lost datagram would leave receive waiting; fail the run instead.
	deadline := time.Now().Add(opt.For + 10*time.Second)
	for _, s := range []*net.UDPConn{a, b} {
		if err := s.SetReadDeadline(deadline); err != nil {
			return Result{}, err
		}
	}

	pattern := workload.NewPattern(opt.Seed, sp.MsgBytes)
	d := &driver{
		opt:   opt,
		rec:   opt.Rec,
		epoch: time.Now(),
		wh:    wheel.New(0),
		// Sized so the wheel goroutine never waits on the loop in practice:
		// two machines keep a handful of timers armed between them.
		fires:   make(chan fired, 256),
		done:    make(chan struct{}),
		check:   workload.NewChecker(pattern, sp.Unmarked),
		pattern: pattern,
		sleep:   time.NewTimer(time.Hour),
	}
	defer d.sleep.Stop()
	defer d.wh.Close()
	defer close(d.done)

	ccfg := core.DefaultConfig()
	ccfg.ConnID = connID
	ccfg.FECGroup = sp.FECGroup
	scfg := core.DefaultConfig()
	scfg.LossTolerance = sp.Tolerance
	scfg.FECGroup = sp.FECGroup
	if d.ends[Client], err = d.newEndpoint(Client, ccfg, b, nil); err != nil {
		return Result{}, err
	}
	if d.ends[Server], err = d.newEndpoint(Server, scfg, a, b.LocalAddr().(*net.UDPAddr)); err != nil {
		return Result{}, err
	}
	cl := d.ends[Client]
	d.ends[Server].m.StartServer()
	cl.m.StartClient()
	for !cl.m.Established() {
		if err := d.step(0); err != nil {
			return Result{}, err
		}
		if time.Since(d.epoch) > 5*time.Second {
			return Result{}, fmt.Errorf("tracedrv: handshake did not complete")
		}
	}

	rate := sp.Rate * float64(sp.Conns) // one pair carries every connection's schedule
	start := time.Now()
	d.idle = 0
	var id uint32
	for time.Since(start) < opt.For && !d.rec.Full() {
		var nextDue time.Duration // driver-epoch instant of the next scheduled send, 0 = none
		if sp.Loop == workload.Open {
			for {
				due := workload.Due(start, rate, 0, 1, id)
				if time.Until(due) > 0 {
					nextDue = due.Sub(d.epoch)
					break
				}
				d.send(cl, id, due)
				id++
			}
		} else {
			for cl.m.QueuedPackets() <= workload.Backpressure {
				d.send(cl, id, time.Now())
				id++
			}
		}
		if err := d.step(nextDue); err != nil {
			return d.res, err
		}
	}
	d.res.Sent = uint64(id)
	d.res.Busy = time.Since(start) - d.idle
	d.res.Tally = d.check.Tally
	return d.res, nil
}

// send hands one generated message to the client machine.
func (d *driver) send(cl *endpoint, id uint32, at time.Time) {
	buf := make([]byte, d.opt.Spec.MsgBytes)
	marked := d.pattern.Fill(buf, at.UnixNano(), 0, id, d.opt.Spec.Unmarked)
	sid := d.rec.Begin(CoreSend, Client, id)
	// The machine refuses a send only once it is closing, which this
	// driver never asks of it.
	_ = cl.m.SendMsg(buf, marked, nil)
	d.rec.End(sid)
}

// step is one turn of the loop: run posted timer fires, let delayed
// datagrams arrive, pump; then, when the workload leaves the path idle,
// wait for the next scheduled instant (nextDue, or a delayed datagram's
// arrival) or a timer fire, whichever is first.
func (d *driver) step(nextDue time.Duration) error {
	d.drainFires()
	for _, e := range d.ends {
		e.releaseDue()
	}
	if err := d.pump(); err != nil {
		return err
	}
	wake := nextDue
	for _, e := range d.ends {
		if e.lineHead < len(e.line) {
			if at := e.line[e.lineHead].at; wake == 0 || at < wake {
				wake = at
			}
		}
	}
	if wake == 0 {
		return nil
	}
	wait := wake - time.Since(d.epoch)
	if wait <= 0 {
		return nil
	}
	t0 := time.Now()
	d.sleep.Reset(wait)
	select {
	case f := <-d.fires:
		if !d.sleep.Stop() {
			<-d.sleep.C
		}
		d.idle += time.Since(t0)
		d.onFire(f)
	case <-d.sleep.C:
		d.idle += time.Since(t0)
	}
	return nil
}
