package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"github.com/cercs/iqrudp/bench/gen"
	"github.com/cercs/iqrudp/bench/sink"
	"github.com/cercs/iqrudp/bench/workload"
)

// warmup is the unmeasured time traffic flows before a window opens, so
// that buffer pools, send-packet freelists and the congestion window are in
// steady state. It is part of setup_s.
const warmup = 2 * time.Second

// runOpts is one out-of-process run: a sink child, this process as the
// generator, one window.
type runOpts struct {
	spec      workload.Spec
	seed      uint64
	seconds   int
	setups    int  // set-ups performed (and timed); the last one is measured
	noOffload bool // sink: serve.Options.NoOffload
	noFlight  bool // sink: serve.Options.FlightEvents = -1
}

// runResult is everything one run measured.
type runResult struct {
	spec    workload.Spec
	seed    uint64
	seconds int
	setupS  []float64 // one per set-up
	sink    sink.Report
	gen     gen.Window
	fin     gen.Final
}

// sinkProc is the sink child and its protocol pipes.
type sinkProc struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader
	addr string
}

// startSink re-executes this binary in the sink role, on its own CPUs when
// the host allows, and waits for it to listen.
func startSink(ctx context.Context, o runOpts, h *host) (*sinkProc, error) {
	args := []string{
		"-role=sink", "-workload", o.spec.Name,
		"-seed", strconv.FormatUint(o.seed, 10), "-seconds", strconv.Itoa(o.seconds),
	}
	if o.noOffload {
		args = append(args, "-sink-nooffload")
	}
	if o.noFlight {
		args = append(args, "-sink-noflight")
	}
	name := h.exe
	if h.Pinned {
		args = append([]string{"-c", cpuList(h.SinkCPUs), h.exe}, args...)
		name = "taskset"
	}
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(h.SinkProcs))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sink: %w", err)
	}
	p := &sinkProc{cmd: cmd, in: in, out: bufio.NewReaderSize(out, 1<<16)}
	l, err := p.read()
	if err != nil || l.Ready == "" {
		p.kill()
		return nil, fmt.Errorf("sink did not come up: %v", err)
	}
	p.addr = l.Ready
	return p, nil
}

func cpuList(cpus []int) string {
	s := make([]string, len(cpus))
	for i, c := range cpus {
		s[i] = strconv.Itoa(c)
	}
	return strings.Join(s, ",")
}

// read takes the sink's next protocol line.
func (p *sinkProc) read() (sink.Line, error) {
	var l sink.Line
	b, err := p.out.ReadBytes('\n')
	if err != nil {
		return l, fmt.Errorf("sink closed its output: %w", err)
	}
	if err := json.Unmarshal(b, &l); err != nil {
		return l, fmt.Errorf("sink said %q: %w", b, err)
	}
	return l, nil
}

// ask sends one command and returns the sink's answer.
func (p *sinkProc) ask(cmd string) (sink.Line, error) {
	if _, err := io.WriteString(p.in, cmd+"\n"); err != nil {
		return sink.Line{}, fmt.Errorf("sink %s: %w", cmd, err)
	}
	return p.read()
}

// quit collects the sink's report and waits for the process to end.
func (p *sinkProc) quit() (sink.Report, error) {
	l, err := p.ask("quit")
	p.in.Close()
	werr := p.cmd.Wait()
	if err != nil {
		return sink.Report{}, err
	}
	if werr != nil {
		return sink.Report{}, fmt.Errorf("sink exited: %w", werr)
	}
	if l.Report == nil {
		return sink.Report{}, fmt.Errorf("sink quit without a report")
	}
	return *l.Report, nil
}

// kill ends a sink that cannot be asked to quit, and waits for it.
func (p *sinkProc) kill() {
	p.in.Close()
	// The process may already have exited; either way Wait reaps it.
	_ = p.cmd.Process.Kill()
	_ = p.cmd.Wait()
}

// setUp brings a sink and a generator to the point where a window could
// open: sink listening, connections dialed, traffic warmed up.
func setUp(ctx context.Context, o runOpts, h *host) (*sinkProc, *gen.Gen, time.Duration, error) {
	t0 := time.Now()
	sp, err := startSink(ctx, o, h)
	if err != nil {
		return nil, nil, 0, err
	}
	g, err := gen.Start(o.spec, o.seed, sp.addr, o.seconds)
	if err != nil {
		sp.kill()
		return nil, nil, 0, err
	}
	time.Sleep(warmup)
	return sp, g, time.Since(t0), nil
}

// run performs o.setups set-ups, tearing all but the last down again, then
// measures one window on the last. When ctx ends the sink child is killed,
// which fails whatever step was waiting on it.
func run(ctx context.Context, o runOpts, h *host) (*runResult, error) {
	res := &runResult{spec: o.spec, seed: o.seed, seconds: o.seconds}
	var sp *sinkProc
	var g *gen.Gen
	for i := 0; i < o.setups; i++ {
		var took time.Duration
		var err error
		if sp, g, took, err = setUp(ctx, o, h); err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, took.Seconds())
		if i < o.setups-1 {
			g.Stop()
			if _, err := sp.quit(); err != nil {
				return nil, err
			}
		}
	}

	if _, err := sp.ask("begin"); err != nil {
		g.Stop()
		sp.kill()
		return nil, err
	}
	g.Begin()
	time.Sleep(time.Duration(o.seconds) * time.Second)
	res.gen = g.End()
	_, err := sp.ask("end")
	res.fin = g.Stop()
	if err != nil {
		sp.kill()
		return nil, err
	}
	if res.sink, err = sp.quit(); err != nil {
		return nil, err
	}
	return res, nil
}

// verdict is the run's correctness account.
type verdict struct {
	attempted, failed uint64
	notes             []string // why the run is invalid, beyond failed operations
}

func (v verdict) correct() bool { return v.failed == 0 && len(v.notes) == 0 }

// judge compares what the generator sent with what the sink checked.
func judge(r *runResult) verdict {
	sp := r.spec
	v := verdict{attempted: r.fin.Attempted}
	total := r.sink.Total
	v.failed = total.Violations() + r.fin.SendErrs + r.fin.DialFails + r.sink.BadCycles
	skipped := total.Skipped

	// Long-lived connections: ids the stream ended without.
	if sp.Loop != workload.Churn {
		pattern := workload.NewPattern(r.seed, sp.MsgBytes)
		next := make([]uint32, sp.Conns)
		for _, c := range r.sink.Conns {
			if int(c.Conn) < len(next) {
				next[c.Conn] = c.Next
			}
		}
		for conn, sent := range r.fin.Sent {
			for id := next[conn]; id < sent; id++ {
				if pattern.Marked(uint8(conn), id, sp.Unmarked) {
					v.failed++
				} else {
					skipped++
				}
			}
		}
	}

	if sent := total.Delivered() + skipped; sent > 0 {
		if lost := float64(skipped) / float64(sent); lost > sp.Tolerance {
			v.failed++
			v.notes = append(v.notes, fmt.Sprintf("unmarked loss %.4f exceeds the negotiated tolerance %.2f", lost, sp.Tolerance))
		}
	}
	if r.sink.Window.Delivered() == 0 {
		v.notes = append(v.notes, "nothing was delivered in the window")
	}
	if sp.Loop == workload.Open {
		offered := sp.Rate * float64(sp.Conns)
		if r.fin.ProbeRate < 2*offered {
			v.notes = append(v.notes, fmt.Sprintf("closed-loop rate on this path %.0f msgs/s is under twice the offered %.0f: a backlog could grow", r.fin.ProbeRate, offered))
		}
		// A generator that runs late offers a different load than the one
		// named: the run is invalid, not slow.
		if late := r.gen.LatenessMs; late.HighQ >= 0.99 && late.P99 > 1 {
			v.notes = append(v.notes, fmt.Sprintf("generator lateness p99 %.3f ms exceeds 1 ms", late.P99))
		}
	}
	return v
}
