package tracedrv

import (
	"fmt"
	"sync"
	"time"

	"github.com/cercs/iqrudp/bench/workload"
	"github.com/cercs/iqrudp/internal/core"
	"github.com/cercs/iqrudp/internal/serve"
	"github.com/cercs/iqrudp/internal/udpwire"
)

// RunChurn is the traced run of a churn workload. Connection set-up runs
// through the serve engine's accept path, which no core.Env can stand in
// for, so here the spans are flat ones around the three calls an
// application makes — udpwire.Dial, Server.Accept, Conn.Close — in one
// process, one worker, for opt.For. Result.Sent counts completed cycles'
// messages; Result.Busy is the whole run.
func RunChurn(opt Options) (Result, error) {
	sp := opt.Spec
	scfg := core.DefaultConfig()
	srv, err := serve.Listen("127.0.0.1:0", scfg, serve.Options{
		AlwaysValidate: sp.AlwaysValidate, DrainTimeout: time.Second,
	})
	if err != nil {
		return Result{}, err
	}
	pattern := workload.NewPattern(opt.Seed, sp.MsgBytes)

	var mu sync.Mutex
	var tally workload.Tally
	var receivers sync.WaitGroup
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			t0 := time.Now()
			c, err := srv.Accept(0)
			if err != nil {
				return
			}
			opt.Rec.Add(Accept, Server, 0, t0, time.Now())
			receivers.Add(1)
			go func() {
				defer receivers.Done()
				ck := workload.NewChecker(pattern, sp.Unmarked)
				for {
					msg, err := c.Recv(0)
					if err != nil {
						break
					}
					ck.Check(msg.Data, msg.Marked, msg.Partial)
				}
				c.Close()
				mu.Lock()
				tally.Add(ck.Tally)
				mu.Unlock()
			}()
		}
	}()

	var res Result
	var runErr error
	start := time.Now()
	for cycle := uint32(0); time.Since(start) < opt.For && !opt.Rec.Full(); cycle++ {
		t0 := time.Now()
		c, err := udpwire.Dial(srv.Addr().String(), core.DefaultConfig(), 5*time.Second)
		if err != nil {
			runErr = fmt.Errorf("tracedrv: churn dial: %w", err)
			break
		}
		opt.Rec.Add(Dial, Client, cycle, t0, time.Now())
		for id := 0; id < sp.MsgsPerCycle; id++ {
			buf := make([]byte, sp.MsgBytes)
			marked := pattern.Fill(buf, time.Now().UnixNano(), 0, uint32(id), sp.Unmarked)
			if err := c.Send(buf, marked); err != nil {
				runErr = fmt.Errorf("tracedrv: churn send: %w", err)
			}
			res.Sent++
		}
		t1 := time.Now()
		c.Close()
		opt.Rec.Add(Close, Client, cycle, t1, time.Now())
	}
	res.Busy = time.Since(start)
	srv.Close()
	<-accepted
	receivers.Wait()
	res.Tally = tally
	return res, runErr
}
