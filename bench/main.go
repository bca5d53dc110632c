// Command bench is the repository's benchmark: four named workloads run by
// a generator (this process) against a serve-engine sink in a second
// process, end-to-end metrics from that untraced run, and per-layer metrics
// from the engine's public counters, a traced driver and call loops. See
// README.md in this directory.
//
//	bash bench/run.sh -seed 1                      every workload, every metric
//	bash bench/run.sh -seed 1 -repeat 5            ... five times, with spreads
//	bash bench/run.sh --workload bulk_small --seed 1 --seconds 20 --trace 0
//
// The last form is what the benchmark pipeline runs; it ends with one line
// of JSON holding the end-to-end (--trace 0) or per-layer (--trace 1) metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/cercs/iqrudp/bench/loops"
	"github.com/cercs/iqrudp/bench/measure"
	"github.com/cercs/iqrudp/bench/sink"
	"github.com/cercs/iqrudp/bench/tracedrv"
	"github.com/cercs/iqrudp/bench/workload"
)

// runLimit bounds one workload's procedure (set-ups, window, traced run,
// loops): past it the sink child is killed and the command fails.
const runLimit = 170 * time.Second

// spanCap is the traced run's span slab: about 32 MB, filled by a
// saturated small-message run in under a second, which is sample enough
// for per-call means.
const spanCap = 1 << 20

func main() {
	var (
		role      = flag.String("role", "gen", "gen (default) or sink; the generator starts its own sink")
		wl        = flag.String("workload", "all", "workload name, or all")
		seed      = flag.Uint64("seed", 1, "workload seed: the same seed gives the same messages, marking and faults")
		seconds   = flag.Int("seconds", 20, "measured window per workload, seconds")
		trace     = flag.String("trace", "both", "0: end-to-end metrics from the untraced run; 1: per-layer metrics; both")
		repeat    = flag.Int("repeat", 1, "run the selection this many times and print each metric's spread")
		noOffload = flag.Bool("sink-nooffload", false, "sink without GSO/GRO (serve.Options.NoOffload): the sensitivity demonstration")
		noFlight  = flag.Bool("sink-noflight", false, "sink without flight recorder and histograms (serve.Options.FlightEvents=-1)")
	)
	flag.Parse()
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}

	if *role == "sink" {
		sp, ok := workload.ByName(*wl)
		if !ok {
			fatal(fmt.Errorf("sink: unknown workload %q", *wl))
		}
		err := sink.Run(sink.Options{
			Spec: sp, Seed: *seed, Seconds: *seconds, NoOffload: *noOffload, NoFlight: *noFlight,
		}, os.Stdin, os.Stdout)
		if err != nil {
			fatal(err)
		}
		return
	}

	specs := workload.Specs()
	if *wl != "all" {
		sp, ok := workload.ByName(*wl)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *wl))
		}
		specs = []workload.Spec{sp}
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		fatal(fmt.Errorf("-trace must be 0, 1 or both"))
	}
	h, err := newHost()
	if err != nil {
		fatal(err)
	}
	b := &bench{h: h, seed: *seed, seconds: *seconds, noOffload: *noOffload, noFlight: *noFlight}

	fmt.Printf("# %s\n# seed=%d window=%ds warm-up=%s\n", h, *seed, *seconds, warmup)
	allOK := true
	samples := map[string][]float64{} // "workload metric" → one value per repeat
	for rep := 0; rep < *repeat; rep++ {
		for _, sp := range specs {
			if *trace != "1" {
				v, ok, err := b.endToEnd(sp)
				if err != nil {
					fatal(err)
				}
				allOK = allOK && ok
				collect(samples, sp.Name, endToEnd, v)
			}
			if *trace != "0" {
				v, ok, err := b.layers(sp)
				if err != nil {
					fatal(err)
				}
				allOK = allOK && ok
				collect(samples, sp.Name, perLayer, v)
			}
		}
	}
	if *repeat > 1 {
		printSpreads(specs, samples)
	}
	if !allOK {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// bench is one invocation's settings.
type bench struct {
	h                   *host
	seed                uint64
	seconds             int
	noOffload, noFlight bool
}

// endToEnd runs sp untraced, out of process, for the full window, and
// prints the application's view of it.
func (b *bench) endToEnd(sp workload.Spec) (values, bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	r, err := run(ctx, runOpts{
		spec: sp, seed: b.seed, seconds: b.seconds, setups: 3,
		noOffload: b.noOffload, noFlight: b.noFlight,
	}, b.h)
	if err != nil {
		return nil, false, fmt.Errorf("%s: %w", sp.Name, err)
	}
	vd := judge(r)
	v := appValues(r, vd)
	fmt.Printf("\n== %s: end to end (untraced, sink out of process, %d s window, %d connections) ==\n",
		sp.Name, b.seconds, sp.Conns)
	printTable(os.Stdout, endToEnd, sp.Name, v)
	printTable(os.Stdout, appView, sp.Name, v)
	lat := r.sink.LatencyMs
	fmt.Printf("  delivery latency: n=%d, highest percentile with 10 samples beyond is p%g = %.4g ms\n",
		lat.N, lat.HighQ*100, lat.HighV)
	fmt.Printf("  sink CPU busy %.1f%% of the window; failed %d of %d attempted operations\n",
		100*ratio(float64(r.sink.Proc.CPU)/1e9, r.sink.WindowSec*float64(b.h.SinkProcs)), vd.failed, vd.attempted)
	if t := r.sink.Total; vd.failed > 0 {
		fmt.Printf("  failures: %d marked missing, %d out of order, %d corrupt, %d marked partial, %d bad cycles, %d send/close errors, %d dial failures\n",
			t.MissingMarked, t.OutOfOrder, t.Corrupt, t.BadPartial, r.sink.BadCycles, r.fin.SendErrs, r.fin.DialFails)
	}
	for _, n := range vd.notes {
		fmt.Println("  INVALID:", n)
	}
	return v, vd.correct(), printJSON(os.Stdout, resultLine(endToEnd, sp.Name, v, vd))
}

// layers spends the window's length on the per-layer numbers: a shorter
// out-of-process run for the counters, the traced driver and its untraced
// twin, then the call loops.
func (b *bench) layers(sp workload.Spec) (values, bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	window := b.seconds * 3 / 10
	if window < 2 {
		window = 2
	}
	r, err := run(ctx, runOpts{
		spec: sp, seed: b.seed, seconds: window, setups: 1,
		noOffload: b.noOffload, noFlight: b.noFlight,
	}, b.h)
	if err != nil {
		return nil, false, fmt.Errorf("%s: %w", sp.Name, err)
	}
	vd := judge(r)
	v := appValues(r, vd)
	merge(v, counterValues(r, b.h))

	// The flight-recorder tax: the same workload with the sink's recorder
	// and histograms off, as a ratio of CPU per message.
	if metricNamed("obs.tax_ratio").on(sp.Name) {
		twin, err := run(ctx, runOpts{
			spec: sp, seed: b.seed, seconds: window, setups: 1, noOffload: b.noOffload, noFlight: true,
		}, b.h)
		if err != nil {
			return nil, false, fmt.Errorf("%s (recorder off): %w", sp.Name, err)
		}
		tv := judge(twin)
		vd.failed += tv.failed
		vd.attempted += tv.attempted
		vd.notes = append(vd.notes, tv.notes...)
		v["obs.tax_ratio"] = ratio(appValues(twin, tv)["cpu_us_per_msg"], v["cpu_us_per_msg"])
	}

	// Traced run, then the same driver untraced.
	dopt := tracedrv.Options{Spec: sp, Seed: b.seed, For: time.Duration(b.seconds) * time.Second / 5}
	drive := tracedrv.Run
	if sp.Loop == workload.Churn {
		drive = tracedrv.RunChurn
	}
	rec := tracedrv.NewRecorder(spanCap)
	dopt.Rec = rec
	traced, err := drive(dopt)
	if err != nil {
		return nil, false, fmt.Errorf("%s traced: %w", sp.Name, err)
	}
	dopt.Rec = nil
	plain, err := drive(dopt)
	if err != nil {
		return nil, false, fmt.Errorf("%s untraced twin: %w", sp.Name, err)
	}
	for _, d := range []tracedrv.Result{traced, plain} {
		vd.attempted += d.Sent
		vd.failed += d.Tally.Violations()
	}
	merge(v, traceValues(rec.Spans(), traced, plain, v["serve.cpu_us_per_msg"]))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, false, err
	}
	tracePath := filepath.Join(outDir, "trace-"+sp.Name+".json")
	if err := tracedrv.WriteFile(tracePath, sp.Name, rec.Spans()); err != nil {
		return nil, false, err
	}

	lres, err := loops.Run(sp, b.seed, time.Duration(b.seconds)*4*time.Millisecond)
	if err != nil {
		return nil, false, err
	}
	merge(v, loopValues(lres))

	fmt.Printf("\n== %s: per layer (counters from a %d s untraced run; trace.* from the traced driver, %d spans, written to %s; loop.* from call loops) ==\n",
		sp.Name, window, len(rec.Spans()), tracePath)
	printTable(os.Stdout, perLayer, sp.Name, v)
	for _, n := range vd.notes {
		fmt.Println("  INVALID:", n)
	}
	return v, vd.correct(), printJSON(os.Stdout, resultLine(perLayer, sp.Name, v, vd))
}

// outDir is where trace files go, relative to the checkout root run.sh
// starts the benchmark in.
const outDir = "bench/out"

func merge(dst, src values) {
	for k, x := range src {
		dst[k] = x
	}
}

func metricNamed(name string) metric {
	for _, m := range perLayer {
		if m.Name == name {
			return m
		}
	}
	return metric{}
}

// collect files one run's values under "workload metric".
func collect(samples map[string][]float64, workload string, defs []metric, v values) {
	for _, m := range defs {
		if m.on(workload) {
			k := workload + " " + m.Name
			samples[k] = append(samples[k], v[m.Name])
		}
	}
}

// printSpreads prints, per workload and metric, the median and quartiles
// over the repeats and — for end-to-end metrics — the inter-quartile spread
// as a share of the committed bound.
func printSpreads(specs []workload.Spec, samples map[string][]float64) {
	fmt.Printf("\n== repeatability: median [Q1, Q3] spread=(Q3-Q1)/median; end-to-end metrics also spread/bound ==\n")
	for _, sp := range specs {
		for _, defs := range [][]metric{endToEnd, perLayer} {
			for _, m := range defs {
				vals := samples[sp.Name+" "+m.Name]
				if len(vals) == 0 {
					continue
				}
				s := measure.SpreadOf(vals)
				line := fmt.Sprintf("  %-14s %-34s %12.6g [%.6g, %.6g] %s  spread=%.2f%%",
					sp.Name, m.Name, s.Median, s.Q1, s.Q3, m.Unit, 100*s.Rel)
				if m.Bound > 0 {
					line += fmt.Sprintf("  spread/bound=%.2f", s.Rel/m.Bound)
				}
				fmt.Println(line)
			}
		}
	}
}
