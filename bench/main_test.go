package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"github.com/cercs/iqrudp/bench/loops"
	"github.com/cercs/iqrudp/bench/tracedrv"
	"github.com/cercs/iqrudp/bench/workload"
)

// benchmarkJSON mirrors the committed BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the code must name the same workloads and metrics:
// the file is what later changes are judged against, the code is what emits.
func TestBenchmarkJSONAgreesWithTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}

	specs := workload.Specs()
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code runs %d", len(doc.Workloads), len(specs))
	}
	for i, sp := range specs {
		if w := doc.Workloads[i]; w.Name != sp.Name || w.Why != sp.Why {
			t.Errorf("workload %d: file has %q (%q), code has %q (%q)", i, w.Name, w.Why, sp.Name, sp.Why)
		}
	}

	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the code emits %d", len(doc.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, m := range endToEnd {
		f := doc.EndToEnd[i]
		if f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better || f.Bound != m.Bound {
			t.Errorf("end-to-end %d: file has %+v, code has %+v", i, f, m)
		}
		if m.On != nil {
			t.Errorf("%s: an end-to-end metric must be defined on every workload", m.Name)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			sawSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !sawSetup {
		t.Error("setup_s (unit s, lower is better) must be an end-to-end metric")
	}

	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code emits %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if f := doc.PerLayer[i]; f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better {
			t.Errorf("per-layer %d: file has %+v, code has %+v", i, f, m)
		}
	}
	if doc.RunSeconds < 15 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d: the windows may shrink uniformly but not below 15 s", doc.RunSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", doc.Paths)
	}
}

func TestMetricNamesAndUnitsAreWellFormed(t *testing.T) {
	known := map[string]bool{}
	for _, sp := range workload.Specs() {
		known[sp.Name] = true
		if !nameRE.MatchString(sp.Name) {
			t.Errorf("workload name %q is malformed", sp.Name)
		}
	}
	seen := map[string]bool{}
	for _, defs := range [][]metric{endToEnd, perLayer} {
		for _, m := range defs {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q is malformed", m.Name)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is malformed", m.Name, m.Unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			if seen[m.Name] {
				t.Errorf("metric %q is listed twice", m.Name)
			}
			seen[m.Name] = true
			for _, w := range m.On {
				if !known[w] {
					t.Errorf("%s is defined on unknown workload %q", m.Name, w)
				}
			}
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the benchmark's limits", len(endToEnd), len(perLayer))
	}
}

// Every value a run computes must have a name in the tables, and every name
// in the tables must be computed by some source, on every workload.
func TestEveryNamedMetricIsEmitted(t *testing.T) {
	h := &host{SinkProcs: 1}
	for _, sp := range workload.Specs() {
		r := &runResult{spec: sp, seed: 1, seconds: 2, setupS: []float64{1}}
		r.sink.Buckets = []uint64{1, 1}
		vd := verdict{attempted: 1}
		v := appValues(r, vd)
		merge(v, counterValues(r, h))
		merge(v, traceValues(nil, tracedrv.Result{}, tracedrv.Result{}, 0))
		lres := map[string]loops.Result{}
		for _, name := range loops.Names {
			lres[name] = loops.Result{Name: name}
		}
		merge(v, loopValues(lres))
		v["obs.tax_ratio"] = 0 // layers() sets it from a second run with the recorder off
		named := map[string]bool{}
		for _, defs := range [][]metric{endToEnd, perLayer} {
			for _, m := range defs {
				named[m.Name] = true
				if _, ok := v[m.Name]; !ok {
					t.Errorf("%s: %s is named but no source computes it", sp.Name, m.Name)
				}
			}
		}
		for name := range v {
			if !named[name] {
				t.Errorf("%s: %s is computed but not named in names.go", sp.Name, name)
			}
		}
		for _, defs := range [][]metric{endToEnd, perLayer} {
			line := resultLine(defs, sp.Name, v, vd)
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s: result line carries %d metrics, want %d", sp.Name, len(line.Metrics), len(defs))
			}
		}
	}
}
