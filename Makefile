# Developer entry points. `make check` is the pre-commit gate; `make
# race-smoke` is the fast race-detector pass over the threaded driver's
# loopback tests (the sans-I/O core and simulator are single-threaded, so
# udpwire plus the trace sinks is where races would live).

GO ?= go

# Chaos soak knobs (see internal/chaoswire/soak_test.go): the seed fixes the
# fault streams, the duration bounds the soak. `make check` runs the short
# deterministic pass via `race` (the suite default is 1500ms per soak);
# `make chaos-smoke` runs a longer seeded soak on just the chaos harness.
CHAOS_SEED ?= 1
CHAOS_DUR  ?= 5s

.PHONY: check build test vet lint race bench-compile race-smoke chaos-smoke attack-smoke fuzz-smoke wire-smoke bench bench-alloc bench-obs bench-server bench-fec benchstat tables

check: vet lint build race bench-compile ## vet + iqlint + build + full race-enabled test run (includes the short seeded chaos pass) + the benchmark module's vet and tests

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

lint: ## project-specific invariants: ownership, locking, leaks (see DESIGN.md §12; §17.3 for -staleignores)
	$(GO) run ./cmd/iqlint ./...
	$(GO) run ./cmd/iqlint -staleignores ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench-compile: ## bench/ is its own module, outside ./...: vet and test it so an internal API change that breaks the benchmark fails here
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

race-smoke: ## quick -race pass: loopback wire tests against the serve engine incl. the traced-sinks smoke, TX ring, packet pool, the timing wheel, the serve engine (incl. TestRouteDataAckAllocs, TestRunCoalescesAcks: one ACK per receive run, and TestConnCycleAllocs: allocations and bytes per Dial/8 messages/Close cycle), the data-path allocation pins, and the core's clock contract, sendPkt freelist and untransmitted-queue storage pin (both ACK patterns), SYNACK-retry pin and EACK-sort pin
	$(GO) test -race -run 'TestTracedLoopbackAllSinks|TestDialListenRoundTrip|TestManyMessagesOrdered|TestConcurrentSendersOneConnection|TestBidirectional|TestAcceptMultipleClients|TestDialedTxRingFlushes|TestTxErrorCounted|TestWheelTimer|TestDialedHandleBatchAllocs' ./internal/udpwire/
	$(GO) test -race -run 'Allocs' ./internal/uio/ ./internal/trace/
	$(GO) test -race ./internal/packet/
	$(GO) test -race ./internal/wheel/
	$(GO) test -race ./internal/serve/
	$(GO) test -race -run 'TestSteadyStateAllocs' .
	$(GO) test -race -run 'TestOneClockReadPerEntry|TestSendPktFreelistCoversBacklog|TestSynAckRetryRearmAllocatesNothing|TestEackWithParkedExtentsAllocatesNothing' ./internal/core/

chaos-smoke: ## seeded fault-injection soak under -race: blackhole + resume survivability, multi-client chaos invariants (leaks, close reasons, marked delivery)
	CHAOS_SEED=$(CHAOS_SEED) CHAOS_DUR=$(CHAOS_DUR) $(GO) test -race -count=1 -v -run 'TestChaosSoak|TestResumeAcrossBlackhole' ./internal/chaoswire/

attack-smoke: ## hostile-traffic soak under -race: spoofed SYN flood vs stateless validation (no allocation, 3x amp budget, legit marked delivery), cookie replay, garbage datagrams
	$(GO) test -race -count=1 -v -run 'TestAttackSoak|TestAttackReplayAndGarbage' ./internal/chaoswire/
	$(GO) test -race -count=1 -run 'TestDialThroughRetry|TestSynFloodStateless|TestCookieReplayRejected|TestAmpGate|TestRstRateCap|TestZombieEviction' ./internal/serve/

fuzz-smoke: ## bounded fuzz pass over the decoders, the reassembler and ACK coalescing in receive runs
	$(GO) test -fuzz '^FuzzDecode$$' -fuzztime 20s -run '^$$' ./internal/packet/
	$(GO) test -fuzz '^FuzzDecodeInto$$' -fuzztime 20s -run '^$$' ./internal/packet/
	$(GO) test -fuzz '^FuzzAttrDecode$$' -fuzztime 20s -run '^$$' ./internal/attr/
	$(GO) test -fuzz '^FuzzReassembly$$' -fuzztime 20s -run '^$$' ./internal/core/
	$(GO) test -fuzz '^FuzzAckRuns$$' -fuzztime 20s -run '^$$' ./internal/core/

# wire-smoke is the counted gate: wire_efficiency (payload bytes / bytes on
# the wire at the sink's socket) on bulk_small. A byte count, so it repeats
# exactly run to run; 0.74 sits below the ≈0.76 the compact wire v3 header
# gives and far above the 0.54 of the 47-byte v2 header.
wire-smoke: ## short bulk_small benchmark run: fails unless it is correct and wire_efficiency >= 0.74
	bash bench/run.sh --workload bulk_small --seed 1 --seconds 3 --trace 0 | tail -n 1 | \
	python3 -c 'import json, sys; r = json.load(sys.stdin); w = r["metrics"]["wire_efficiency"]["value"]; \
	print("wire-smoke: correct=%s wire_efficiency=%.4f (min 0.74)" % (r["correct"], w)); \
	sys.exit(0 if r["correct"] is True and w >= 0.74 else 1)'

bench: ## nil-tracer send-path benchmarks (compare against a saved baseline)
	$(GO) test -bench . -benchtime 3x -run '^$$' .

bench-alloc: ## zero-allocation fast-path A/B (allocs/op + msgs/sec vs baseline) -> BENCH_alloc.json
	BENCH_ALLOC_JSON=$(CURDIR)/BENCH_alloc.json $(GO) test -run TestAllocBenchJSON -count=1 -v .

bench-obs: ## histogram-recording overhead A/B (ns/op + allocs/op, hists on vs off) -> BENCH_obs.json
	BENCH_OBS_JSON=$(CURDIR)/BENCH_obs.json $(GO) test -run TestObsBenchJSON -count=1 -v .

bench-server: ## many-connection serve engine throughput matrix (shards x GOMAXPROCS x conns, plus a no-offload twin) -> BENCH_server.json
	BENCH_SERVER_JSON=$(CURDIR)/BENCH_server.json $(GO) test -run TestServerEngineBenchJSON -v ./internal/serve/

bench-fec: ## delivery-latency A/B at 5/10/20% seeded loss, FEC on vs off -> BENCH_fec.json
	BENCH_FEC_JSON=$(CURDIR)/BENCH_fec.json $(GO) test -run TestFecLatencyBenchJSON -count=1 -v ./internal/chaoswire/

benchstat: ## diff two saved `go test -bench` outputs: make benchstat OLD=old.txt NEW=new.txt
	$(GO) run ./cmd/benchdiff $(OLD) $(NEW)

tables: ## regenerate the paper's tables on the simulator
	$(GO) run ./cmd/iqbench -experiment all
