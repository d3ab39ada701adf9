# The `check` target is the tier-1 gate (see ROADMAP.md): vet, lint
# (the project's own static-analysis suite), build, the full test
# suite, and the race detector over every package with real
# concurrency — the UDP transport, the telemetry registry, the rack
# simulator, the sharded aggregation core, the event scheduler and
# the public session/cluster API. CI and pre-commit should run
# `make check`.

GO ?= go

# Packages whose tests exercise concurrent goroutines against shared
# state; they must stay clean under the race detector.
RACE_PKGS = ./internal/transport ./internal/telemetry ./internal/rack \
	./internal/core ./internal/netsim ./internal/netio .

.PHONY: check vet cross lint lint-one lint-allows lint-sarif build test race chaos fuzz bench bench-smoke top-smoke flight-check elastic-smoke failover-smoke clean

check: vet cross lint build test race chaos bench-smoke top-smoke flight-check elastic-smoke failover-smoke

# gofmt drift in any tracked Go file fails vet (the analysis testdata
# modules are fixtures, formatted or not on purpose).
vet:
	$(GO) vet ./...
	@out=$$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi

# Big-endian build: the wire payload is little-endian, copied on
# little-endian hosts and swapped elsewhere (internal/packet's
# elems_swap.go). No emulator is installed, so the swapping path is
# vetted and compiled for s390x here, not run; its encoder and decoder
# run on every host in TestPortableCodecMatchesReferences. The arm64
# leg compiles the quantizer where Go may fuse a multiply and an add
# into one FMA, which rounds once where quant.ToFixed must round twice;
# its explicit float64 conversion forbids that, and the leg fails if
# the arm64 assembly of internal/quant holds a fused instruction.
cross:
	GOARCH=s390x $(GO) vet ./...
	GOARCH=s390x $(GO) test -c -o /dev/null ./internal/packet ./internal/core ./internal/transport ./internal/quant
	GOARCH=arm64 $(GO) test -c -o /dev/null ./internal/quant ./internal/core
	@if GOARCH=arm64 $(GO) build -gcflags=-S ./internal/quant 2>&1 | grep -E 'FN?M(ADD|SUB)D'; then \
		echo "internal/quant: fused multiply-add on arm64 (see quant.ToFixed)"; exit 1; fi

# Project-invariant static analysis (cmd/switchml-vet): hot-path
# allocation freedom, simulation determinism, atomics discipline,
# wire-width checks, protocol-dispatch exhaustiveness, pooled-buffer
# ownership, goroutine lifecycles and suppression hygiene. Any finding
# fails the build.
lint:
	$(GO) run ./cmd/switchml-vet

# One analyzer, for CI matrix legs: make lint-one ANALYZER=bufown
lint-one:
	$(GO) run ./cmd/switchml-vet -run $(ANALYZER)

# Suppression audit: every //switchml:allow with its justification.
# (The suppress analyzer separately fails `make lint` on stale ones.)
lint-allows:
	$(GO) run ./cmd/switchml-vet -allows

# SARIF artifact for CI annotation. The report is written even when
# there are findings; `make lint` is the gate that fails on them.
lint-sarif:
	$(GO) run ./cmd/switchml-vet -sarif > switchml-vet.sarif || true

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Chaos gate: every fault-injection and recovery test (worker crash,
# switch restart, switch kill with fallback/failback, burst loss,
# injector chaos) under the race detector.
chaos:
	$(GO) test -race -run Fault ./internal/rack ./internal/transport .

# Short fuzz pass over the wire-format codec; corrupted and adversarial
# datagrams must never crash or round-trip incorrectly, the worker's
# header-first decode must agree with the whole-packet one, and the
# aggregator's ingress from the datagram must leave the switch exactly
# as the decoded ingress does. The host collective's step schedule must
# sum exactly, each segment applied once, under any delivery order on
# its netsim host, and so must the mesh's shipped ARQ under loss of data
# and acks, with every rank finishing its round. The quantizer must
# match its RoundToEven reference bit for bit at any factor and on any
# float32 bit pattern. Go fuzzes one target per invocation.
fuzz:
	$(GO) test -fuzz=FuzzCodec -fuzztime=10s ./internal/packet
	$(GO) test -fuzz=FuzzParseHeader -fuzztime=10s ./internal/packet
	$(GO) test -fuzz=FuzzWireIngress -fuzztime=10s ./internal/core
	$(GO) test -fuzz=FuzzCollectiveSchedule -fuzztime=10s ./internal/allreduce
	$(GO) test -fuzz=FuzzQuantize -fuzztime=10s ./internal/quant

# Quick-look evaluation run (scaled-down tensors).
bench:
	$(GO) run ./cmd/switchml-bench -scale 100

# Hot-path gate: the zero-allocation assertions (packet codec, switch
# ingress, sharded dispatch, event scheduling, the rack simulator's
# per-packet path, batched socket I/O, the aggregator's stage/flush
# cycle and the client's window pump with and without a fault injector,
# the worker's lap query and the recovery pump's per-burst traffic),
# and the count-valued gate that a tensor costs the worker and its pump
# the same in a pool of 1024 slots as in one of 64. Timings live in the
# repo benchmark (go run ./benchmark; BENCHMARK.json).
bench-smoke:
	$(GO) test -run 'ZeroAlloc|TestPumpCostIndependentOfPoolSize' ./internal/packet ./internal/core ./internal/netsim ./internal/rack ./internal/netio ./internal/transport

# Observability smoke: switchml-top boots an in-process cluster over
# loopback UDP, polls its own debug endpoints and validates the JSON
# cluster view end to end.
top-smoke:
	$(GO) run ./cmd/switchml-top -selftest -json > /dev/null

# Flight-recorder gate: a scripted switch-kill must dump a
# schema-valid incident file (trigger event, metric deltas, per-slot
# state) — the acceptance check for the fault flight recorder.
flight-check:
	$(GO) test -run 'TestFlightIncident|TestFlightRecorder' . ./internal/telemetry

# Elastic-membership gate: scripted join/leave and quorum runs on the
# simulator CLI (each self-verifies its final aggregate), then a live
# UDP cluster where a worker joins a running job over the membership
# fence and drains gracefully mid-training.
elastic-smoke:
	$(GO) run ./cmd/switchml-sim -workers 4 -mb 0.01 -steps 6 -detached 3 -join-at 3@2 -leave-at 1@4 > /dev/null
	$(GO) run ./cmd/switchml-sim -workers 4 -mb 0.01 -steps 4 -quorum 3 -straggler-gbps 1 -late-policy reconcile > /dev/null
	./scripts/elastic_smoke.sh

# Warm-standby failover gate: the three-tier defense ladder in both
# substrates. The simulator leg kills the primary mid-step — the
# silence verdict re-homes the job onto the standby rung and the
# revive climbs it back — and must log the whole cycle ending on the
# primary. The live leg boots a real UDP cluster (primary + standby
# aggregators, three workers) and runs the scripted -down-after drill
# through the adoption roll call and fail-up probation.
failover-smoke:
	$(GO) run ./cmd/switchml-sim -workers 4 -mb 1 -steps 12 -standby 1 \
		-switch-kill 100us -switch-revive 10ms | grep "home rank now 0"
	./scripts/failover_smoke.sh

clean:
	$(GO) clean ./...
