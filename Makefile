GO ?= go

.PHONY: all build vet lint test race ledger bench microbench smoke fuzz-smoke daemons deploy-smoke identical check clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint gates on vet, canonical formatting (any file gofmt would rewrite
# fails the build with its name printed) and the rent test for code:
# every identifier in non-test code has a non-test reader or an
# allow-list entry naming the one that keeps it (DESIGN.md).
lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) test -count=1 -run TestEveryIdentifierHasAReader .

test:
	$(GO) test ./...

# The trial runner is the concurrent subsystem; the sim and topo
# packages carry the pooled engine and the path oracle that all trials
# of a grid share over one frozen topology, the plancache serves all
# trial workers concurrently, so all four run
# under the race detector — as do faults and audit, whose per-trial
# injectors and auditors execute inside concurrently running trials,
# and trace, whose per-trial recorders must stay disjoint across
# workers. The wiring registry and all four baselines (ez-Segway,
# Central, PPCU, OptOracle) run under the detector too: their handlers and coordinators execute inside
# concurrently running trials, and those with plan caches share them
# across workers. The second line repeats the test that races Centroid's
# scratch sweeps against cache-miss path queries on one frozen topology,
# ten times, since one run sees only a single Centroid computation. The
# third adds the churn and soak harness tests, which drive the pool end
# to end.
race:
	$(GO) test -race ./internal/runner/... ./internal/sim/... ./internal/topo/... ./internal/plancache/... ./internal/faults/... ./internal/audit/... ./internal/trace/... ./internal/wiring/... ./internal/central/... ./internal/ezsegway/... ./internal/ppcu/... ./internal/optoracle/... ./internal/dataplane/... ./internal/controlplane/... ./internal/traffic/... ./internal/packet/... ./internal/soak/... ./internal/transport/... ./internal/replaydiff/... ./internal/deploy/...
	$(GO) test -race -count=10 -run 'TestOracleConcurrentCentroid' ./internal/topo/
	$(GO) test -race -run 'Churn|Soak' ./internal/experiments/

# One workload of the repository benchmark (BENCHMARK.json), end to end:
# `make ledger WORKLOAD=churn-k16` prints its twelve metrics and, as the
# last line, the JSON result. Workloads: burst-k8, churn-k16, paper-grid,
# soak-b4-squall (see benchmark/README.md).
ledger:
	$(GO) run ./benchmark -workload $(WORKLOAD)

# The repository benchmark (BENCHMARK.json): every workload of the
# ledger, end to end, each in its own process.
bench:
	$(GO) run ./benchmark

# Package micro-benchmarks with allocation counts: the event engine
# (internal/sim), the switch state (internal/dataplane: install/retire
# at fat-tree K=16 scale, (switch, flow) lookups), the path oracle's
# per-reroute tree repair, cold centroid search (BenchmarkCentroid) and
# Yen's k-shortest paths (internal/topo),
# the churn harness's link→flow index and one flow's arrival → departure
# → retire cycle at K=16 scale (internal/soak: BenchmarkLinkIndex,
# BenchmarkArrivalRetire), the Fig. 7
# single-flow scenario search (internal/traffic), the Fig. 7 trial
# grid itself, per-trial wiring and beds included (internal/experiments,
# BenchmarkFig7Grid), one fresh burst-k8 trial, 500 updates on a K=8
# bed (internal/experiments, BenchmarkBurstTrial), and the two planners Fig. 8 compares on the same B4
# path pairs (internal/controlplane, internal/ezsegway:
# BenchmarkPreparePlan). A quick A/B for a queue, state-layout, oracle,
# path, harness-index, flow-table, trial-bed or planner change, without
# the 24 s ledger run.
microbench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/sim/ ./internal/dataplane/ ./internal/topo/ ./internal/soak/ ./internal/traffic/ ./internal/experiments/ ./internal/controlplane/ ./internal/ezsegway/

# Every experiment's smoke run, as `p4update -exp list` prints them (the
# same runs make identical compares): figures, scale, streaming churn, the
# chaos sweep and the squall soak at seconds scale. The in-test gates
# (churn audit, soak SLOs) run in `make test`.
smoke:
	$(GO) build -o bin/p4update ./cmd/p4update
	bin/p4update -exp list | while read -r name args; do \
		echo "== smoke: $$name"; bin/p4update $$args || exit 1; \
	done

# Short native-fuzzing pass over the wire decoder — the surface the
# fault injector's corrupt path hammers in every chaotic trial.
fuzz-smoke:
	$(GO) test -fuzz=FuzzDecode -fuzztime=10s ./internal/packet/

# Build the real-process deployment daemons into bin/.
daemons:
	$(GO) build -o bin/controllerd ./cmd/controllerd
	$(GO) build -o bin/switchd ./cmd/switchd

# Real-process integration smoke: forked controllerd + 5× switchd over
# localhost UDP run the fig2 update, the controller is killed and
# restarted mid-update, and every process's flight recording is
# replay-diffed against the simulated oracle (internal/replaydiff).
deploy-smoke: daemons
	$(GO) run ./cmd/p4update -exp deploy -deploy-bin bin

# Behaviour-preservation gate for refactors: `make identical BASE=<rev>`
# exports BASE into a temporary directory, builds both sides, and diffs
# the stdout of every `p4update -exp list` run (wall-clock fields masked)
# and the four benchmark sim_digests. Non-zero exit on any difference.
# Not part of check: it needs a BASE.
identical:
	@test -n "$(BASE)" || { echo "usage: make identical BASE=<rev>"; exit 2; }
	GO="$(GO)" scripts/identical.sh $(BASE)

check: lint build test race smoke deploy-smoke

clean:
	$(GO) clean ./...
