GO ?= go

.PHONY: all build test race vet fmt fuzz-smoke incremental-exactness chaos chaos-slo ci bench bench-parallel bench-json bench-diff lintobs cover serve-smoke encoder-smoke perfbench-check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt fails if any file is not gofmt-clean (prints the offenders).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# fuzz-smoke runs short fuzzing passes over the surfaces exposed to
# untrusted peers: the model wire reader, the /v1 assess request
# decoder (both reachable via internal/exchange), and the remote
# encoder's response envelope.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzReadModelJSON -fuzztime=5s ./internal/core
	$(GO) test -run xxx -fuzz FuzzAssessRequestJSON -fuzztime=5s ./internal/exchange
	$(GO) test -run xxx -fuzz FuzzEncoderResponseJSON -fuzztime=5s ./internal/encoder

# incremental-exactness pins the incremental-maintenance contract
# (DESIGN.md §15): sufficient statistics accumulated from the rows (whole or
# merged from partial fits) must reproduce the from-scratch PCA fit within
# linalg.StatsFitTolerance, the rows-path refit must be bit-identical, a
# churned state must train the same model as a fresh state over its rows,
# and AssessDelta verdicts must equal a full reassessment while re-scoring
# strictly fewer passes.
incremental-exactness:
	$(GO) test -count=1 -run 'IncrementalExactness|Stats' ./internal/linalg
	$(GO) test -count=1 -run 'ScoperIncremental|AssessDelta|TrainFromPartialFits|ModelState' ./internal/core
	$(GO) test -count=1 -run 'UpdateModelIncremental|AssessDeltaState' .

# chaos runs the deterministic fault-injection suite: seed-driven injected
# errors, panics, delays, and payload corruption across the parallel pool,
# the exchange client/server, and the dataset loaders (see DESIGN.md §9).
# CHAOS_SEED varies the corruption-sweep seeds without losing determinism.
CHAOS_SEED ?= 1
chaos:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -count=1 \
		-run 'Chaos|Injected|Corrupt|FaultInject|LoadHook|KilledMidRun' \
		./internal/parallel ./internal/faultinject ./internal/exchange \
		./internal/schema ./internal/embed ./internal/checkpoint \
		./internal/core ./internal/experiments

# chaos-slo runs the replicated-fleet chaos SLO harness (see DESIGN.md §14):
# a three-replica scoping fleet is driven through kill, restart, stall,
# corrupt, and drain schedules while the client fails over, hedges, and
# circuit-breaks. Asserts 100% availability, zero inconsistent verdicts,
# bit-identical post-restart ETags, typed drain refusals, and — via
# leakcheck — zero goroutine leaks after drain.
chaos-slo:
	$(GO) test -count=1 -run TestChaosSLO -v ./internal/experiments

# ci is the tier-1 verification gate: formatting, vet, the full test suite
# under the race detector, the wire-reader fuzz smoke, the encoder-backend
# conformance smoke, and the benchmark module check.
ci: fmt vet race fuzz-smoke encoder-smoke perfbench-check

# perfbench-check vets and tests the benchmark module. perfbench/ is its own
# Go module, so the root `go build ./...` and `go test ./...` never enter
# it; this target keeps a library API change from silently breaking the
# benchmark.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem

# Worker-pool before/after comparison (see DESIGN.md §7). Run on a
# multicore host to observe real speedup.
bench-parallel:
	$(GO) test -run xxx -bench 'Parallel(EncodeAll|MatchAll|Assess)' -cpu 1,4 .

# bench-json times the evaluation tables (reduced -fast settings, matching
# the committed baseline) and writes the machine-readable report, including
# a machine-speed calibration entry, to BENCH_OUT.
BENCH_OUT ?= /tmp/BENCH_tables.json
bench-json:
	$(GO) run ./cmd/benchtables -fast -benchjson $(BENCH_OUT)

# bench-diff gates performance regressions: a fresh bench-json run must not
# be more than 25% slower (calibration-normalised) than the committed
# baseline. Refresh the baseline with:
#	make bench-json BENCH_OUT=BENCH_tables.json
bench-diff: bench-json
	$(GO) run ./cmd/benchdiff -baseline BENCH_tables.json -current $(BENCH_OUT)

# serve-smoke boots the scoping service end to end: upload through
# POST /v1/models into a persistent registry, assess through
# POST /v1/assess, restart over the same registry (verdicts must
# reproduce), and scrape /v1/metrics.
serve-smoke:
	$(GO) run ./cmd/servesmoke

# encoder-smoke is the encoder-backend conformance gate: the remote stub
# and the local hash encoder must produce byte-identical signatures and
# scoping verdicts on OC3-FO, cold and warm, with warm reruns served
# entirely from the signature cache (zero requests).
encoder-smoke:
	$(GO) run ./cmd/encodersmoke

# lintobs enforces the repo's timing discipline: time.Now belongs to
# internal/obs (Stopwatch) so hot paths stay instrumentable and the
# disabled path stays zero-cost.
lintobs:
	$(GO) run ./cmd/lintobs ./...

# cover enforces the ratcheted coverage floor: the floor only moves up as
# total coverage grows (raise it here and in .github/workflows/ci.yml).
COVER_MIN ?= 77.0
cover:
	$(GO) test -coverprofile=/tmp/cover.out ./...
	$(GO) tool cover -func=/tmp/cover.out | tail -1
	@total=$$($(GO) tool cover -func=/tmp/cover.out | tail -1 | grep -o '[0-9.]*%' | tr -d '%'); \
	ok=$$(awk -v t=$$total -v m=$(COVER_MIN) 'BEGIN{print (t>=m)?"yes":"no"}'); \
	if [ "$$ok" != "yes" ]; then \
		echo "coverage $$total% is below the ratcheted minimum $(COVER_MIN)%"; exit 1; \
	else echo "coverage $$total% >= $(COVER_MIN)% (ratchet: raise COVER_MIN in .github/workflows/ci.yml when it grows)"; fi
