# Convenience targets for the tcast reproduction.

GO ?= go

.PHONY: all build test race lint unused bench-module bench tcastbench bench-smoke bench-obs bench-faults bench-scale bench-serve serve-smoke baseline figs lab cover fuzz clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Static analysis: gofmt and vet always; staticcheck when installed (CI
# installs it, see .github/workflows/ci.yml).
lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt would reformat:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2024.1.1)"; \
	fi

# Exported declarations under internal/ that no program code references,
# and exported struct fields no program code sets (CI runs it too).
unused:
	$(GO) run ./scripts/unused

# bench/ is a separate Go module (`replace tcast => ../`) that the root
# build never compiles: vet and test it on its own.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem ./... | tee bench_output.txt

# The perf-regression harness: schema-versioned BENCH.json with ns/op plus
# the cost-model rates (polls/sec, virtual-slots/sec) from the trace layer.
# Compare against a committed baseline with:
#   go run ./cmd/tcastbench -input BENCH.json -baseline BENCH.baseline.json
tcastbench:
	$(GO) run ./cmd/tcastbench -out BENCH.json

# The CI smoke subset: micro-benchmarks plus the analytic figures.
bench-smoke:
	$(GO) run ./cmd/tcastbench -short -out BENCH.json

# The parallel-observability trio side by side: bare vs traced vs audited
# 2tBins trials/sec through the full-parallelism trial pool.
bench-obs:
	$(GO) run ./cmd/tcastbench -run query-2tbins -out /dev/null

# The fault-injection overhead: 2tBins trials/sec with the injector and
# retry middleware stacked above the channel, against the bare entry.
bench-faults:
	$(GO) run ./cmd/tcastbench -run query-2tbins-faulted -out /dev/null

# The telemetry-scale trio: fully observed 2tBins trials (sparse audit,
# sampled spans, sketch sink) at N = 10^3 / 10^5 / 10^6 — the B/op
# column is the flat-in-N claim the CI memory gate enforces.
bench-scale:
	$(GO) run ./cmd/tcastbench -run query-2tbins-scale -out /dev/null

# The serving trio: waves of 1/8/64 concurrent sessions through a
# serve.Pool sharing one field — queries/sec and p99 session latency of
# the tcastd scheduling core.
bench-serve:
	$(GO) run ./cmd/tcastbench -run serve-2tbins -out /dev/null

# Boot tcastd on an ephemeral port, fire concurrent queries at it, scrape
# the ops endpoints and drain it — the CI serving smoke, runnable locally.
serve-smoke:
	./scripts/serve-smoke.sh

# Regenerate the committed perf baseline. Run the full suite on a quiet
# machine, eyeball the diff against the previous baseline, and commit the
# result (see EXPERIMENTS.md, "Refreshing the perf baseline").
baseline:
	$(GO) run ./cmd/tcastbench -out BENCH.baseline.json

# Regenerate every table and figure at paper-scale trial counts.
figs:
	$(GO) run ./cmd/tcastfigs -fig all -out results

# The emulated 12-mote testbed campaign (Fig 4 + error statistics).
lab:
	$(GO) run ./cmd/tcastlab

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

fuzz:
	$(GO) test -fuzz=FuzzThresholdDecision -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzParseSpec -fuzztime=30s ./internal/faults/
	$(GO) test -fuzz=FuzzParseRules -fuzztime=30s ./internal/obs/
	$(GO) test -fuzz=FuzzRankedSelect -fuzztime=30s ./internal/idset/
	$(GO) test -fuzz=FuzzFormsAgree -fuzztime=30s ./internal/idset/
	$(GO) test -fuzz=FuzzFilterRanks -fuzztime=30s ./internal/idset/
	$(GO) test -fuzz=FuzzTraceDecode -fuzztime=30s ./internal/trace/
	$(GO) test -fuzz=FuzzEncodeMatchesJSON -fuzztime=30s ./internal/trace/
	$(GO) test -fuzz=FuzzSerialDecode -fuzztime=30s ./internal/serial/
	$(GO) test -fuzz=FuzzQueryRequest -fuzztime=30s ./internal/serve/
	$(GO) test -fuzz=FuzzCSMAMatchesSlotLoop -fuzztime=30s ./internal/baseline/

clean:
	rm -f cover.out bench_output.txt BENCH.json
	rm -rf results
