# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test lint lint-fix-report lint-sarif bench bench-gate bench-baseline experiments quick-experiments examples fmt clean

# Benchmarks gated against bench/baseline.txt by bench-gate (and CI).
# cmd/benchreport also holds BenchmarkNoCStep to 0 allocs/op (see its
# -max-allocs default).
BENCH_GATE = BenchmarkSystemEpoch$$|BenchmarkNoCStep$$|BenchmarkThermalStep$$|BenchmarkSystemRun32$$
# Packages holding gated benchmarks (root suite + thermal kernel).
BENCH_PKGS = . ./internal/thermal
BENCH_COUNT ?= 5
# Longer per-run benchtime damps scheduler noise so the 10% gate
# threshold measures the code, not the machine.
BENCH_TIME ?= 2s

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Static analysis, dependency-light: go vet, formatting, and potsim's
# own determinism/hot-path/durability analyzers (cmd/potlint). Needs
# nothing beyond the go toolchain — no network, no installed tools.
lint:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)" || { gofmt -l .; echo "gofmt: files need formatting" >&2; exit 1; }
	$(GO) run ./cmd/potlint ./...

# Machine-readable potlint findings (empty JSON array when clean), for
# editors and review tooling.
lint-fix-report:
	$(GO) run ./cmd/potlint -json ./... > potlint-report.json; \
	status=$$?; cat potlint-report.json; exit $$status

# SARIF 2.1.0 findings for code-scanning uploads (CI feeds this to
# github/codeql-action/upload-sarif so findings annotate the PR diff).
lint-sarif:
	$(GO) run ./cmd/potlint -sarif ./... > potlint.sarif; \
	status=$$?; cat potlint.sarif; exit $$status

# Regenerate every reproduction benchmark (quick mode) with allocations,
# keeping the raw capture and a dated JSON summary (see cmd/benchreport).
bench:
	$(GO) test -run=NONE -bench=. -benchmem ./... | tee bench/latest.txt
	$(GO) run ./cmd/benchreport -out BENCH_$$(date +%Y%m%d).json bench/latest.txt

# Re-measure the gated hot-path benchmarks and fail on a >10% mean
# ns/op regression against the committed baseline.
bench-gate:
	$(GO) test -run=NONE -bench='$(BENCH_GATE)' -benchmem -count=$(BENCH_COUNT) -benchtime=$(BENCH_TIME) $(BENCH_PKGS) | tee bench/latest-gate.txt
	$(GO) run ./cmd/benchreport -check -baseline bench/baseline.txt bench/latest-gate.txt

# Refresh the committed baseline (run on a quiet machine, then commit
# bench/baseline.txt together with the change that moved the numbers).
bench-baseline:
	$(GO) test -run=NONE -bench='$(BENCH_GATE)' -benchmem -count=$(BENCH_COUNT) -benchtime=$(BENCH_TIME) $(BENCH_PKGS) | tee bench/baseline.txt

# Full paper-reproduction suite (several minutes; writes results/*.csv).
experiments:
	$(GO) run ./cmd/experiments -all -parallel 4 -csv results/

quick-experiments:
	$(GO) run ./cmd/experiments -all -quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/multimedia
	$(GO) run ./examples/agingstudy
	$(GO) run ./examples/darksilicon
	$(GO) run ./examples/failstop

fmt:
	gofmt -w .

clean:
	$(GO) clean ./...
