# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test lint lint-fix-report lint-sarif bench experiments quick-experiments examples fmt clean

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

# One trajectory point: potbench's host-scaled runs of every workload
# (seeds 1-3) plus one traced run each, as bench/BENCH_<date>.json. To
# judge a change against its parent, run `bash bench/pairs.sh BASE`.
bench:
	bash bench/potbench/run.sh record -label "$$(git describe --always --dirty)" -sets a -n 3 -out bench/BENCH_$$(date +%Y%m%d).json

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
