GO ?= go
FUZZTIME ?= 10s

.PHONY: all verify vet lint lint-fix-check race fuzz bench-smoke perfbench-test

all: verify vet lint

# Tier-1 gate: everything builds, every test passes.
verify:
	$(GO) build ./...
	$(GO) test ./...

# Source-level invariant gate: go vet, formatting, and the seven
# xmlsec-vet passes (viewbypass, privconst, obslabel, ctxflow, lockguard,
# cowdiscipline, snapshotimmut) under the committed baseline — see
# DESIGN.md S22 and S11 for the axiom and invariant mapping.
vet:
	$(GO) vet ./...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi
	$(GO) run ./cmd/xmlsec-vet -baseline vet-baseline.json

# Policy-level analysis: the static policy analyzer's self-check on the
# paper's 12-rule policy (must report zero findings and exit 0).
lint:
	$(GO) run ./cmd/xmlsec-lint -paper

# Repair-engine gate: generate seeded faulty corpora for every scenario
# shape, apply xmlsec-lint -fix -write, and fail if a re-lint still sees a
# finding. The faulty and repaired reports are left in lint-fix/ so CI can
# upload them as artifacts.
lint-fix-check:
	@rm -rf lint-fix && mkdir -p lint-fix
	@set -e; for shape in acl rbac rebac hospital; do \
		echo "lint-fix-check: $$shape"; \
		$(GO) run ./cmd/xmlsec-lint -scenario $$shape -rules 200 -faults 6 -seed 42 \
			-emit lint-fix/$$shape.snapshot -json > lint-fix/$$shape.faulty.json || true; \
		$(GO) run ./cmd/xmlsec-lint -json -fix -write lint-fix/$$shape.snapshot \
			> lint-fix/$$shape.repairs.json || { echo "$$shape: -fix -write failed"; exit 1; }; \
		$(GO) run ./cmd/xmlsec-lint lint-fix/$$shape.snapshot \
			|| { echo "$$shape: findings survived -fix -write"; exit 1; }; \
	done

# Concurrency gate: the full suite under the race detector, including the
# core concurrent-session stress test.
race:
	$(GO) test -race ./...

# The end-to-end benchmark's own tests. _perfbench is a separate module
# that imports the repository's packages, and ./... skips it (leading
# underscore), so this is what catches an API change that breaks the
# benchmark build.
perfbench-test:
	cd _perfbench && $(GO) test ./...

# Micro-benchmark smoke: run every testing.B benchmark in bench_test.go
# (B1–B9 and BenchmarkGuardedRead) once so none of them rots (go test ./...
# compiles them but never runs them).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Bounded fuzzing of the parser targets and the incremental-view
# differential target from their seed corpora.
fuzz:
	$(GO) test ./internal/xpath -fuzz FuzzCompile -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/xupdate -fuzz FuzzParseModifications -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/datalog -fuzz FuzzParse -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/view -fuzz FuzzIncrementalView -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/policyanalysis -fuzz FuzzRepair -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/rewrite -fuzz FuzzRewrite -fuzztime $(FUZZTIME) -run '^$$'
