# Development targets. `make check` is the pre-commit gate CI expects.

GO ?= go

.PHONY: check fmt vet build test test-race bench bench-smoke bench-regression bench-baseline bench-trend profile conformance fuzz-smoke chaos-smoke checkpoint-smoke serve-smoke docs-check policy-registry-check golden-update

check: ## gofmt -l + vet + build + race tests
	./check.sh

fmt: ## rewrite formatting in place
	gofmt -w .

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

bench: ## quick-mode experiment benchmarks
	$(GO) test -bench=. -benchmem -run=^$$ ./...

bench-smoke: ## one-iteration fleet-stepping benchmark (compile + run sanity; warehouse sizes are covered by bench-regression)
	$(GO) test -run=NONE -bench='FleetStep/nodes=(16|256|2048)$$/' -benchtime=1x ./internal/sim/

bench-regression: ## run the fixed suite and fail on regressions vs BENCH_baseline.json
	$(GO) run ./cmd/baatbench -bench-compare BENCH_baseline.json

bench-baseline: ## re-measure and overwrite BENCH_baseline.json (commit the result)
	$(GO) run ./cmd/baatbench -bench-json BENCH_baseline.json

bench-trend: ## append a suite run (with git SHA) to BENCH_history.jsonl
	./scripts/bench_trend.sh

profile: ## CPU+heap profile of the 65536-node serial fleet step (then: go tool pprof cpu.pprof)
	$(GO) test -run=NONE -bench='FleetStep/nodes=65536/workers=1$$' -benchtime=2x \
		-cpuprofile cpu.pprof -memprofile mem.pprof ./internal/sim/
	@echo "profile: go tool pprof -top cpu.pprof   # or -http=:8080 for the flame graph"

conformance: ## shared battery-model contract across all tiers + chemistry fuzz smoke
	$(GO) test -count=1 -run 'TestModelConformance' ./internal/battery/
	$(GO) test -run=NONE -fuzz=FuzzModelStep -fuzztime=5s ./internal/battery/

fuzz-smoke: ## short fuzz pass over the aging-metric tracker
	$(GO) test -run=NONE -fuzz=FuzzAgingMetrics -fuzztime=5s ./internal/aging/

chaos-smoke: ## faulted golden trace + degraded-mode scenarios
	$(GO) test -count=1 -run 'TestGoldenTraceFaulted$$|TestDegradedModeScenarios' ./internal/sim/

checkpoint-smoke: ## checkpoint a baatsim run mid-flight, resume it, diff the reports
	./scripts/checkpoint_smoke.sh

serve-smoke: ## start the baatsim serve daemon, fork a run over the API, diff the results
	./scripts/serve_smoke.sh

docs-check: ## every docs/*.md linked from README; intra-repo doc links resolve
	./scripts/docs_check.sh

policy-registry-check: ## no core.Kind enum or policy-name dispatch outside internal/core
	./scripts/policy_registry_check.sh

golden-update: ## regenerate the 30-day golden trace fixtures (clean + faulted)
	$(GO) test ./internal/sim/ -run 'TestGoldenTrace$$|TestGoldenTraceFaulted$$' -update
