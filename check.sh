#!/bin/sh
# check.sh — the full pre-commit gate: formatting, vet, build, race tests.
# Usage: ./check.sh  (or: make check)
set -eu

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "unformatted files:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== docs check =="
./scripts/docs_check.sh

echo "== policy registry check =="
./scripts/policy_registry_check.sh

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== bench smoke =="
# Sub-warehouse sizes only: the 65536-node entry runs (gated) in the
# bench-regression step right below; repeating it here would double its
# ~30s cost for no extra coverage.
go test -run=NONE -bench='FleetStep/nodes=(16|256|2048)$/' -benchtime=1x ./internal/sim/

echo "== bench regression =="
go run ./cmd/baatbench -bench-compare BENCH_baseline.json

echo "== model conformance =="
# The shared battery-model contract (internal/battery/modeltest) across all
# three tiers, plus a short fuzz pass over every chemistry's step path.
go test -count=1 -run 'TestModelConformance' ./internal/battery/
go test -run=NONE -fuzz=FuzzModelStep -fuzztime=5s ./internal/battery/

echo "== fuzz smoke =="
go test -run=NONE -fuzz=FuzzAgingMetrics -fuzztime=5s ./internal/aging/

echo "== chaos smoke =="
go test -count=1 -run 'TestGoldenTraceFaulted$|TestDegradedModeScenarios' ./internal/sim/

echo "== checkpoint smoke =="
./scripts/checkpoint_smoke.sh

echo "== serve smoke =="
./scripts/serve_smoke.sh

echo "OK"
