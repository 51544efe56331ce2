#!/usr/bin/env sh
# check.sh — the full verification gate, a superset of the tier-1
# build+test check. Run from anywhere inside the repo; fails fast on
# the first broken stage.
#
#   1. go build ./...            every package compiles
#   1b. gofmt -l                 fails when any .go file outside the
#                                hidden build/output dirs is unformatted
#   2. go vet ./...              stock vet suite
#   3. go run ./cmd/coheralint   project-specific analyzers (see
#      ./...                     internal/analysis/doc.go), with
#                                per-analyzer wall times on stderr
#   3b. coheralint self-lint     the analysis framework and the linter
#                                CLI are explicitly held to their own
#                                rules (the ./... run covers them too,
#                                but this stage keeps them covered even
#                                if the main run is ever narrowed)
#   4. go run ./cmd/coherasmoke  daemon smoke: in-process coherad
#                                handler, /healthz 200, /metrics parses
#   5. go run ./cmd/coherachaos  seeded fault-injection harness: the
#      -smoke                    resilience invariants hold end to end,
#                                including the anti-entropy convergence
#                                stage (replica digests equal + journal
#                                empty after a seeded flap workload)
#   5b. go run ./cmd/coherachaos kill-and-restart: a durable federation
#      -crash                    child is SIGKILLed mid-workload and
#                                recovered from its WALs — digests
#                                identical, journal drained, no
#                                acknowledged write lost or doubled
#   5c. go run ./cmd/coherachaos overload SLO gate: open-loop load at
#      -overload                 4x measured capacity against the
#                                admission gate — typed sheds only,
#                                admitted p99 in SLO, no tenant
#                                starved, shed-free recovery
#   6. go test -race ./...       full tests under the race detector
#   6b. perfbench vet + tests    the benchmark harness is its own module
#                                (outside ./...), compiled against the
#                                engine's API: go vet checks it, and its
#                                quantile, oracle and write-model tests
#                                run here
#   7. go test -fuzz ... 10s     fuzz smoke: parser, stream decoder
#                                (NDJSON and binary frames), binary row
#                                codec, WAL replay, the pushdown split
#                                oracle, and the Bind-vs-Eval oracle
#                                each survive a short run
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> gofmt -l"
unformatted=$(find . -path './.*' -prune -o -name '*.go' -print | xargs gofmt -l)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> coheralint ./..."
go run ./cmd/coheralint -timings ./...

echo "==> coheralint self-lint (internal/analysis, cmd/coheralint)"
go run ./cmd/coheralint ./internal/analysis ./cmd/coheralint

echo "==> coherasmoke"
go run ./cmd/coherasmoke

echo "==> coherachaos -smoke"
go run ./cmd/coherachaos -smoke

echo "==> coherachaos -crash (kill -9 + restart recovery)"
go run ./cmd/coherachaos -crash -seed 42

echo "==> coherachaos -overload (open-loop admission SLO gate)"
go run ./cmd/coherachaos -overload -seed 42

echo "==> go test -race ./..."
go test -race ./...

echo "==> perfbench vet and unit tests"
(cd perfbench && go vet . && go test .)

echo "==> fuzz smoke (10s per target)"
go test -fuzz 'FuzzParse$' -fuzztime 10s ./internal/sqlparse/
go test -fuzz FuzzParseExpr -fuzztime 10s ./internal/sqlparse/
go test -fuzz FuzzDecodeStream -fuzztime 10s ./internal/remote/
go test -fuzz FuzzRowCodec -fuzztime 10s ./internal/value/
go test -fuzz FuzzWALReplay -fuzztime 10s ./internal/wal/
go test -fuzz FuzzPushdownSplit -fuzztime 10s ./internal/plan/
go test -fuzz FuzzBind -fuzztime 10s ./internal/plan/

echo "check: all gates passed"
