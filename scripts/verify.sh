#!/bin/sh
# Verification driver: build, vet and format checks, the test suite plain
# and under -race, the fuzz smokes, the benchmark module's build and smoke,
# the opt-in perf gates, and the two CLI round trips no Go test drives. Every byte-comparison between engines and
# worker counts is a row of TestReportGates (internal/harness/gates_test.go)
# and runs with the suite.
# Run from the repository root: ./scripts/verify.sh
set -eu

cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l ."
test -z "$(gofmt -l .)"

echo "== go test ./..."
go test ./...

echo "== go test -race ./..."
go test -race ./...

echo "== fuzz smokes (5s each)"
go test ./internal/policy -run '^$' -fuzz FuzzCNFNormalize -fuzztime 5s -race
go test ./internal/harness -run '^$' -fuzz FuzzVMEquivalence -fuzztime 5s
go test ./internal/interp -run '^$' -fuzz FuzzInterpNoPanicWithinFuel -fuzztime 5s -race
go test ./internal/dift -run '^$' -fuzz FuzzDataLabelsEquivalence -fuzztime 5s -race
go test ./internal/resolve -run '^$' -fuzz FuzzResolveEquivalence -fuzztime 5s -race
go test ./internal/parser -run '^$' -fuzz '^FuzzParse$' -fuzztime 5s -race
# FuzzPipeline and FuzzInstrumentEquivalence both check the deploy path's
# contract (owned tree, stamped tree = parsed print, same bytecode). Only
# FuzzPipeline runs here: FuzzInstrumentEquivalence finds, within seconds,
# a known transparency bug (compound assignment to an undeclared name).
go test ./internal/instrument -run '^$' -fuzz '^FuzzPipeline$' -fuzztime 5s

echo "== benchmark module: build, vet and smoke (catches signature changes bench/ calls)"
(cd bench && go vet ./... && go test ./...)

echo "== perf gates (disabled telemetry, slot env, VM; see BENCH_vm.json)"
TURNSTILE_BENCH_GATE=1 go test ./internal/dift -run TestDisabledOverheadGate -v
TURNSTILE_BENCH_GATE=1 go test ./internal/harness -run 'Test(SlotEnv|VM)FasterGate' -v

echo "== crash-recovery battery smoke (kill at 3 WAL boundaries, byte-identical resume)"
go run ./cmd/turnstile-bench -recovery -servetenants 2 -servemessages 8 -serveseed 23 \
  -recoverymax 3 > /tmp/turnstile-recovery.txt
grep -q "verdict: PASS" /tmp/turnstile-recovery.txt
grep -q "post_restart_sinks=0" /tmp/turnstile-recovery.txt
rm -f /tmp/turnstile-recovery.txt

echo "== durable serve round trip (FileStore: resume identical, dlq survives restart)"
STATE=$(mktemp -d /tmp/turnstile-state.XXXXXX)
go run ./cmd/turnstile serve -tenants 2 -messages 10 -seed 7 -hostile \
  -state "$STATE" > /tmp/turnstile-durable-a.txt
go run ./cmd/turnstile serve -state "$STATE" -resume \
  > /tmp/turnstile-durable-b.txt 2>/dev/null
cmp /tmp/turnstile-durable-a.txt /tmp/turnstile-durable-b.txt
go run ./cmd/turnstile dlq -state "$STATE" | grep "reason=shutdown" > /dev/null
go run ./cmd/turnstile dlq -state "$STATE" -replay | grep "re-driven" > /dev/null
go run ./cmd/turnstile dlq -state "$STATE" | grep "replayed=" > /dev/null
go run ./cmd/turnstile serve -state "$STATE" -resume \
  > /tmp/turnstile-durable-c.txt 2>/dev/null
cmp /tmp/turnstile-durable-a.txt /tmp/turnstile-durable-c.txt
rm -rf "$STATE" /tmp/turnstile-durable-a.txt /tmp/turnstile-durable-b.txt /tmp/turnstile-durable-c.txt

echo "verify: OK"
