#!/bin/sh
# Tier-1 verification gate: build, vet, tests, race-enabled tests.
# Run from the repository root: ./scripts/verify.sh
set -eu

cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go test ./..."
go test ./...

echo "== go test -race ./..."
go test -race ./...

echo "== chaos smoke (fixed seed, corpus slice)"
go run ./cmd/turnstile-bench -chaos -faultseed 7 -messages 20 \
  -apps modbus,sensor-logger,thermostat-hub > /tmp/turnstile-chaos-a.txt
go run ./cmd/turnstile-bench -chaos -faultseed 7 -messages 20 \
  -apps modbus,sensor-logger,thermostat-hub -parallel 1 > /tmp/turnstile-chaos-b.txt
cmp /tmp/turnstile-chaos-a.txt /tmp/turnstile-chaos-b.txt
rm -f /tmp/turnstile-chaos-a.txt /tmp/turnstile-chaos-b.txt

echo "== metrics determinism (overhead breakdown, differing -parallel)"
go run ./cmd/turnstile-bench -metrics -messages 20 \
  -apps modbus,sensor-logger,thermostat-hub > /tmp/turnstile-metrics-a.txt
go run ./cmd/turnstile-bench -metrics -messages 20 \
  -apps modbus,sensor-logger,thermostat-hub -parallel 1 > /tmp/turnstile-metrics-b.txt
cmp /tmp/turnstile-metrics-a.txt /tmp/turnstile-metrics-b.txt
rm -f /tmp/turnstile-metrics-a.txt /tmp/turnstile-metrics-b.txt

echo "== crash-corpus gate (typed termination, differing -parallel)"
go run ./cmd/turnstile-bench -crash > /tmp/turnstile-crash-a.txt
go run ./cmd/turnstile-bench -crash -parallel 1 > /tmp/turnstile-crash-b.txt
cmp /tmp/turnstile-crash-a.txt /tmp/turnstile-crash-b.txt
rm -f /tmp/turnstile-crash-a.txt /tmp/turnstile-crash-b.txt

echo "== attack-corpus gate (zero missed must-catch flows, differing -parallel)"
go run ./cmd/turnstile-bench -attack > /tmp/turnstile-attack-a.txt
go run ./cmd/turnstile-bench -attack -parallel 1 > /tmp/turnstile-attack-b.txt
cmp /tmp/turnstile-attack-a.txt /tmp/turnstile-attack-b.txt
grep -q "precision 1.000  recall 1.000" /tmp/turnstile-attack-a.txt
rm -f /tmp/turnstile-attack-a.txt /tmp/turnstile-attack-b.txt

echo "== resolver differential: attack corpus, slot env vs -noresolve map walk"
go run ./cmd/turnstile-bench -attack > /tmp/turnstile-resattack-a.txt
go run ./cmd/turnstile-bench -attack -noresolve > /tmp/turnstile-resattack-b.txt
cmp /tmp/turnstile-resattack-a.txt /tmp/turnstile-resattack-b.txt
rm -f /tmp/turnstile-resattack-a.txt /tmp/turnstile-resattack-b.txt

echo "== CNF fuzz smoke (normalize/join/exchange laws)"
go test ./internal/policy -run '^$' -fuzz FuzzCNFNormalize -fuzztime 5s -race

echo "== resolver differential: chaos report, slot env vs -noresolve map walk"
go run ./cmd/turnstile-bench -chaos -faultseed 7 -messages 20 \
  -apps modbus,sensor-logger,thermostat-hub > /tmp/turnstile-resolve-a.txt
go run ./cmd/turnstile-bench -chaos -faultseed 7 -messages 20 \
  -apps modbus,sensor-logger,thermostat-hub -noresolve > /tmp/turnstile-resolve-b.txt
cmp /tmp/turnstile-resolve-a.txt /tmp/turnstile-resolve-b.txt
rm -f /tmp/turnstile-resolve-a.txt /tmp/turnstile-resolve-b.txt

echo "== resolver differential: crash corpus (fail-closed), slot env vs -noresolve"
go run ./cmd/turnstile-bench -crash > /tmp/turnstile-rescrash-a.txt
go run ./cmd/turnstile-bench -crash -noresolve > /tmp/turnstile-rescrash-b.txt
cmp /tmp/turnstile-rescrash-a.txt /tmp/turnstile-rescrash-b.txt
rm -f /tmp/turnstile-rescrash-a.txt /tmp/turnstile-rescrash-b.txt

echo "== VM differential: chaos report, bytecode VM vs -novm tree walk"
go run ./cmd/turnstile-bench -chaos -faultseed 7 -messages 20 \
  -apps modbus,sensor-logger,thermostat-hub > /tmp/turnstile-vmchaos-a.txt
go run ./cmd/turnstile-bench -chaos -faultseed 7 -messages 20 \
  -apps modbus,sensor-logger,thermostat-hub -novm > /tmp/turnstile-vmchaos-b.txt
cmp /tmp/turnstile-vmchaos-a.txt /tmp/turnstile-vmchaos-b.txt
rm -f /tmp/turnstile-vmchaos-a.txt /tmp/turnstile-vmchaos-b.txt

echo "== VM differential: attack corpus, bytecode VM vs -novm tree walk"
go run ./cmd/turnstile-bench -attack > /tmp/turnstile-vmattack-a.txt
go run ./cmd/turnstile-bench -attack -novm > /tmp/turnstile-vmattack-b.txt
cmp /tmp/turnstile-vmattack-a.txt /tmp/turnstile-vmattack-b.txt
rm -f /tmp/turnstile-vmattack-a.txt /tmp/turnstile-vmattack-b.txt

echo "== VM differential: crash corpus (fail-closed), bytecode VM vs -novm"
go run ./cmd/turnstile-bench -crash > /tmp/turnstile-vmcrash-a.txt
go run ./cmd/turnstile-bench -crash -novm > /tmp/turnstile-vmcrash-b.txt
cmp /tmp/turnstile-vmcrash-a.txt /tmp/turnstile-vmcrash-b.txt
rm -f /tmp/turnstile-vmcrash-a.txt /tmp/turnstile-vmcrash-b.txt

echo "== VM differential: generated corpus, bytecode VM vs -novm, differing -parallel"
go run ./cmd/turnstile-bench -gen 56 -genseed 3 -parallel 8 > /tmp/turnstile-vmgen-a.txt
go run ./cmd/turnstile-bench -gen 56 -genseed 3 -parallel 1 -novm > /tmp/turnstile-vmgen-b.txt
cmp /tmp/turnstile-vmgen-a.txt /tmp/turnstile-vmgen-b.txt
rm -f /tmp/turnstile-vmgen-a.txt /tmp/turnstile-vmgen-b.txt

echo "== VM corpus battery (full-corpus differential, shared cache, chaos, attack)"
go test ./internal/harness -run 'TestVM(DifferentialFullCorpus|ChaosEquivalence|AttackEquivalence)'

echo "== VM shared-cache mode keying (-race; both engines through one cache)"
go test -race ./internal/harness -run TestVMSharedCacheBothModes

echo "== VM metamorphic battery (vm=walker, crash-order agreement, all strata)"
go test ./internal/harness -run 'TestGenMetamorphicVM'

echo "== VM equivalence fuzz smoke (vm = tree walker on generated apps)"
go test ./internal/harness -run '^$' -fuzz FuzzVMEquivalence -fuzztime 5s

echo "== interp fuzz smoke (no panic within fuel, -race)"
go test ./internal/interp -run '^$' -fuzz FuzzInterpNoPanicWithinFuel -fuzztime 5s -race

echo "== label collector fuzz smoke (collector = recursive-walk oracle, -race)"
go test ./internal/dift -run '^$' -fuzz FuzzDataLabelsEquivalence -fuzztime 5s -race

echo "== resolver equivalence fuzz smoke (slot env = map env)"
go test ./internal/resolve -run '^$' -fuzz FuzzResolveEquivalence -fuzztime 5s -race

echo "== telemetry-disabled overhead gate (BenchmarkDIFTOps)"
TURNSTILE_BENCH_GATE=1 go test ./internal/dift -run TestDisabledOverheadGate -v

echo "== slot-env perf gate (interpreter microbenchmarks)"
TURNSTILE_BENCH_GATE=1 go test ./internal/harness -run TestSlotEnvFasterGate -v

echo "== VM perf gate (bytecode VM vs slot-env walker; see BENCH_vm.json)"
TURNSTILE_BENCH_GATE=1 go test ./internal/harness -run TestVMFasterGate -v

echo "== serve soak smoke (2 tenants + hostile neighbour, fixed seed, differing -parallel)"
go run ./cmd/turnstile-bench -serve -servetenants 2 -servemessages 30 -serveseed 7 \
  -parallel 4 > /tmp/turnstile-serve-a.txt
go run ./cmd/turnstile-bench -serve -servetenants 2 -servemessages 30 -serveseed 7 \
  -parallel 1 > /tmp/turnstile-serve-b.txt
cmp /tmp/turnstile-serve-a.txt /tmp/turnstile-serve-b.txt
rm -f /tmp/turnstile-serve-a.txt /tmp/turnstile-serve-b.txt

echo "== serve isolation battery (hostile tenant cannot perturb neighbours)"
go test ./internal/harness -run TestServeIsolationBattery -v

echo "== generated-corpus gate (zero missed flows, differing -parallel, -noresolve)"
go run ./cmd/turnstile-bench -gen 56 -genseed 3 -parallel 8 > /tmp/turnstile-gen-a.txt
go run ./cmd/turnstile-bench -gen 56 -genseed 3 -parallel 1 > /tmp/turnstile-gen-b.txt
go run ./cmd/turnstile-bench -gen 56 -genseed 3 -noresolve > /tmp/turnstile-gen-c.txt
cmp /tmp/turnstile-gen-a.txt /tmp/turnstile-gen-b.txt
cmp /tmp/turnstile-gen-a.txt /tmp/turnstile-gen-c.txt
grep -q "must-catch flows: .* 0 missed; false positives: 0" /tmp/turnstile-gen-a.txt
grep -q "precision 1.000  recall 1.000" /tmp/turnstile-gen-a.txt
rm -f /tmp/turnstile-gen-a.txt /tmp/turnstile-gen-b.txt /tmp/turnstile-gen-c.txt

echo "== generated-corpus metamorphic battery (slot=map, flat=mirror, chaos, crash)"
go test ./internal/harness -run TestGenMetamorphic

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
