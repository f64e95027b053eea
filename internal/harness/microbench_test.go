package harness

import (
	"os"
	"testing"
)

// TestVMMicrobenchRuns is the always-on smoke test of the interpreter
// microbenchmark: every workload must execute cleanly on the VM and on
// both tree-walking modes and produce sane numbers.
func TestVMMicrobenchRuns(t *testing.T) {
	rep, err := RunVMMicrobench(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != len(MicrobenchPrograms) {
		t.Fatalf("benchmarks = %d, want %d", len(rep.Benchmarks), len(MicrobenchPrograms))
	}
	for _, r := range rep.Benchmarks {
		if r.VMNs <= 0 || r.SlotNs <= 0 || r.MapNs <= 0 {
			t.Fatalf("%s: non-positive timing %+v", r.Name, r)
		}
	}
	if data, err := ExportVMMicrobenchJSON(rep); err != nil || len(data) == 0 {
		t.Fatalf("export: %v", err)
	}
}

// vmGateBar returns the per-workload acceptance bar for TestVMFasterGate:
// 2x on the identifier- and call-heavy programs (the tentpole acceptance
// criterion), 1.5x on property-heavy, whose time is dominated by props-map
// hashing shared with the walker.
func vmGateBar(name string) float64 {
	if name == "property-heavy" {
		return 1.5
	}
	return 2.0
}

// TestVMFasterGate is the verify.sh perf gate on the bytecode VM: it must
// beat the slot-env tree-walker by the per-workload bars above. Opt-in
// via TURNSTILE_BENCH_GATE=1, best-of-3 attempts, same rationale as
// TestSlotEnvFasterGate.
func TestVMFasterGate(t *testing.T) {
	if os.Getenv("TURNSTILE_BENCH_GATE") == "" {
		t.Skip("set TURNSTILE_BENCH_GATE=1 to run the VM perf gate")
	}
	var last *VMMicrobenchReport
	for attempt := 0; attempt < 3; attempt++ {
		rep, err := RunVMMicrobench(7)
		if err != nil {
			t.Fatal(err)
		}
		last = rep
		pass := true
		for _, r := range rep.Benchmarks {
			t.Logf("attempt %d: %-18s vm %dns slot %dns speedup %.2fx (bar %.2fx)",
				attempt, r.Name, r.VMNs, r.SlotNs, r.SpeedupVsSlot, vmGateBar(r.Name))
			if r.SpeedupVsSlot < vmGateBar(r.Name) {
				pass = false
			}
		}
		if pass {
			return
		}
	}
	for _, r := range last.Benchmarks {
		if r.SpeedupVsSlot < vmGateBar(r.Name) {
			t.Errorf("%s: VM only %.2fx faster than the slot-env walker (bar %.2fx)",
				r.Name, r.SpeedupVsSlot, vmGateBar(r.Name))
		}
	}
}

// TestSlotEnvFasterGate is the verify.sh perf gate on the resolver: the
// slot-indexed environment must beat the map walk on every workload, and
// by at least 1.5x on the identifier-heavy one (the acceptance bar).
// Opt-in via TURNSTILE_BENCH_GATE=1 — wall-clock comparisons do not
// belong in the default -race sweep. Best-of-3 attempts absorb scheduler
// noise; a persistent miss is a real regression.
func TestSlotEnvFasterGate(t *testing.T) {
	if os.Getenv("TURNSTILE_BENCH_GATE") == "" {
		t.Skip("set TURNSTILE_BENCH_GATE=1 to run the slot-env perf gate")
	}
	const identifierBar = 1.5
	speedup := func(r VMMicrobenchResult) float64 { return float64(r.MapNs) / float64(r.SlotNs) }
	var last *VMMicrobenchReport
	for attempt := 0; attempt < 3; attempt++ {
		rep, err := RunVMMicrobench(5)
		if err != nil {
			t.Fatal(err)
		}
		last = rep
		pass := true
		for _, r := range rep.Benchmarks {
			bar := 1.0
			if r.Name == "identifier-heavy" {
				bar = identifierBar
			}
			t.Logf("attempt %d: %-18s slot %dns map %dns speedup %.2fx (bar %.2fx)",
				attempt, r.Name, r.SlotNs, r.MapNs, speedup(r), bar)
			if speedup(r) < bar {
				pass = false
			}
		}
		if pass {
			return
		}
	}
	for _, r := range last.Benchmarks {
		bar := 1.0
		if r.Name == "identifier-heavy" {
			bar = identifierBar
		}
		if speedup(r) < bar {
			t.Errorf("%s: slot env only %.2fx faster than the map walk (bar %.2fx)",
				r.Name, speedup(r), bar)
		}
	}
}
