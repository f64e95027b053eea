package harness

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"turnstile/internal/ast"
	"turnstile/internal/interp"
	"turnstile/internal/parser"
	"turnstile/internal/resolve"
)

// Interpreter microbenchmarks comparing the bytecode VM, the slot-indexed
// environment tree-walker and the map walk the resolver replaced (an
// unresolved program on an interpreter with NoResolve set). Each workload
// is one MiniJS program stressing a single interpreter dimension, so any
// delta is attributable to the environment representation, the inline
// caches and the dispatch strategy alone.

// MicrobenchPrograms are the three workloads of the bench gate. The inner
// iteration counts are sized so one run takes a few milliseconds on the
// slot path — long enough to swamp interpreter start-up, short enough to
// repeat for a best-of measurement.
var MicrobenchPrograms = []struct {
	Name   string
	Source string
}{
	{
		// locals read/written in a tight loop: the resolver turns every
		// access into a (depth, slot) pair, so this is the pure env-lookup
		// benchmark behind the slot-speedup acceptance gate
		Name: "identifier-heavy",
		Source: `
function spin(n) {
  let a = 1, b = 2, c = 3, d = 4;
  let s = 0;
  for (let i = 0; i < n; i = i + 1) {
    s = s + a + b - c + d + i;
    a = b;
    b = c;
    c = d;
    d = (s % 7) + 1;
  }
  return s;
}
var out = 0;
for (let r = 0; r < 40; r = r + 1) {
  out = out + spin(400);
}
`,
	},
	{
		// function- and method-call dominated: exercises the per-call env
		// construction (this/arguments/param slots) and the call-site
		// method inline cache
		Name: "call-heavy",
		Source: `
function add(a, b) { return a + b; }
function mul(a, b) { return a * b; }
var counter = {
  n: 0,
  step: function (d) { this.n = this.n + d; return this.n; }
};
function work(n) {
  let s = 0;
  for (let i = 0; i < n; i = i + 1) {
    s = add(s, mul(i, 3));
    s = add(s, counter.step(1));
  }
  return s;
}
var out = 0;
for (let r = 0; r < 30; r = r + 1) {
  out = out + work(300);
}
`,
	},
	{
		// property read/write dominated: exercises the member-read inline
		// cache (own properties, stable receiver) and its write
		// invalidation path
		Name: "property-heavy",
		Source: `
var obj = { x: 1, y: 2, z: 3, total: 0 };
function work(n) {
  let s = 0;
  for (let i = 0; i < n; i = i + 1) {
    s = s + obj.x + obj.y + obj.z;
    obj.total = s;
    obj.x = (obj.x % 5) + 1;
  }
  return s;
}
var out = 0;
for (let r = 0; r < 30; r = r + 1) {
  out = out + work(400);
}
`,
	},
}

// VMMicrobenchResult is one workload's measurement across the three
// execution modes: bytecode VM, slot-env tree-walker and map-walk
// tree-walker. Times are best-of-repeats wall times for one full program
// run.
type VMMicrobenchResult struct {
	Name   string `json:"name"`
	VMNs   int64  `json:"vm_ns"`
	SlotNs int64  `json:"slot_ns"`
	MapNs  int64  `json:"map_ns"`
	// SpeedupVsSlot is SlotNs / VMNs — the acceptance metric of the VM
	// perf gate (>1 means the VM beats the slot-env tree-walker). The
	// resolver's gate reads MapNs / SlotNs.
	SpeedupVsSlot float64 `json:"speedup_vs_slot"`
	SpeedupVsMap  float64 `json:"speedup_vs_map"`
}

// VMMicrobenchReport aggregates a VM bench run into the committed
// BENCH_vm.json shape.
type VMMicrobenchReport struct {
	Tool       string               `json:"tool"`
	Repeats    int                  `json:"repeats"`
	Benchmarks []VMMicrobenchResult `json:"benchmarks"`
}

// RunVMMicrobench measures every workload on the bytecode VM and both
// tree-walking modes, best-of-repeats per mode. Each repeat runs the three
// modes back to back, so a slow stretch of the host lands on all of them
// rather than on whichever mode it coincided with.
func RunVMMicrobench(repeats int) (*VMMicrobenchReport, error) {
	if repeats <= 0 {
		repeats = 5
	}
	rep := &VMMicrobenchReport{Tool: "turnstile-bench -benchvm", Repeats: repeats}
	for _, p := range MicrobenchPrograms {
		resolved, err := parser.Parse(p.Name+".js", p.Source)
		if err != nil {
			return nil, fmt.Errorf("harness: microbench %s: %w", p.Name, err)
		}
		// the map walk runs a tree the resolver has not annotated
		unresolved := parser.MustParse(p.Name+".js", p.Source)
		resolve.Resolve(resolved)
		r := VMMicrobenchResult{Name: p.Name}
		for i := 0; i < repeats; i++ {
			for _, m := range []struct {
				engine    interp.Engine
				noResolve bool
				prog      *ast.Program
				best      *int64
			}{
				{interp.EngineVM, false, resolved, &r.VMNs},
				{interp.EngineWalker, false, resolved, &r.SlotNs},
				{interp.EngineWalker, true, unresolved, &r.MapNs},
			} {
				d, err := runOnce(m.prog, m.engine, m.noResolve)
				if err != nil {
					return nil, fmt.Errorf("harness: microbench %s (%v, noresolve=%v): %w", p.Name, m.engine, m.noResolve, err)
				}
				if ns := d.Nanoseconds(); i == 0 || ns < *m.best {
					*m.best = ns
				}
			}
		}
		if r.VMNs > 0 {
			r.SpeedupVsSlot = float64(r.SlotNs) / float64(r.VMNs)
			r.SpeedupVsMap = float64(r.MapNs) / float64(r.VMNs)
		}
		rep.Benchmarks = append(rep.Benchmarks, r)
	}
	return rep, nil
}

// runOnce times one full run of prog on a fresh interpreter. The AST is
// shared across repeats — exactly how the pipeline cache shares
// programs — so parse cost is excluded; each fresh VM interpreter
// compiles the program again, so compile cost is in every VM sample,
// biasing against the VM.
func runOnce(prog *ast.Program, engine interp.Engine, noResolve bool) (time.Duration, error) {
	ip := interp.New()
	ip.Engine = engine
	ip.NoResolve = noResolve
	start := time.Now()
	err := ip.Run(prog)
	return time.Since(start), err
}

// ExportVMMicrobenchJSON renders the VM report as the committed
// BENCH_vm.json artifact (indented, trailing newline).
func ExportVMMicrobenchJSON(rep *VMMicrobenchReport) ([]byte, error) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// RenderVMMicrobench formats the VM bench table for the CLI. Wall times
// vary run to run, so unlike the experiment reports this output is NOT
// byte-deterministic.
func RenderVMMicrobench(rep *VMMicrobenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Interpreter microbenchmarks: bytecode VM vs tree-walkers (best of %d)\n", rep.Repeats)
	fmt.Fprintf(&b, "%-18s %12s %12s %12s %9s %9s\n", "workload", "vm", "slot", "map-walk", "vs slot", "vs map")
	for _, r := range rep.Benchmarks {
		fmt.Fprintf(&b, "%-18s %12v %12v %12v %8.2fx %8.2fx\n",
			r.Name, time.Duration(r.VMNs).Round(time.Microsecond),
			time.Duration(r.SlotNs).Round(time.Microsecond),
			time.Duration(r.MapNs).Round(time.Microsecond),
			r.SpeedupVsSlot, r.SpeedupVsMap)
	}
	return b.String()
}
