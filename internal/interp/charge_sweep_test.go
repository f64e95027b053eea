package interp

import (
	"fmt"
	"strings"
	"testing"

	"turnstile/internal/guard"
	"turnstile/internal/parser"
	"turnstile/internal/policy"
	"turnstile/internal/resolve"
)

// The VM charges the step budget from a per-instruction table (Instr.CIdx
// and CN) that must replay the walker's node-entry order exactly. Near the
// ceiling the VM charges those positions one at a time, so running both
// engines at every budget from 1 to the program's own step count compares
// the whole charge sequence: the engines must stop at the same step with
// the same error, position included. The same sweep runs again as a guard
// fuel budget, where the VM batches a pre-charge only when no step of it
// can trip (guard.Guard.StepN), and a deadline arm checks that batching
// never skips a clock read.

var chargeSweepPrograms = []struct {
	name    string
	tracker bool
	err     string // the error an unbounded run ends with, "" for none
	src     string
}{
	{"fused tau calls", true, "", `
var out = [];
function f(a, b) { return __t.binaryOp("+", a, b); }
var s = __t.label("sec", "Sec");
for (var i = 0; i < 3; i++) { out.push(f(s, i)); }
out.push(__t.member({ k: s }, "k"), __t.track(out.length));
__t.check(s, __t.label({}, "Pub"), "sweep");
console.log(out.length);
`},
	{"tau call without a tracker", false, `"__t" is not defined`, `
var x = [1, 2];
function g() { return x.length + 1; }
var y = g() + __t.check(x, g());
`},
	{"for let with continue and break", false, "", `
var acc = [];
for (let i = 0; i < 6; i++) {
  if (i === 1) continue;
  const f = () => i * 2;
  acc.push(f());
  if (i === 4) break;
}
console.log(acc.join(","));
`},
	{"try catch finally", false, "", `
var log = [];
function boom(n) { if (n > 1) throw new Error("boom " + n); return n; }
for (var i = 0; i < 3; i++) {
  try { log.push(boom(i)); } catch (e) { log.push(e.message); } finally { log.push("f" + i); }
}
console.log(log.join(","));
`},
	{"delegated switch calling closures", false, "", `
function make(k) { return function (x) { return x * k + 1; }; }
var inc = make(1), dbl = make(2);
var r = 0;
for (var i = 0; i < 4; i++) {
  switch (i % 3) {
    case 0: r = inc(r); break;
    case 1: r = dbl(r);
    default: r = r + 1;
  }
}
console.log(r);
`},
}

// sweepRun runs src on a fresh interpreter with the given step budget
// (0: unlimited), under a guard with lim when it is non-nil, and renders
// where it stopped.
func sweepRun(t *testing.T, engine Engine, tracker bool, src string, budget int64, lim *guard.Limits) (steps int64, outcome string) {
	t.Helper()
	ip := New()
	ip.Engine = engine
	if tracker {
		pol, err := policy.ParseJSON([]byte(flatPolicy), ip.CompileLabelFunc)
		if err != nil {
			t.Fatal(err)
		}
		ip.InstallTracker(pol)
	}
	if budget > 0 {
		ip.MaxSteps = budget
	}
	// installed after the tracker, whose policy's label functions run
	// when they are compiled
	if lim != nil {
		ip.SetGuard(guard.New(*lim))
	}
	prog, err := parser.Parse("sweep.js", src)
	if err != nil {
		t.Fatal(err)
	}
	resolve.Resolve(prog)
	base := ip.Steps()
	err = ip.Run(prog)
	return ip.Steps() - base, fmt.Sprintf("err %v console %q", err, ip.ConsoleOut)
}

func TestChargeOrderSweep(t *testing.T) {
	for _, p := range chargeSweepPrograms {
		t.Run(p.name, func(t *testing.T) {
			total, full := sweepRun(t, EngineWalker, p.tracker, p.src, 0, nil)
			if ok := p.err == "" && strings.HasPrefix(full, "err <nil>") || p.err != "" && strings.Contains(full, p.err); !ok {
				t.Fatalf("unbounded run: %s", full)
			}
			if _, vmFull := sweepRun(t, EngineVM, p.tracker, p.src, 0, nil); vmFull != full {
				t.Fatalf("unbounded runs differ:\n  vm     %s\n  walker %s", vmFull, full)
			}
			for n := int64(1); n <= total+1; n++ {
				ws, wo := sweepRun(t, EngineWalker, p.tracker, p.src, n, nil)
				vs, vo := sweepRun(t, EngineVM, p.tracker, p.src, n, nil)
				if ws != vs || wo != vo {
					t.Fatalf("budget %d of %d:\n  vm     %d steps, %s\n  walker %d steps, %s", n, total, vs, vo, ws, wo)
				}
				if tripped := strings.Contains(wo, "step budget exceeded"); tripped != (n < total) || n >= total && wo != full {
					t.Fatalf("budget %d of %d: %s", n, total, wo)
				}
				fuel := &guard.Limits{Fuel: n}
				ws, wo = sweepRun(t, EngineWalker, p.tracker, p.src, 0, fuel)
				vs, vo = sweepRun(t, EngineVM, p.tracker, p.src, 0, fuel)
				if ws != vs || wo != vo {
					t.Fatalf("fuel %d of %d:\n  vm     %d steps, %s\n  walker %d steps, %s", n, total, vs, vo, ws, wo)
				}
				if tripped := strings.Contains(wo, "guard: fuel budget exceeded at "); tripped != (n < total) || n >= total && wo != full {
					t.Fatalf("fuel %d of %d: %s", n, total, wo)
				}
			}
		})
	}
	// the guard reads the clock every deadline check interval of fuel: the
	// VM must read it at the same fuel as the walker, however it batches
	// its pre-charges, and trip at the same node. A deadline of 2 trips at
	// the fourth read; a distant one never trips.
	t.Run("deadline", func(t *testing.T) {
		for _, deadline := range []int64{2, 1 << 40} {
			wr, ws, wo := deadlineRun(t, EngineWalker, deadline)
			vr, vs, vo := deadlineRun(t, EngineVM, deadline)
			if fmt.Sprint(wr) != fmt.Sprint(vr) || ws != vs || wo != vo {
				t.Fatalf("deadline %d:\n  vm     reads at fuel %v, %d steps, %s\n  walker reads at fuel %v, %d steps, %s", deadline, vr, vs, vo, wr, ws, wo)
			}
			if tripped := strings.Contains(wo, "guard: deadline budget exceeded at "); tripped != (deadline == 2) || len(wr) < 4 {
				t.Fatalf("deadline %d: %d clock reads, %s", deadline, len(wr), wo)
			}
		}
	})
}

// deadlineSweepProgram runs for more than three deadline check intervals
// of steps, through multi-position pre-charges, calls and τ calls.
const deadlineSweepProgram = `
var out = [];
function mix(a, b) { return __t.binaryOp("+", a * 2 + b, (a - b) % 3); }
var s = __t.label(1, "Sec");
for (var i = 0; i < 60; i++) {
  var o = { k: i, v: [i, i + 1] };
  out.push(mix(o.k, o.v[1]) + s, i > 30 ? o.v[0] : -i);
}
console.log(out.length);
`

// deadlineRun runs deadlineSweepProgram under a virtual-clock deadline
// and records the fuel at each clock read.
func deadlineRun(t *testing.T, engine Engine, deadline int64) (reads []int64, steps int64, outcome string) {
	t.Helper()
	ip := New()
	ip.Engine = engine
	pol, err := policy.ParseJSON([]byte(flatPolicy), ip.CompileLabelFunc)
	if err != nil {
		t.Fatal(err)
	}
	ip.InstallTracker(pol)
	g := guard.New(guard.Limits{DeadlineTicks: deadline})
	ip.SetGuard(g)
	// after SetGuard, which installs the interpreter's own clock: each read
	// returns how many reads came before it
	g.SetClock(func() int64 {
		reads = append(reads, g.FuelUsed())
		return int64(len(reads) - 1)
	})
	prog, err := parser.Parse("deadline.js", deadlineSweepProgram)
	if err != nil {
		t.Fatal(err)
	}
	resolve.Resolve(prog)
	base := ip.Steps()
	err = ip.Run(prog)
	return reads, ip.Steps() - base, fmt.Sprintf("err %v console %q", err, ip.ConsoleOut)
}
