package interp

import (
	"fmt"
	"strings"
	"testing"

	"turnstile/internal/parser"
	"turnstile/internal/policy"
	"turnstile/internal/resolve"
)

// The VM charges the step budget from a per-instruction table (Instr.CIdx
// and CN) that must replay the walker's node-entry order exactly. Near the
// ceiling the VM charges those positions one at a time, so running both
// engines at every budget from 1 to the program's own step count compares
// the whole charge sequence: the engines must stop at the same step with
// the same error, position included.

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
// (0: unlimited) and renders where it stopped.
func sweepRun(t *testing.T, engine Engine, tracker bool, src string, budget int64) (steps int64, outcome string) {
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
			total, full := sweepRun(t, EngineWalker, p.tracker, p.src, 0)
			if ok := p.err == "" && strings.HasPrefix(full, "err <nil>") || p.err != "" && strings.Contains(full, p.err); !ok {
				t.Fatalf("unbounded run: %s", full)
			}
			if _, vmFull := sweepRun(t, EngineVM, p.tracker, p.src, 0); vmFull != full {
				t.Fatalf("unbounded runs differ:\n  vm     %s\n  walker %s", vmFull, full)
			}
			for n := int64(1); n <= total+1; n++ {
				ws, wo := sweepRun(t, EngineWalker, p.tracker, p.src, n)
				vs, vo := sweepRun(t, EngineVM, p.tracker, p.src, n)
				if ws != vs || wo != vo {
					t.Fatalf("budget %d of %d:\n  vm     %d steps, %s\n  walker %d steps, %s", n, total, vs, vo, ws, wo)
				}
				if tripped := strings.Contains(wo, "step budget exceeded"); tripped != (n < total) || n >= total && wo != full {
					t.Fatalf("budget %d of %d: %s", n, total, wo)
				}
			}
		})
	}
}
