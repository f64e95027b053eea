package interp

import (
	"strings"
	"testing"

	"turnstile/internal/parser"
	"turnstile/internal/policy"
	"turnstile/internal/resolve"
)

// Regression tests for the sloppy-mode and block-scoping sweep that landed
// with the resolver: implicit-global creation unified across assignment
// forms, per-iteration let/const loop bindings, and const enforcement on
// loop variables and through shadowing. Every test runs on both execution
// modes — the resolved slot path and the NoResolve map walk — since the
// two must agree observably.

// bothModes runs the test body once per execution mode.
func bothModes(t *testing.T, f func(t *testing.T, noResolve bool)) {
	t.Run("slots", func(t *testing.T) { f(t, false) })
	t.Run("noresolve", func(t *testing.T) { f(t, true) })
}

// runMode executes src in a fresh interpreter under one execution mode and
// returns the interpreter and the run error.
func runMode(t *testing.T, src string, noResolve bool) (*Interp, error) {
	t.Helper()
	prog, err := parser.Parse("scope.js", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !noResolve {
		resolve.Resolve(prog)
	}
	ip := New()
	ip.NoResolve = noResolve
	return ip, ip.Run(prog)
}

func wantModeLogs(t *testing.T, src string, noResolve bool, want ...string) {
	t.Helper()
	ip, err := runMode(t, src, noResolve)
	if err != nil {
		t.Fatalf("run: %v\nsource:\n%s", err, src)
	}
	got := ip.ConsoleOut
	if len(got) != len(want) {
		t.Fatalf("log lines = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// wantModeError asserts the run fails and the error mentions substr.
func wantModeError(t *testing.T, src string, noResolve bool, substr string) {
	t.Helper()
	_, err := runMode(t, src, noResolve)
	if err == nil {
		t.Fatalf("run succeeded, want error containing %q\nsource:\n%s", substr, src)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("err = %v, want substring %q", err, substr)
	}
}

// Sloppy-mode implicit globals: every assignment form targeting an
// undeclared name creates the global, including compound assignment,
// update expressions, and non-declared for-in/of loop variables (the
// latter used to error out).
func TestImplicitGlobalUnifiedAcrossAssignmentForms(t *testing.T) {
	bothModes(t, func(t *testing.T, noResolve bool) {
		wantModeLogs(t, `
plain = 1;
compound += 2;
update++;
for (k in { a: 1 }) { }
for (v of [1, 2, 3]) { }
function f() { inner = 7; }
f();
console.log(plain, compound, update, k, v, inner);
`, noResolve, "1 NaN NaN a 3 7")
	})
}

// An implicit global created inside a function is visible at top level and
// from sibling calls — it lands on the global env, not the caller's.
func TestImplicitGlobalLandsOnGlobalEnv(t *testing.T) {
	bothModes(t, func(t *testing.T, noResolve bool) {
		wantModeLogs(t, `
function set() { shared = "s1"; }
function get() { return shared; }
set();
console.log(get(), shared);
`, noResolve, "s1 s1")
	})
}

// A for-of loop variable declared with let in an enclosing scope is
// assigned, not shadowed, by a bare-name loop head.
func TestForOfAssignsOuterDeclaredVariable(t *testing.T) {
	bothModes(t, func(t *testing.T, noResolve bool) {
		wantModeLogs(t, `
let x = "init";
function f() { for (x of [10, 20]) { } }
f();
console.log(x);
`, noResolve, "20")
	})
}

// Per-iteration let bindings: closures created in different iterations of
// a for-let loop capture distinct bindings.
func TestForLetPerIterationBinding(t *testing.T) {
	bothModes(t, func(t *testing.T, noResolve bool) {
		wantModeLogs(t, `
var fns = [];
for (let i = 0; i < 3; i = i + 1) {
  fns.push(function () { return i; });
}
var f0 = fns[0], f1 = fns[1], f2 = fns[2];
console.log(f0(), f1(), f2());
`, noResolve, "0 1 2")
	})
}

// Writes through a captured binding stay confined to that iteration's
// copy: mutating iteration 0's binding never shows through iteration 1's.
func TestForLetCapturedBindingIsolation(t *testing.T) {
	bothModes(t, func(t *testing.T, noResolve bool) {
		wantModeLogs(t, `
var fns = [];
for (let i = 0; i < 2; i = i + 1) {
  fns.push(function () { i = i + 10; return i; });
}
var f0 = fns[0], f1 = fns[1];
console.log(f0(), f0(), f1());
`, noResolve, "10 20 11")
	})
}

// for (const x of ...) declares a fresh per-iteration const binding.
func TestForOfConstPerIteration(t *testing.T) {
	bothModes(t, func(t *testing.T, noResolve bool) {
		wantModeLogs(t, `
var fns = [];
for (const m of ["a", "b", "c"]) {
  fns.push(function () { return m; });
}
var f0 = fns[0], f1 = fns[1], f2 = fns[2];
console.log(f0(), f1(), f2());
`, noResolve, "a b c")
	})
}

// Assigning to a const loop variable is an error, for both for-of and
// for-in heads (the DeclKind used to be ignored here).
func TestForOfConstAssignmentBlocked(t *testing.T) {
	bothModes(t, func(t *testing.T, noResolve bool) {
		wantModeError(t, `for (const x of [1, 2]) { x = 9; }`,
			noResolve, `assignment to constant variable "x"`)
		wantModeError(t, `for (const k in { a: 1 }) { k = "z"; }`,
			noResolve, `assignment to constant variable "k"`)
	})
}

// let loop variables in for-of/for-in heads stay writable.
func TestForOfLetAssignmentAllowed(t *testing.T) {
	bothModes(t, func(t *testing.T, noResolve bool) {
		wantModeLogs(t, `
let out = "";
for (let x of [1, 2]) { x = x * 10; out = out + x + ";"; }
console.log(out);
`, noResolve, "10;20;")
	})
}

// Shadowing: an inner let over an outer const is freely writable, and the
// outer const stays intact.
func TestShadowedConstInnerLetWritable(t *testing.T) {
	bothModes(t, func(t *testing.T, noResolve bool) {
		wantModeLogs(t, `
const c = 1;
{
  let c = 2;
  c = 3;
  console.log(c);
}
console.log(c);
`, noResolve, "3", "1")
	})
}

// Writing to an outer const from a nested block or function is an error —
// the const flag must survive the slot-path scope walk.
func TestOuterConstNotWritableThroughNesting(t *testing.T) {
	bothModes(t, func(t *testing.T, noResolve bool) {
		wantModeError(t, `const k = 1; { k = 2; }`,
			noResolve, `assignment to constant variable "k"`)
		wantModeError(t, `const g = 1; function f() { g = 2; } f();`,
			noResolve, `assignment to constant variable "g"`)
	})
}

// Reading a genuinely undefined name is still an error under both modes.
func TestUndefinedReadStillErrors(t *testing.T) {
	bothModes(t, func(t *testing.T, noResolve bool) {
		wantModeError(t, `console.log(nowhere);`, noResolve, `"nowhere" is not defined`)
	})
}

// labelLeakPolicy marks anything passed to __t.label("Mark") as Beta; the
// only rule allows Alpha → Beta, so Beta data flowing into an
// Alpha-labelled sink is comparable but not permitted — a violation.
const labelLeakPolicy = `{
  "labellers": { "Mark": "v => \"Beta\"" },
  "rules": [ "Alpha -> Beta" ]
}`

// Labels must not leak across loop iterations: with per-iteration
// bindings, only the closure that captured the labelled element trips the
// sink check. (Before the per-iteration fix all closures shared one
// binding holding the final — unlabelled — element, which masked the
// labelled flow entirely.)
func TestTrackerLabelsDoNotLeakAcrossIterations(t *testing.T) {
	bothModes(t, func(t *testing.T, noResolve bool) {
		prog, err := parser.Parse("leak.js", `
const sink = { send: function (x) { return x; } };
const items = ["a", __t.label({ v: "b" }, "Mark"), "c"];
const fns = [];
for (const m of items) {
  fns.push(function () { __t.invoke(sink, "send", [m]); });
}
`)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if !noResolve {
			resolve.Resolve(prog)
		}
		ip := New()
		ip.NoResolve = noResolve
		pol := loadPolicy(t, ip, labelLeakPolicy)
		tr := ip.InstallTracker(pol)
		tr.Enforce = false // audit: record, don't block
		if err := ip.Run(prog); err != nil {
			t.Fatalf("run: %v", err)
		}
		sinkV, ok := ip.Globals.Lookup("sink")
		if !ok {
			t.Fatal("sink not defined")
		}
		ip.Tracker.Attach(sinkV.(*Object), policy.NewLabelSet("Alpha"))

		// re-run the three captured closures against the labelled sink
		fnsV, _ := ip.Globals.Lookup("fns")
		arr := fnsV.(*Array)
		if len(arr.Elems) != 3 {
			t.Fatalf("captured %d closures, want 3", len(arr.Elems))
		}
		for i, el := range arr.Elems {
			if _, err := ip.CallFunction(el, Undefined{}, nil, prog.Body[0].Pos()); err != nil {
				t.Fatalf("closure %d: %v", i, err)
			}
		}
		if n := len(ip.Tracker.Violations()); n != 1 {
			t.Fatalf("violations = %d, want exactly 1 (the labelled iteration)", n)
		}
	})
}
