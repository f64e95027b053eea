package interp

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"turnstile/internal/ast"
	"turnstile/internal/dift"
	"turnstile/internal/guard"
	"turnstile/internal/parser"
	"turnstile/internal/policy"
	"turnstile/internal/resolve"
	"turnstile/internal/telemetry"
	"turnstile/internal/vm"
)

// A tracker call `__t.<method>(…)` (vm.TrackerOp) goes by op code straight
// to the installed τ function on both engines; on the VM the function reads
// its arguments in place, through a window onto the caller's argument
// registers. These tests pin that the VM's fused sites are observationally
// the walker's calls: same values, labels, violations and step charges for
// every τ method, no way for MiniJS code to see the in-place window, no
// allocation for the window itself, and no way for it to reach τ through a
// binding.

const fusedPolicy = `{
  "labellers": { "Sec": "v => \"secret\"", "Pub": "v => \"public\"" },
  "rules": [ "public -> secret" ],
  "declassifiers": [ { "name": "release", "removes": "secret" } ],
  "endorsements": [ { "name": "audit", "adds": "Audited" } ]
}`

// fusedInterp builds an interpreter with an auditing, implicit-flow
// tracker over fusedPolicy.
func fusedInterp(t *testing.T, engine Engine) *Interp {
	t.Helper()
	ip := New()
	ip.Engine = engine
	pol, err := policy.ParseJSON([]byte(fusedPolicy), ip.CompileLabelFunc)
	if err != nil {
		t.Fatal(err)
	}
	ip.InstallTracker(pol).EnableImplicit()
	return ip
}

func runResolved(t *testing.T, ip *Interp, src string) {
	t.Helper()
	prog, err := parser.Parse("fused.js", src)
	if err != nil {
		t.Fatal(err)
	}
	resolve.Resolve(prog)
	if err := ip.Run(prog); err != nil {
		t.Fatal(err)
	}
}

// everyTauMethod calls each built-in τ method at least once, recording
// the results in the global array out.
const everyTauMethod = `
var out = [];
var secret = __t.label("s3cret", "Sec");
var pub = __t.label({}, "Pub");
out.push(__t.binaryOp("+", secret, "!"));
out.push(__t.derive([secret, 1], secret));
out.push(__t.check(secret, pub, "site-check"));
var obj = { m: function (a, b) { return a + b; } };
out.push(__t.invoke(obj, "m", [secret, "x"], "site-invoke"));
out.push(__t.call(function (a) { return a + 1; }, [secret], "site-call"));
out.push(__t.member({ k: secret }, "k"));
out.push(__t.track(41));
__t.pushScope();
out.push(__t.pc(secret));
out.push(__t.assign("inside"));
__t.popScope();
out.push(__t.unwrap(secret));
out.push(__t.declassify(__t.derive("copy", secret), "release"));
out.push(__t.endorse("e", "audit"));
out.push(__t.check());
console.log(out.length);
`

// observe renders what a run of everyTauMethod produced: console output,
// each result with its labels and integrity facts, the violations, the
// tracker's counters, and the steps charged since base.
func observe(t *testing.T, ip *Interp, base int64) string {
	t.Helper()
	outV, ok := ip.Globals.Lookup("out")
	if !ok {
		t.Fatal("program did not define out")
	}
	tr := ip.Tracker
	var b strings.Builder
	fmt.Fprintf(&b, "console %q\n", ip.ConsoleOut)
	for i, v := range outV.(*Array).Elems {
		fmt.Fprintf(&b, "out[%d] %s labels %v integ %v\n", i, ToString(dift.Unwrap(v)),
			dift.LabelStrings(tr.DataLabels(v)), dift.LabelStrings(tr.DataIntegrity(v)))
	}
	for _, v := range tr.Violations() {
		fmt.Fprintf(&b, "violation %s\n", v.Error())
	}
	fmt.Fprintf(&b, "stats %+v steps %d\n", tr.Stats(), ip.Steps()-base)
	return b.String()
}

func TestFusedTauMatchesGenericPath(t *testing.T) {
	fused := fusedInterp(t, EngineVM)
	walker := fusedInterp(t, EngineWalker)
	for op := 1; op < len(vm.TauMethods); op++ {
		if fn := fused.tauFns[op]; fn == nil || fn.Name != vm.TauMethods[op] {
			t.Fatalf("tauFns[%d] = %v, want the τ method %q", op, fn, vm.TauMethods[op])
		}
	}
	fusedBase, walkerBase := fused.Steps(), walker.Steps()
	runResolved(t, fused, everyTauMethod)
	runResolved(t, walker, everyTauMethod)
	f, w := observe(t, fused, fusedBase), observe(t, walker, walkerBase)
	if f != w {
		t.Fatalf("fused and walker τ calls differ\nfused:\n%s\nwalker:\n%s", f, w)
	}
	if len(fused.Tracker.Violations()) == 0 {
		t.Fatal("the program recorded no violation: the comparison is vacuous")
	}
}

// TestTauCheckNoArgs: __t.check() with no arguments returns undefined on
// both engines instead of panicking.
func TestTauCheckNoArgs(t *testing.T) {
	for _, engine := range Engines {
		ip := fusedInterp(t, engine)
		runResolved(t, ip, `console.log(__t.check() === undefined);`)
		if got := fmt.Sprint(ip.ConsoleOut); got != "[true]" {
			t.Fatalf("%v: __t.check() logged %s", engine, got)
		}
	}
}

// TestInPlaceTauWindowUnobservable: a τ call reads its arguments in
// place, from the caller's argument registers. Neither a __t.call callee
// that keeps its `arguments` nor a value the caller holds in a register
// across τ calls in the same expression can tell: each row prints the
// same on both engines.
func TestInPlaceTauWindowUnobservable(t *testing.T) {
	rows := []struct{ name, src, want string }{
		{"kept arguments", `
var kept = [];
function keep() { kept.push(arguments); return arguments.length; }
__t.call(keep, [1, 2, 3]);
__t.call(keep, ["a", "b"]);
__t.check("x", "y", "z");
__t.binaryOp("+", 5, 6);
console.log(kept[0][0], kept[0][1], kept[0][2], kept[0].length, kept[1][0], kept[1][1], kept[1].length);
`, "[1 2 3 3 a b 2]"},
		{"registers held across tau calls", `
var out = [];
function g(x) { return __t.binaryOp("*", __t.binaryOp("+", x, 2), __t.member({ k: 3 }, "k")); }
for (var i = 0; i < 3; i++) {
  var a = i * 10;
  out.push(g(a) + __t.binaryOp("+", i, 1) + a);
  out.push(__t.binaryOp("-", a, g(i)) + __t.derive(a, g(a)) * 2, a);
}
console.log(out.join(","));
`, "[7,-6,0,48,21,10,89,48,20]"},
	}
	for _, row := range rows {
		for _, engine := range Engines {
			ip := fusedInterp(t, engine)
			runResolved(t, ip, row.src)
			if got := fmt.Sprint(ip.ConsoleOut); got != row.want {
				t.Fatalf("%s, %v: printed %s, want %s", row.name, engine, got, row.want)
			}
		}
	}
}

// TestTauCallsDoNotAllocate: on the VM, a τ call on unlabelled small
// integers allocates nothing per call: its arguments are read in place and
// its numeric result comes from the interned boxes. So a loop of them
// allocates as much for 400 iterations as for 10.
func TestTauCallsDoNotAllocate(t *testing.T) {
	prog, err := parser.Parse("tau_loop.js", `
function loop(n) {
  var acc = 0;
  for (let i = 0; i < n; i++) {
    acc = __t.binaryOp("+", __t.binaryOp("%", i, 7), 1);
  }
  return acc;
}`)
	if err != nil {
		t.Fatal(err)
	}
	resolve.Resolve(prog)
	ip := fusedInterp(t, EngineVM)
	if err := ip.Run(prog); err != nil {
		t.Fatal(err)
	}
	fnV, _ := ip.Globals.Lookup("loop")
	fn := fnV.(*Function)
	if fn.Code == nil || !fn.Code.NoCapture {
		t.Fatal("loop does not run as a NoCapture chunk: its block scopes would allocate")
	}
	allocs := func(n float64) float64 {
		args := []Value{n}
		want := math.Mod(n-1, 7) + 1
		return testing.AllocsPerRun(50, func() {
			v, err := ip.CallFunction(fn, undef, args, ast.Pos{})
			if err != nil || v != want {
				t.Fatalf("loop(%v) = %v, %v; want %v", n, v, err, want)
			}
		})
	}
	if few, many := allocs(10), allocs(400); many != few {
		t.Fatalf("a loop of τ calls allocates %.0f times per call at n = 10 and %.0f at n = 400", few, many)
	}
}

// The battery below runs __t.binaryOp, __t.member and __t.track over
// plain, boxed and labelled operands of every kind, in every tracker state
// that changes what a derive does, on two arms: the VM's fused sites and
// the tree-walker. Both must agree on values, labels, integrity facts,
// violations, steps, tracker stats and dift.* telemetry.

const flatPolicy = `{
  "labellers": { "Sec": "v => \"secret\"", "Pub": "v => \"public\"" },
  "rules": [ "public -> secret" ]
}`

// parityOperands are the operand expressions: numbers on the float lane
// (-0, NaN, 2^53, 5 and -10, read from function-local slots), a number in the
// boxed lane, the other plain scalars, boxes from __t.track and
// __t.label, and unlabelled and labelled objects and arrays.
var parityOperands = []string{
	"nz", "nan", "big", "five", "neg", `"abc".length`,
	`"s"`, `""`, "true", "undefined", "null",
	"tstr", "tnum", "lbox",
	"obj", "lobj", "arr", "larr",
}

var parityBinaryOps = []string{
	"+", "-", "*", "/", "%", "<", ">", "<=", ">=",
	"==", "===", "!=", "&", "<<", "**",
}

// parityState is one tracker configuration of the battery.
type parityState struct {
	name       string
	policy     string
	implicit   bool
	scoped     bool // run the ops inside an open pc scope
	failClosed bool
	telemetry  bool     // metrics and a tracer attached
	extra      []string // operands only this state defines
}

var (
	flatAudit     = parityState{name: "flat audit", policy: flatPolicy}
	implicitState = parityState{name: "implicit, no scope", policy: flatPolicy, implicit: true}
	cnfState      = parityState{name: "cnf", policy: fusedPolicy, extra: []string{"ebox"}}
	parityStates  = []parityState{
		flatAudit,
		implicitState,
		{name: "implicit, open scope", policy: flatPolicy, implicit: true, scoped: true},
		cnfState,
		{name: "fail-closed", policy: flatPolicy, failClosed: true},
		{name: "telemetry", policy: flatPolicy, telemetry: true},
	}
)

// paritySource renders the battery program for a state: every binary
// operator over every operand pair, member reads under four keys and
// track of every operand, inside a function so numbers sit in slots.
func paritySource(st parityState) string {
	ops := append(append([]string(nil), parityOperands...), st.extra...)
	var b strings.Builder
	b.WriteString(`var out = [];
function run() {
  var nz = 0 * -1, nan = 0 / 0, big = 9007199254740992, five = 5, neg = 0 - 10;
  var tstr = __t.track("boxed"), tnum = __t.track(7);
  var lbox = __t.label("sec", "Sec");
  var obj = { k: 1, length: 2 }, lobj = __t.label({ k: "v" }, "Sec");
  var arr = [1, 2], larr = __t.label([3, 4], "Sec");
`)
	if len(st.extra) > 0 {
		b.WriteString("  var ebox = __t.endorse(\"e\", \"audit\");\n")
	}
	if st.scoped {
		b.WriteString("  __t.pushScope();\n  __t.pc(lbox);\n")
	}
	for _, op := range parityBinaryOps {
		for _, l := range ops {
			for _, r := range ops {
				fmt.Fprintf(&b, "  out.push(__t.binaryOp(%q, %s, %s));\n", op, l, r)
			}
		}
	}
	for _, o := range ops {
		for _, key := range []string{`"k"`, `"length"`, "0", "nz"} {
			fmt.Fprintf(&b, "  try { out.push(__t.member(%s, %s)); } catch (e) { out.push(\"threw \" + e.message); }\n", o, key)
		}
		fmt.Fprintf(&b, "  out.push(__t.track(%s));\n", o)
	}
	if st.scoped {
		b.WriteString("  __t.popScope();\n")
	}
	b.WriteString("}\nrun();\n")
	return b.String()
}

// parityInterp builds one arm's interpreter for a state.
func parityInterp(t *testing.T, st parityState, engine Engine) *Interp {
	t.Helper()
	ip := New()
	ip.Engine = engine
	pol, err := policy.ParseJSON([]byte(st.policy), ip.CompileLabelFunc)
	if err != nil {
		t.Fatal(err)
	}
	tr := ip.InstallTracker(pol)
	if st.implicit {
		tr.EnableImplicit()
	}
	tr.FailClosed = st.failClosed
	if st.telemetry {
		ip.EnableTelemetry(telemetry.NewMetrics(), telemetry.NewTracer(1<<20, ip.Clock.Now))
	}
	return ip
}

// renderValue prints a result with its Go type, telling -0 from +0.
func renderValue(v Value) string {
	u := dift.Unwrap(v)
	if f, ok := u.(float64); ok {
		return fmt.Sprintf("%T %s signbit=%v", v, strconv.FormatFloat(f, 'g', -1, 64), math.Signbit(f))
	}
	return fmt.Sprintf("%T %s", v, ToString(u))
}

// observeParity renders everything an arm produced.
func observeParity(t *testing.T, ip *Interp, base int64) string {
	t.Helper()
	outV, ok := ip.Globals.Lookup("out")
	if !ok {
		t.Fatal("program did not define out")
	}
	tr := ip.Tracker
	var b strings.Builder
	for i, v := range outV.(*Array).Elems {
		fmt.Fprintf(&b, "out[%d] %s labels %v integ %v\n", i, renderValue(v),
			dift.LabelStrings(tr.DataLabels(v)), dift.LabelStrings(tr.DataIntegrity(v)))
	}
	for _, v := range tr.Violations() {
		fmt.Fprintf(&b, "violation %s\n", v.Error())
	}
	degraded, why := tr.Degraded()
	fmt.Fprintf(&b, "stats %+v degraded %v %q steps %d\n", tr.Stats(), degraded, why, ip.Steps()-base)
	if m := tr.Telemetry(); m != nil {
		counters := m.CountersWithPrefix("dift.")
		names := make([]string, 0, len(counters))
		for n := range counters {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "counter %s %d\n", n, counters[n])
		}
		js, err := tr.Tracer().ExportJSON()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "trace %s\n", js)
	}
	return b.String()
}

// firstDiff returns the first line where a and b differ.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  %s\n  %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths %d and %d lines", len(al), len(bl))
}

func TestTauFusedParity(t *testing.T) {
	for _, st := range parityStates {
		t.Run(st.name, func(t *testing.T) {
			src := paritySource(st)
			var want string
			for i, engine := range []Engine{EngineVM, EngineWalker} {
				ip := parityInterp(t, st, engine)
				base := ip.Steps()
				runResolved(t, ip, src)
				got := observeParity(t, ip, base)
				if i == 0 {
					want = got
					continue
				}
				if got != want {
					t.Fatalf("%v differs from vm: %s", engine, firstDiff(got, want))
				}
			}
			if !strings.Contains(want, "labels [secret]") {
				t.Fatal("no result carries a label: the comparison is vacuous")
			}
		})
	}
}

// TestTauFusedBudgetTripParity: a string concatenation through
// __t.binaryOp that trips the guard's allocation budget trips at the same
// step, with the same BudgetError, on the fused site and the tree-walker.
func TestTauFusedBudgetTripParity(t *testing.T) {
	const src = `
function grow() {
  var s = "ab";
  for (var i = 0; i < 40; i++) { s = __t.binaryOp("+", s, s); }
  return s;
}
grow();
`
	var want string
	for i, engine := range []Engine{EngineVM, EngineWalker} {
		ip := parityInterp(t, flatAudit, engine)
		ip.SetGuard(guard.New(guard.Limits{MaxAlloc: 1 << 16}))
		prog, err := parser.Parse("budget.js", src)
		if err != nil {
			t.Fatal(err)
		}
		resolve.Resolve(prog)
		base := ip.Steps()
		err = ip.Run(prog)
		var be *guard.BudgetError
		if !errors.As(err, &be) || be.Kind != guard.KindAlloc {
			t.Fatalf("arm %d: want an allocation BudgetError, got %v", i, err)
		}
		got := fmt.Sprintf("%s steps %d stats %+v", be.Error(), ip.Steps()-base, ip.Tracker.Stats())
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("arm %d tripped differently:\n  %s\n  %s", i, got, want)
		}
	}
}

// TestTauCallsIgnoreUserBindings: on both engines a program's own `__t`,
// shadowing or global, is an ordinary variable. Its other methods run,
// while every call naming a τ method still reaches the tracker.
func TestTauCallsIgnoreUserBindings(t *testing.T) {
	const src = `
var out = [];
function run() {
  var __t = { binaryOp: function () { return "shadow"; }, other: function () { return "o"; } };
  out.push(__t.binaryOp("+", 1, 2), __t.other());
}
run();
var __t = { member: function () { return "m"; }, extra: function (x) { return "e" + x; } };
out.push(__t.member({ k: 1 }, "k"), __t.extra(1), __t.track(3));
__t = { binaryOp: function () { return "rebound"; }, more: function () { return "more"; } };
out.push(__t.binaryOp("+", 1, 2), __t.more(), typeof __t);
console.log(out.map(function (v) { return String(v); }).join(","));
`
	var want string
	for i, engine := range Engines {
		ip := parityInterp(t, flatAudit, engine)
		base := ip.Steps()
		runResolved(t, ip, src)
		if got := fmt.Sprint(ip.ConsoleOut); got != "[3,o,1,e1,3,3,more,object]" {
			t.Fatalf("%v: logged %s", engine, got)
		}
		got := fmt.Sprintf("stats %+v steps %d", ip.Tracker.Stats(), ip.Steps()-base)
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("%v: %s, vm %s", engine, got, want)
		}
	}
}
