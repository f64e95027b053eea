package interp

import (
	"fmt"
	"strings"
	"testing"

	"turnstile/internal/dift"
	"turnstile/internal/parser"
	"turnstile/internal/policy"
	"turnstile/internal/resolve"
	"turnstile/internal/vm"
)

// The VM dispatches a fused `__t.<method>(…)` site by op code straight to
// the built-in τ function, with a pooled argument window. These tests pin
// that the fused path is observationally the generic path: same values,
// labels, violations and step charges for every τ method, and no way for
// MiniJS code to see the recycled window.

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
	generic := fusedInterp(t, EngineVM)
	runResolved(t, generic, `__t.extra = 1;`) // bumps τ's version
	for op := 1; op < len(vm.TauMethods); op++ {
		if fused.tauFast(vm.TauOp(op)) == nil {
			t.Fatalf("τ method %q has no fused entry", vm.TauMethods[op])
		}
		if generic.tauFast(vm.TauOp(op)) != nil {
			t.Fatal("mutating τ did not disable the fused path")
		}
	}
	fusedBase, genericBase := fused.Steps(), generic.Steps()
	runResolved(t, fused, everyTauMethod)
	runResolved(t, generic, everyTauMethod)
	f, g := observe(t, fused, fusedBase), observe(t, generic, genericBase)
	if f != g {
		t.Fatalf("fused and generic τ dispatch differ\nfused:\n%s\ngeneric:\n%s", f, g)
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

// TestPooledTauWindowUnobservable: a __t.call callee that keeps its
// `arguments` keeps its own array, untouched when later fused calls
// recycle the argument window.
func TestPooledTauWindowUnobservable(t *testing.T) {
	const src = `
var kept = [];
function keep() { kept.push(arguments); return arguments.length; }
__t.call(keep, [1, 2, 3]);
__t.call(keep, ["a", "b"]);
__t.check("x", "y", "z");
__t.binaryOp("+", 5, 6);
console.log(kept[0][0], kept[0][1], kept[0][2], kept[0].length, kept[1][0], kept[1][1], kept[1].length);
`
	for _, engine := range Engines {
		ip := fusedInterp(t, engine)
		runResolved(t, ip, src)
		if got := fmt.Sprint(ip.ConsoleOut); got != "[1 2 3 3 a b 2]" {
			t.Fatalf("%v: kept arguments = %s", engine, got)
		}
	}
}
