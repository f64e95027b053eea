package interp

import (
	"strings"
	"testing"

	"turnstile/internal/parser"
	"turnstile/internal/policy"
)

// Tests for the τ host object's edge cases: missing arguments, wrong
// types, unknown labellers — the kinds of calls only malformed
// instrumentation would make, which must degrade gracefully.

func tauInterp(t *testing.T) *Interp {
	t.Helper()
	ip := New()
	pol, err := policy.ParseJSON([]byte(`{
	  "labellers": { "L": "v => \"a\"" },
	  "rules": [ "a -> b" ]
	}`), ip.CompileLabelFunc)
	if err != nil {
		t.Fatal(err)
	}
	tr := ip.InstallTracker(pol)
	tr.Enforce = true
	return ip
}

func runIn(t *testing.T, ip *Interp, src string) error {
	t.Helper()
	prog, err := parser.Parse("tau.js", src)
	if err != nil {
		t.Fatal(err)
	}
	return ip.Run(prog)
}

func TestTauDegenerateCalls(t *testing.T) {
	ip := tauInterp(t)
	err := runIn(t, ip, `
console.log(__t.label("x"));
console.log(__t.binaryOp("+"));
(function () { __t.binaryOp(); })();
console.log(__t.member({}));
(function () { __t.member(); })();
console.log(__t.derive());
console.log(__t.check("only-data"));
console.log(__t.invoke({}, "m"));
console.log(__t.call(1));
console.log(__t.track());
console.log(__t.unwrap());
console.log(__t.pc());
console.log(__t.assign());
`)
	if err != nil {
		t.Fatalf("degenerate τ calls must not crash: %v", err)
	}
}

func TestTauUnknownLabeller(t *testing.T) {
	ip := tauInterp(t)
	err := runIn(t, ip, `__t.label("x", "NoSuchLabeller");`)
	if err == nil || !strings.Contains(err.Error(), "NoSuchLabeller") {
		t.Fatalf("err = %v", err)
	}
}

func TestTauInvokeBadArgs(t *testing.T) {
	ip := tauInterp(t)
	if err := runIn(t, ip, `__t.invoke({ m: function() {} }, "m", "not-an-array");`); err == nil {
		t.Fatal("expected TypeError for non-array args")
	}
	if err := runIn(t, ip, `__t.call(function() {}, 42);`); err == nil {
		t.Fatal("expected TypeError for non-array args")
	}
}

func TestTauCheckBlocksDirectly(t *testing.T) {
	ip := tauInterp(t)
	err := runIn(t, ip, `
const data = __t.label("payload", "L");
const recv = __t.label({}, "RecvB");
__t.check(data, recv, "manual-site");
`)
	// RecvB is unknown → error surfaces from the labeller lookup
	if err == nil {
		t.Fatal("unknown labeller should fail")
	}
}

func TestTauCheckWithLabelledReceiver(t *testing.T) {
	ip := New()
	pol, err := policy.ParseJSON([]byte(`{
	  "labellers": { "Hi": "v => \"hi\"", "Lo": "v => \"lo\"" },
	  "rules": [ "lo -> hi" ]
	}`), ip.CompileLabelFunc)
	if err != nil {
		t.Fatal(err)
	}
	tr := ip.InstallTracker(pol)
	tr.Enforce = true
	// hi data into lo receiver: forbidden
	err = runIn(t, ip, `
const data = __t.label("secret", "Hi");
const recv = __t.label({}, "Lo");
__t.check(data, recv, "site-x");
`)
	if err == nil || !strings.Contains(err.Error(), "site-x") {
		t.Fatalf("err = %v", err)
	}
	// lo data into hi receiver: fine
	if err := runIn(t, ip, `
const d2 = __t.label("open", "Lo");
const r2 = __t.label({}, "Hi");
__t.check(d2, r2, "site-y");
`); err != nil {
		t.Fatalf("allowed flow blocked: %v", err)
	}
}

func TestTauMemberTrap(t *testing.T) {
	ip := tauInterp(t)
	if err := runIn(t, ip, `
const o = __t.label({ inner: "v" }, "L");
const got = __t.member(o, "inner");
console.log(got);
`); err != nil {
		t.Fatal(err)
	}
	if ip.ConsoleOut[0] != "v" {
		t.Fatalf("out = %v", ip.ConsoleOut)
	}
	// the read value inherits the container's label
	v, _ := ip.Globals.Lookup("got")
	if !ip.Tracker.LabelsOf(v).Contains("a") {
		t.Fatal("member trap lost the container label")
	}
}

func TestLabelFunctionThrowSurfaces(t *testing.T) {
	ip := New()
	pol, err := policy.ParseJSON([]byte(`{
	  "labellers": { "Boom": "v => { throw new Error(\"labeller failed\"); }" },
	  "rules": []
	}`), ip.CompileLabelFunc)
	if err != nil {
		t.Fatal(err)
	}
	ip.InstallTracker(pol)
	err = runIn(t, ip, `__t.label("x", "Boom");`)
	if err == nil || !strings.Contains(err.Error(), "labeller failed") {
		t.Fatalf("err = %v", err)
	}
}

func TestAdapterDirect(t *testing.T) {
	var a Adapter
	o := NewObject()
	o.Set("k", "v")
	if got, ok := a.Property(o, "k"); !ok || got != "v" {
		t.Fatal("Property")
	}
	if !a.SetProperty(o, "k2", 1.0) {
		t.Fatal("SetProperty")
	}
	if a.SetProperty("str", "k", 1.0) {
		t.Fatal("SetProperty on primitive should fail")
	}
	arr := NewArray("a", "b")
	if elems, ok := a.Elements(arr); !ok || len(elems) != 2 {
		t.Fatal("Elements")
	}
	if !a.SetElement(arr, 1, "c") || arr.Elems[1] != "c" {
		t.Fatal("SetElement")
	}
	if a.SetElement(arr, 9, "z") {
		t.Fatal("SetElement out of range should fail")
	}
	if !a.IsReference(o) || !a.IsReference(arr) || a.IsReference(1.0) || a.IsReference("s") {
		t.Fatal("IsReference")
	}
}
