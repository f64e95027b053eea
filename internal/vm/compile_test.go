package vm

import (
	"testing"

	"turnstile/internal/parser"
	"turnstile/internal/resolve"
)

// compileSrc parses, resolves and compiles src.
func compileSrc(t *testing.T, src string) *Module {
	t.Helper()
	prog, err := parser.Parse("vm_test.js", src)
	if err != nil {
		t.Fatal(err)
	}
	resolve.Resolve(prog)
	return Compile(prog)
}

type call struct {
	in   Instr
	site *CallSite
}

// calls returns every call instruction of the module with its site.
func calls(m *Module) []call {
	chunks := []*Chunk{m.Top}
	for _, ch := range m.Funcs {
		chunks = append(chunks, ch)
	}
	var out []call
	for _, ch := range chunks {
		for _, in := range ch.Code {
			switch in.Op {
			case OpCall, OpCallMethod, OpCallMethodC, OpTrackerCall:
				out = append(out, call{in, ch.Consts[in.D].(*CallSite)})
			}
		}
	}
	return out
}

// siteOf returns the call instruction whose site names method name.
func siteOf(t *testing.T, m *Module, name string) (Instr, *CallSite) {
	t.Helper()
	for _, c := range calls(m) {
		if c.site.Name == name {
			return c.in, c.site
		}
	}
	t.Fatalf("no call site named %q", name)
	return Instr{}, nil
}

func TestTrackerCallGetsOpCode(t *testing.T) {
	m := compileSrc(t, `var x = __t.binaryOp("+", 1, 2);`)
	in, site := siteOf(t, m, "binaryOp")
	if in.Op != OpTrackerCall {
		t.Fatalf("__t.binaryOp compiled to op %d, want OpTrackerCall", in.Op)
	}
	if site.Tau != TauOpOf("binaryOp") || site.Tau == 0 {
		t.Fatalf("site op code = %d, want %d", site.Tau, TauOpOf("binaryOp"))
	}
}

// Every built-in τ method has a distinct non-zero op code that round-trips
// through TauMethods.
func TestTauOpCodesRoundTrip(t *testing.T) {
	for i, name := range TauMethods {
		if i == 0 {
			if name != "" || TauOpOf("") != 0 {
				t.Fatal("op 0 must name no method")
			}
			continue
		}
		if op := TauOpOf(name); int(op) != i {
			t.Fatalf("TauOpOf(%q) = %d, want %d", name, op, i)
		}
	}
}

func TestShadowedTrackerIsNotFused(t *testing.T) {
	m := compileSrc(t, `
function f() {
  var __t = { check: function (d) { return d; } };
  return __t.check(1, 2);
}
f();`)
	if in, _ := siteOf(t, m, "check"); in.Op != OpCallMethod {
		t.Fatalf("shadowed local __t.check compiled to op %d, want OpCallMethod", in.Op)
	}
}

func TestComputedTrackerMemberIsNotFused(t *testing.T) {
	m := compileSrc(t, `var y = __t["check"](1, 2);`)
	cs := calls(m)
	if len(cs) != 1 || cs[0].in.Op != OpCallMethodC {
		t.Fatalf("computed __t[\"check\"] compiled to %v, want one OpCallMethodC", cs)
	}
}

func TestUnknownTrackerMethodGetsOpZero(t *testing.T) {
	m := compileSrc(t, `__t.foo(1);`)
	in, site := siteOf(t, m, "foo")
	if in.Op != OpTrackerCall {
		t.Fatalf("__t.foo compiled to op %d, want OpTrackerCall", in.Op)
	}
	if site.Tau != 0 {
		t.Fatalf("unknown method got op code %d, want 0", site.Tau)
	}
}
