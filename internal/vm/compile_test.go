package vm

import (
	"fmt"
	"testing"

	"turnstile/internal/ast"
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

// chunkNamed returns the compiled chunk of the function named name.
func chunkNamed(t *testing.T, m *Module, name string) *Chunk {
	t.Helper()
	for _, ch := range m.Funcs {
		if ch.Name == name {
			return ch
		}
	}
	t.Fatalf("no function chunk named %q", name)
	return nil
}

// opsIn returns the indexes of the instructions with opcode op.
func opsIn(ch *Chunk, op Op) []int {
	var out []int
	for i, in := range ch.Code {
		if in.Op == op {
			out = append(out, i)
		}
	}
	return out
}

// A let or const for-loop gets fresh bindings per iteration: one
// OpIterCopy on the back edge, after the body and before the post
// expression, and continue jumps land on it. A var loop shares one
// binding and gets none.
func TestForLoopIterCopyPlacement(t *testing.T) {
	for _, kind := range []string{"let", "const"} {
		post := "i++"
		if kind == "const" {
			post = "f()" // a const binding cannot be stepped
		}
		m := compileSrc(t, `
function loop() {
  for (`+kind+` i = 0; i < 3; `+post+`) {
    if (g(i)) continue;
    h(i);
  }
}`)
		ch := chunkNamed(t, m, "loop")
		copies := opsIn(ch, OpIterCopy)
		if len(copies) != 1 {
			t.Fatalf("%s loop: %d OpIterCopy, want 1", kind, len(copies))
		}
		at := copies[0]
		bodyCall, postAt, backJump := -1, -1, -1
		for i, in := range ch.Code {
			switch {
			case in.Op == OpCall && ch.Consts[in.D].(*CallSite).Node.Callee.(*ast.Ident).Name == "h":
				bodyCall = i
			case in.Op == OpIncDec, in.Op == OpCall && ch.Consts[in.D].(*CallSite).Node.Callee.(*ast.Ident).Name == "f":
				postAt = i
			case in.Op == OpJump && i > at && backJump < 0:
				backJump = i
			}
		}
		if !(bodyCall < at && at < postAt && postAt < backJump) {
			t.Fatalf("%s loop: body call %d, OpIterCopy %d, post %d, back jump %d: want that order",
				kind, bodyCall, at, postAt, backJump)
		}
		conts := 0
		for i, in := range ch.Code {
			if in.Op == OpJump && i < at && in.A == int32(at) {
				conts++
			}
		}
		if conts != 1 {
			t.Fatalf("%s loop: %d jumps land on OpIterCopy, want the one continue", kind, conts)
		}
	}
	m := compileSrc(t, `function loop() { for (var i = 0; i < 3; i++) { h(i); } }`)
	if n := len(opsIn(chunkNamed(t, m, "loop"), OpIterCopy)); n != 0 {
		t.Fatalf("var loop: %d OpIterCopy, want 0", n)
	}
}

// checkScopes walks every control-flow path of a chunk, tracking the
// environment depth on entry to each reachable instruction (the
// OpPopScope closing a block that ends in continue is unreachable). It
// fails the test when two paths reach an instruction at different
// depths, when a pop leaves the chunk's base environment, when a path
// falls off the end inside a scope, or when a break/continue edge leaves
// its target at the wrong depth.
func checkScopes(t *testing.T, ch *Chunk) {
	t.Helper()
	depth := make([]int32, len(ch.Code)+1)
	for i := range depth {
		depth[i] = -1
	}
	var work []int
	reach := func(from, pc int, d int32) {
		if d < 0 {
			t.Fatalf("%s: pc %d pops below the chunk's environment", ch.Name, from)
		}
		if pc < 0 || pc > len(ch.Code) {
			t.Fatalf("%s: pc %d jumps to %d, outside the chunk", ch.Name, from, pc)
		}
		switch depth[pc] {
		case -1:
			depth[pc] = d
			work = append(work, pc)
		case d:
		default:
			t.Fatalf("%s: pc %d reached at depth %d and %d", ch.Name, pc, depth[pc], d)
		}
	}
	edge := func(from int, e int32, d int32) {
		if e < 0 {
			return
		}
		ed := ch.Edges[e]
		reach(from, int(ed.PC), d-ed.PopN)
	}
	reach(-1, 0, 0)
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		if pc == len(ch.Code) {
			if depth[pc] != 0 {
				t.Fatalf("%s: falls off the end at depth %d", ch.Name, depth[pc])
			}
			continue
		}
		in, d := ch.Code[pc], depth[pc]
		switch in.Op {
		case OpPushScope:
			reach(pc, pc+1, d+1)
		case OpPopScope:
			reach(pc, pc+1, d-1)
		case OpPopN:
			reach(pc, pc+1, d-in.A)
		case OpJump:
			reach(pc, int(in.A), d)
		case OpJumpUnless, OpJumpIf, OpJumpNotNull:
			reach(pc, pc+1, d)
			reach(pc, int(in.B), d)
		case OpRet, OpRetUndef, OpCtrl, OpThrow:
		case OpExecStmt, OpTry:
			reach(pc, pc+1, d)
			edge(pc, in.B, d)
			edge(pc, in.C, d)
		default:
			reach(pc, pc+1, d)
		}
	}
}

// Every block scope a chunk opens is closed on every path out of it: by
// its OpPopScope on the fall-through path, by OpPopN on a static
// break/continue, and by the CtrlEdge.PopN of a delegated statement or
// try whose break/continue surfaces inside nested blocks.
func TestScopesBalanceOnEveryPath(t *testing.T) {
	m := compileSrc(t, `
function nested(o) {
  var n = 0;
  for (let i = 0; i < 3; i++) {
    {
      let a = i;
      {
        let b = a;
        if (b === 1) continue;
        if (b === 2) break;
        switch (b) { case 0: n++; break; default: continue; }
        for (var k in o) { if (k) break; }
        try { if (n) break; g(); } catch (e) { continue; } finally { n++; }
      }
    }
    while (n < 10) { { let c = n; if (c) { n += 2; continue; } } n++; }
  }
  { let z = n; do { { let y = z; if (y) break; } } while (false); }
  return n;
}`)
	chunks := []*Chunk{m.Top}
	for _, ch := range m.Funcs {
		chunks = append(chunks, ch)
	}
	pushes, edges := 0, 0
	for _, ch := range chunks {
		checkScopes(t, ch)
		pushes += len(opsIn(ch, OpPushScope))
		for _, in := range ch.Code {
			if in.Op != OpExecStmt && in.Op != OpTry {
				continue
			}
			for _, e := range []int32{in.B, in.C} {
				if e < 0 {
					continue
				}
				if ch.Edges[e].PC < 0 {
					t.Fatalf("%s: edge %d was never bound", ch.Name, e)
				}
				if ch.Edges[e].PopN > 0 {
					edges++
				}
			}
		}
	}
	if pushes < 6 || edges == 0 {
		t.Fatalf("the program opened %d scopes and routed %d edges through them: the check is vacuous", pushes, edges)
	}
}

// switch, for-in and compound assignment have no native opcode: each
// compiles to one delegation instruction carrying its own node.
func TestDelegatedConstructs(t *testing.T) {
	m := compileSrc(t, `
function f(o, x) {
  switch (x) { case 1: g(); }
  for (var k in o) { g(k); }
  x += 2;
  o.n -= 1;
}`)
	ch := chunkNamed(t, m, "f")
	var kinds []string
	for _, in := range ch.Code {
		switch in.Op {
		case OpExecStmt:
			kinds = append(kinds, fmt.Sprintf("stmt %T", ch.Consts[in.A]))
		case OpEvalExpr:
			x := ch.Consts[in.B].(*ast.AssignExpr)
			kinds = append(kinds, fmt.Sprintf("expr %T %s", x, x.Op))
		}
	}
	want := "[stmt *ast.SwitchStmt stmt *ast.ForInStmt expr *ast.AssignExpr += expr *ast.AssignExpr -=]"
	if got := fmt.Sprint(kinds); got != want {
		t.Fatalf("delegations = %s, want %s", got, want)
	}
}

// NoCapture (the call environment may be recycled) holds for a body with
// none of closure creation, hoisting, delegation or try, and for no body
// with any of them.
func TestNoCaptureAnalysis(t *testing.T) {
	m := compileSrc(t, `
function plain(a) { var x = a + 1; if (x) { let y = x; return y; } return __t.binaryOp("+", a, x); }
function closure() { return function () { return 1; }; }
function hoisted() { function inner() {} return 1; }
function delegatedStmt(o) { for (var k in o) {} }
function delegatedExpr(a) { a += 1; return a; }
function tried() { try { g(); } catch (e) {} }
`)
	for name, want := range map[string]bool{
		"plain": true, "closure": false, "hoisted": false,
		"delegatedStmt": false, "delegatedExpr": false, "tried": false,
	} {
		if got := chunkNamed(t, m, name).NoCapture; got != want {
			t.Errorf("%s: NoCapture = %v, want %v", name, got, want)
		}
	}
}
