package vm

import (
	"testing"

	"turnstile/internal/ast"
)

// A call's arguments sit in a window of consecutive registers,
// [base, base+argc) with C = base<<16|argc, and the interpreter's τ call
// hands the τ function that window in place. That is sound only if the
// window lies above the call's destination register, fits the register
// file, and no instruction that evaluates a later argument, the callee or
// the receiver writes an earlier argument's register.

// writes returns the register an instruction writes, or -1.
func writes(in Instr) int32 {
	switch in.Op {
	case OpConst, OpUndefV, OpNullV, OpMove, OpIdent, OpThis, OpIncDec,
		OpAdd, OpSub, OpMul, OpDiv, OpMod, OpCmpLt, OpCmpGt, OpCmpLe, OpCmpGe,
		OpStrictEq, OpStrictNeq, OpBinOp, OpNot, OpNeg, OpToNum, OpBitNot,
		OpAwait, OpTemplate, OpArray, OpNewObject, OpClosure,
		OpMemberGet, OpMemberGetC, OpCall, OpCallMethod, OpCallMethodC,
		OpTrackerCall, OpEvalExpr:
		return in.A
	}
	return -1
}

// positions returns the source positions of every node under n.
func positions(n ast.Node) map[ast.Pos]bool {
	set := map[ast.Pos]bool{}
	ast.Walk(n, func(m ast.Node) bool {
		set[m.Pos()] = true
		return true
	})
	return set
}

// evaluates reports whether the instruction at pc is part of evaluating
// an expression whose node positions are set: it carries a pre-charge of
// one of them, or delegates one of them. Charges fuse onto the next
// emitted instruction, so the first instruction of every subexpression
// carries one.
func evaluates(ch *Chunk, pc int, set map[ast.Pos]bool) bool {
	in := ch.Code[pc]
	for _, p := range ch.Charges[in.CIdx : in.CIdx+in.CN] {
		if set[p] {
			return true
		}
	}
	if in.Op == OpEvalExpr {
		return set[ch.Consts[in.B].(ast.Expr).Pos()]
	}
	return false
}

// checkCallWindows checks the window of every call instruction in ch and
// returns how many calls with arguments it checked.
func checkCallWindows(t *testing.T, ch *Chunk) int {
	t.Helper()
	checked := 0
	for pc, in := range ch.Code {
		switch in.Op {
		case OpCall, OpCallMethod, OpCallMethodC, OpTrackerCall:
		default:
			continue
		}
		x := ch.Consts[in.D].(*CallSite).Node
		base, argc := in.C>>16, in.C&0xffff
		if int(argc) != len(x.Args) {
			t.Fatalf("%s pc %d: window of %d for %d arguments", ch.Name, pc, argc, len(x.Args))
		}
		if base <= in.A {
			t.Fatalf("%s pc %d: window at r%d is not above the destination r%d", ch.Name, pc, base, in.A)
		}
		if int(base+argc) > ch.NumRegs {
			t.Fatalf("%s pc %d: window [r%d, r%d) overruns %d registers", ch.Name, pc, base, base+argc, ch.NumRegs)
		}
		if argc == 0 {
			continue
		}
		// span[i] is the first pc evaluating argument i; span[argc] the
		// first evaluating the callee or receiver, or the call itself. A
		// call's own charge, fused onto its first argument, may share the
		// callee's position, so each search starts past the last find.
		span := make([]int, argc+1)
		from := 0
		for i := range span {
			set := positions(x.Callee)
			if i < int(argc) {
				set = positions(x.Args[i])
			}
			span[i] = pc
			for p := from; p < pc; p++ {
				if evaluates(ch, p, set) {
					span[i] = p
					break
				}
			}
			from = span[i] + 1
		}
		for i := int32(0); i < argc; i++ {
			landed := false
			for p := span[i]; p < span[i+1]; p++ {
				landed = landed || writes(ch.Code[p]) == base+i
			}
			if !landed {
				t.Fatalf("%s pc %d: argument %d never lands in r%d", ch.Name, pc, i, base+i)
			}
			for p := span[i+1]; p < pc; p++ {
				if r := writes(ch.Code[p]); r >= base && r <= base+i {
					t.Fatalf("%s pc %d: pc %d, after argument %d, overwrites the argument in r%d", ch.Name, pc, p, i, r)
				}
			}
		}
		checked++
	}
	return checked
}

// TestCallWindowLayout compiles call shapes whose arguments nest calls,
// branch, sequence and delegate, with plain, method, computed-member and
// τ callees, and checks every call window.
func TestCallWindowLayout(t *testing.T) {
	m := compileSrc(t, `
var o = { m: function (a, b) { return a + b; }, k: "m" };
function f(a, b, c) { return a; }
function g(a) { return a; }
function X(a) { this.a = a; }
var a = 1, b = 2, c = 3;
__t.binaryOp("+", __t.binaryOp("*", a, 2), __t.member(o, __t.track("k")));
f(c ? g(a) : __t.derive(b, a), (a, g(b), c), new X(__t.track(a)));
o.m(typeof a, f(a, b, c) + g(__t.binaryOp("-", b, a)));
o[o.k](g(a), __t.check(a, b, "site"), b);
o[g("m")](a ? b : c, [a, g(b)], "t" + g(c));
f(a).toString(g(a), b);
function inner(p, q) {
  try { return __t.call(f, [p, g(q)], "s") + o.m(p, q ? __t.track(p) : q); }
  catch (e) { return g(e, __t.unwrap(p)); }
}
inner(a, __t.label(b, "L"));
`)
	chunks := []*Chunk{m.Top}
	for _, ch := range m.Funcs {
		chunks = append(chunks, ch)
	}
	checked := 0
	for len(chunks) > 0 {
		ch := chunks[0]
		chunks = chunks[1:]
		checked += checkCallWindows(t, ch)
		for _, k := range ch.Consts {
			if ti, ok := k.(*TryInfo); ok {
				for _, sub := range []*Chunk{ti.Body, ti.Catch, ti.Finally} {
					if sub != nil {
						chunks = append(chunks, sub)
					}
				}
			}
		}
	}
	if checked < 30 {
		t.Fatalf("checked %d call windows: the program lost its call shapes", checked)
	}
}
