package printer

import (
	"testing"

	"turnstile/internal/ast"
	"turnstile/internal/asttest"
	"turnstile/internal/parser"
)

// stampCases cover every place Stamp rewrites more than positions: bare
// bodies the text braces, function names the text cannot carry, class
// method names, and nodes anchored at an operand behind a parenthesis.
var stampCases = []string{
	"if (a) b(); else if (c) d(); else e();",
	"for (let i = 0; i < 3; i++) x += i;\nfor (const k in o) if (k) break;\nwhile (w) w--;\ndo ; while (0);",
	"const o = { \"a-b\"() { return 1; }, of() { return 2; }, m(x) { return x; } };",
	"const f = async (a, ...r) => ({ a, r });\nconst g = x => y => x + y;",
	"class A extends B { static s() {} async m() {} \"q r\"() {} }",
	"({}).x = (a + b).c * -(-d) + +(+e) - -(--f);",
	"(function () {})();\nnew (f())();\nnew (a[b])();\nnew a.B(1);",
	"x = `one ${a}\ntwo ${`${b}\n`}` + c;",
	"switch (v) { case 1: f(); break; default: g(); }\ntry { a(); } catch (e) { b(); } finally { c(); }",
	"for (a = 1, b = 2; a < b; a++, b--) ;\nx;",
	"function of() {}\nasync function g() { await (h(), k); }",
	"if (c) var x = 5; else var y = 6;\nif (a) for (;;) if (b) c(); else d(); else e();\ndo x++; while (x < 3);",
}

// TestStampMatchesParse: Stamp prints what Print prints and leaves the
// tree equal, positions included, to the one the parser builds from that
// text; Print leaves its tree untouched.
func TestStampMatchesParse(t *testing.T) {
	for _, src := range stampCases {
		prog, err := parser.Parse("s.js", src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		printed := Print(prog)
		pristine := parser.MustParse("s.js", src)
		if d := asttest.Diff(prog, pristine); d != "" {
			t.Fatalf("Print wrote to its tree: %s\nsource: %q", d, src)
		}
		stamped, err := Stamp(prog)
		if err != nil {
			t.Fatal(err)
		}
		if stamped != printed {
			t.Fatalf("Stamp and Print disagree on %q:\n%s\n---\n%s", src, stamped, printed)
		}
		want, err := parser.Parse("s.js", printed)
		if err != nil {
			t.Fatalf("printed source does not parse: %v\n%s", err, printed)
		}
		if d := asttest.Diff(prog, want); d != "" {
			t.Fatalf("stamped tree differs from the parsed print: %s\nprinted:\n%s", d, printed)
		}
		if err := asttest.CheckIDs(prog); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
	}
}

// TestStampBracesDanglingElse: a then-branch ending in an if without an
// else, under an if with one, is the one body the text braces (bare, the
// inner if would take the else). The parser never builds it, so the tree
// is built by hand, and Stamp inserts the block the parser reads back.
func TestStampBracesDanglingElse(t *testing.T) {
	prog := parser.MustParse("s.js", "if (a) { while (w) if (b) c(); } else d();")
	outer := prog.Body[0].(*ast.IfStmt)
	outer.Then = outer.Then.(*ast.BlockStmt).Body[0]
	printed := Print(prog)
	stamped, err := Stamp(prog)
	if err != nil {
		t.Fatal(err)
	}
	if stamped != printed {
		t.Fatalf("Stamp and Print disagree:\n%s\n---\n%s", stamped, printed)
	}
	want := parser.MustParse("s.js", printed)
	if _, braced := want.Body[0].(*ast.IfStmt).Then.(*ast.BlockStmt); !braced {
		t.Fatalf("dangling then-branch printed bare:\n%s", printed)
	}
	if d := asttest.Diff(prog, want); d != "" {
		t.Fatalf("stamped tree differs from the parsed print: %s\nprinted:\n%s", d, printed)
	}
	if err := asttest.CheckIDs(prog); err != nil {
		t.Fatal(err)
	}
}
