package printer

import (
	"testing"

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
