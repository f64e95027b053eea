package printer

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"turnstile/internal/ast"
	"turnstile/internal/parser"
)

// roundTrip parses src, prints it, re-parses the output, and checks that a
// second print is byte-identical (print is a fixpoint of parse∘print).
func roundTrip(t *testing.T, src string) string {
	t.Helper()
	prog, err := parser.Parse("rt.js", src)
	if err != nil {
		t.Fatalf("parse original: %v\n%s", err, src)
	}
	out1 := Print(prog)
	prog2, err := parser.Parse("rt2.js", out1)
	if err != nil {
		t.Fatalf("re-parse printed output: %v\noutput:\n%s", err, out1)
	}
	out2 := Print(prog2)
	if out1 != out2 {
		t.Fatalf("print not idempotent:\nfirst:\n%s\nsecond:\n%s", out1, out2)
	}
	return out1
}

func TestRoundTripStatements(t *testing.T) {
	cases := []string{
		"let a = 1;",
		"const x = [1, 2, ...rest];",
		`var s = "he said \"hi\"";`,
		"function f(a, b) { return a + b; }",
		"async function g(x) { return await x; }",
		"if (a) { f(); } else if (b) { g(); } else { h(); }",
		"for (let i = 0; i < 10; i++) { use(i); }",
		"for (const k in obj) { use(k); }",
		"for (let v of items) { use(v); }",
		"while (ready()) { tick(); }",
		"do { tick(); } while (more());",
		"try { risky(); } catch (e) { log(e); } finally { done(); }",
		"switch (x) { case 1: one(); break; default: other(); }",
		"throw new Error(\"boom\");",
		"class A extends B { constructor(x) { this.x = x; } static make() { return new A(1); } }",
		"const o = { a: 1, \"b c\": 2, nested: { deep: [3] } };",
		"const fn = (a, b) => a * b;",
		"const fn2 = x => { return x + 1; };",
		"items.map(i => ({ id: i }));",
		"const t = `rate=${r}Hz, n=${n}`;",
		"a.b.c.d(1)(2)[k];",
		"x = a ? b : c;",
		"i++; --j; k **= 2;",
		"delete obj.prop;",
		"const v = typeof x;",
		"f(...args);",
		"new aws.S3Client(config).connect();",
		"break;",
		"continue;",
		";",
	}
	for _, src := range cases {
		wrapped := src
		if strings.HasPrefix(src, "break") || strings.HasPrefix(src, "continue") {
			wrapped = "while (x) { " + src + " }"
		}
		roundTrip(t, wrapped)
	}
}

func TestRoundTripPaperSnippet(t *testing.T) {
	src := `
socket.on("data", frame => {
  const scene = analyzeVideoFrame(frame);
  for (let person of scene.persons) {
    person.description = person.action + " at " + scene.location;
    if (person.employeeID) {
      deviceControl.send(person);
    }
  }
  emailSender.send(scene);
  storage.send(scene);
});`
	out := roundTrip(t, src)
	for _, want := range []string{"socket.on", "analyzeVideoFrame", "person.description", "emailSender.send"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPrecedenceParens(t *testing.T) {
	cases := map[string]string{
		"x = (a + b) * c;":   "(a + b) * c",
		"x = a * (b + c);":   "a * (b + c)",
		"x = -(a + b);":      "-(a + b)",
		"x = (a, b);":        "(a, b)",
		"x = (a = b) + 1;":   "(a = b) + 1",
		"f((a, b));":         "f((a, b))",
		"x = (a ? b : c).y;": "(a ? b : c).y",
	}
	for src, want := range cases {
		out := roundTrip(t, src)
		if !strings.Contains(out, want) {
			t.Errorf("%q printed as %q, want substring %q", src, strings.TrimSpace(out), want)
		}
	}
}

func TestSemanticsPreservingParens(t *testing.T) {
	// (a+b)*c must not print as a+b*c.
	prog := parser.MustParse("t.js", "r = (1 + 2) * 3;")
	out := Print(prog)
	prog2 := parser.MustParse("t2.js", out)
	assign := prog2.Body[0].(*ast.ExprStmt).X.(*ast.AssignExpr)
	top := assign.Value.(*ast.BinaryExpr)
	if top.Op != "*" {
		t.Fatalf("reparsed top op = %q in %q", top.Op, out)
	}
}

func TestNumberFormatting(t *testing.T) {
	cases := map[string]string{
		"x = 42;":    "42",
		"x = 3.5;":   "3.5",
		"x = 0x10;":  "16",
		"x = 1e3;":   "1000",
		"x = 2.5e-3": "0.0025",
	}
	for src, want := range cases {
		out := roundTrip(t, src)
		if !strings.Contains(out, want) {
			t.Errorf("%q → %q, want %q", src, strings.TrimSpace(out), want)
		}
	}
}

func TestStringQuoting(t *testing.T) {
	prog := parser.MustParse("t.js", `x = "line1\nline2\t\"q\"";`)
	out := Print(prog)
	prog2 := parser.MustParse("t2.js", out)
	s := prog2.Body[0].(*ast.ExprStmt).X.(*ast.AssignExpr).Value.(*ast.StringLit)
	if s.Value != "line1\nline2\t\"q\"" {
		t.Fatalf("round-tripped string = %q", s.Value)
	}
}

func TestTemplateEscaping(t *testing.T) {
	src := "x = `a\\`b\\${c${v}`;"
	out := roundTrip(t, src)
	prog := parser.MustParse("t.js", out)
	tl := prog.Body[0].(*ast.ExprStmt).X.(*ast.AssignExpr).Value.(*ast.TemplateLit)
	if tl.Quasis[0] != "a`b${c" {
		t.Fatalf("quasi = %q", tl.Quasis[0])
	}
}

func TestObjectLitAsExprStmt(t *testing.T) {
	// An expression statement that is an object literal must be wrapped.
	prog := parser.MustParse("t.js", "x = { a: 1 };")
	ol := prog.Body[0].(*ast.ExprStmt).X.(*ast.AssignExpr).Value
	stmt := &ast.ExprStmt{NodeInfo: ast.NodeInfo{ID: 999}, X: ol}
	out := PrintStmt(stmt)
	if _, err := parser.Parse("t2.js", out); err != nil {
		t.Fatalf("printed object-literal statement does not re-parse: %q: %v", out, err)
	}
}

func TestArrowReturningObject(t *testing.T) {
	out := roundTrip(t, "const f = i => ({ id: i });")
	prog := parser.MustParse("t.js", out)
	fn := prog.Body[0].(*ast.VarDecl).Decls[0].Init.(*ast.FuncLit)
	if _, ok := fn.ExprRet.(*ast.ObjectLit); !ok {
		t.Fatalf("arrow body lost object literal: %q", out)
	}
}

func TestPrintExprStandalone(t *testing.T) {
	prog := parser.MustParse("t.js", "x = a.b(c + 1);")
	e := prog.Body[0].(*ast.ExprStmt).X.(*ast.AssignExpr).Value
	if got := PrintExpr(e); got != "a.b(c + 1)" {
		t.Fatalf("PrintExpr = %q", got)
	}
}

// Property: randomly generated expression trees survive print→parse→print.
func TestQuickExprRoundTrip(t *testing.T) {
	gen := func(seed int64) string {
		// build a deterministic nested arithmetic/call expression
		depth := int(seed%5) + 1
		expr := "x"
		for i := 0; i < depth; i++ {
			switch seed >> (uint(i) * 3) % 4 {
			case 0:
				expr = fmt.Sprintf("(%s + v%d)", expr, i)
			case 1:
				expr = fmt.Sprintf("f%d(%s)", i, expr)
			case 2:
				expr = fmt.Sprintf("%s.m%d", expr, i)
			default:
				expr = fmt.Sprintf("(%s ? a%d : b%d)", expr, i, i)
			}
		}
		return "r = " + expr + ";"
	}
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		src := gen(seed)
		prog, err := parser.Parse("q.js", src)
		if err != nil {
			return false
		}
		out1 := Print(prog)
		prog2, err := parser.Parse("q2.js", out1)
		if err != nil {
			return false
		}
		return Print(prog2) == out1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripStatementEdges(t *testing.T) {
	cases := []string{
		"do { tick(); } while (more());",
		"switch (x) { case a + 1: f(); case 2: default: g(); }",
		"class Empty { }",
		"class M { \"quoted name\"(x) { return x; } async run() { return 1; } }",
		"try { a(); } catch { b(); }",
		"for (x of xs) { }",
		"for (k in o) { }",
		"if (a) b(); else { c(); }",
		"while (x) if (y) break; else continue;",
		"let u;",
		"x = (1, 2, 3);",
		"obj.m(...rest, last);",
		"a = b = c;",
		"x = -(-y);",
		"x = +y; x = ~y; x = void y;",
		"x = a ?? (b ?? c);",
		"fn(() => {}, function named() {});",
		"(function iife() { return 1; })();",
		"f = A => ({}());",
		"f = A => ({a: 1}).a;",
	}
	for _, src := range cases {
		roundTrip(t, src)
	}
}

func TestPrintNumbersPrecisely(t *testing.T) {
	cases := []string{
		"x = 0;", "x = -0.5;", "x = 123456789;", "x = 1e+21;", "x = 0.000001;",
	}
	for _, src := range cases {
		roundTrip(t, src)
	}
}

func TestPrintComputedObjectKeyAndSpread(t *testing.T) {
	out := roundTrip(t, `const o = { [k + 1]: v, ...rest, "with space": 2 };`)
	for _, want := range []string{"[k + 1]:", "...rest", `"with space": 2`} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in %q", want, out)
		}
	}
}

func TestPrintStmtAndExprHelpers(t *testing.T) {
	prog := parser.MustParse("t.js", "while (a) { b(); }")
	if got := PrintStmt(prog.Body[0]); !strings.Contains(got, "while (a)") {
		t.Fatalf("PrintStmt = %q", got)
	}
}
