package parser

import (
	"reflect"
	"testing"

	"turnstile/internal/asttest"
	"turnstile/internal/lexer"
	"turnstile/internal/printer"
)

// Native fuzz targets. Run with `go test -fuzz=FuzzParse ./internal/parser`;
// under plain `go test` the seed corpus below is exercised.

func FuzzParse(f *testing.F) {
	seeds := []string{
		"let a = 1;",
		"function f(a, ...rest) { return a + rest.length; }",
		`socket.on("data", frame => handle(frame));`,
		"class A extends B { m() { return new A(); } }",
		"const o = { [k]: v, ...spread, short };",
		"x = `tpl ${a + `nested ${b}`} end`;",
		"for (const k in o) for (const v of xs) if (k) break; else continue;",
		"try { a(); } catch (e) { b(); } finally { c(); }",
		"a?.b?.[c]?.(d);",
		"x = a ?? b ?? c; y ??= 1; z &&= 2;",
		"switch (x) { case 1: case 2: f(); default: }",
		"async function g() { return await (async () => 1)(); }",
		"do ; while (0)",
		"({} + [])",
		"0x1F + .5e2 - 1e-9;",
		"\"\\u0041\\n\" + '\\''",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// the first-byte punctuator buckets against the linear scan they
		// replaced: same tokens, or the same error
		toks, terr := lexer.Tokenize(src)
		want, werr := lexer.TokenizeLinear(src)
		if !reflect.DeepEqual(toks, want) || !reflect.DeepEqual(terr, werr) {
			t.Fatalf("token streams differ on %q:\nbucketed %v (err %v)\nlinear   %v (err %v)", src, toks, terr, want, werr)
		}
		prog, err := Parse("fuzz.js", src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		// printing anything we parsed must re-parse, and be a fixpoint
		out1 := printer.Print(prog)
		prog2, err := Parse("fuzz2.js", out1)
		if err != nil {
			t.Fatalf("printed output does not re-parse: %v\ninput: %q\noutput:\n%s", err, src, out1)
		}
		if out2 := printer.Print(prog2); out2 != out1 {
			t.Fatalf("print not idempotent\ninput: %q\nfirst:\n%s\nsecond:\n%s", src, out1, out2)
		}
		// stamping is a printer property: Stamp prints the same text and
		// leaves its tree equal, positions included, to the parsed print
		own, _ := Parse(prog2.File, src)
		stamped, err := printer.Stamp(own)
		if err != nil || stamped != out1 {
			t.Fatalf("Stamp printed differently (err %v)\ninput: %q", err, src)
		}
		if d := asttest.Diff(own, prog2); d != "" {
			t.Fatalf("stamped tree differs from the parsed print: %s\ninput: %q\noutput:\n%s", d, src, out1)
		}
	})
}

func FuzzParseNeverPanics(f *testing.F) {
	f.Add([]byte("let x = 1;"))
	f.Add([]byte("\x00\xff{{{"))
	f.Add([]byte("`${`${`${a}`}`}`"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		_, _ = Parse("bin.js", string(raw))
	})
}
