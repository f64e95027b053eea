package instrument

import (
	"fmt"
	"strings"
	"testing"

	"turnstile/internal/ast"
	"turnstile/internal/asttest"
	"turnstile/internal/guard"
	"turnstile/internal/interp"
	"turnstile/internal/parser"
	"turnstile/internal/policy"
	"turnstile/internal/printer"
	"turnstile/internal/resolve"
	"turnstile/internal/taint"
	"turnstile/internal/vm"
)

// FuzzPipeline drives the full Turnstile pipeline on arbitrary programs:
// anything that parses must analyze, instrument (both modes, with implicit
// flows), deploy the way core.Prepare does (print and stamp the
// instrumentor's own tree, resolve it), and execute under a bounded step
// budget without panicking. Runtime errors are acceptable; crashes, an
// unparseable print, and a deployed tree that differs from the parsed
// print are not.
func FuzzPipeline(f *testing.F) {
	seeds := []string{
		`const fs = require("fs");
const ws = fs.createWriteStream("/out");
fs.createReadStream("/in").on("data", d => { ws.write(d.trim()); });`,
		`let a = 0; for (let i = 0; i < 3; i++) { a += i; } console.log(a);`,
		`function f(x) { return x ? f(x - 1) : 0; } f(3);`,
		`const o = { m() { return this.v; }, v: 7 }; o.m();`,
		`class C { constructor() { this.n = 1; } bump() { this.n++; } }
new C().bump();`,
		`try { JSON.parse("{"); } catch (e) { console.log(e.name); }`,
		"`a${1 + 2}b`.split('a');",
		// async/await through a Promise chain
		`async function load(x) { return x + 1; }
async function main() { const v = await load(41); console.log(v); }
main();`,
		`new Promise((resolve) => resolve(7)).then(v => console.log(v * 2));`,
		// spread in calls, array literals and object literals
		`function sum(a, b, c) { return a + b + c; }
const xs = [1, 2, 3];
console.log(sum(...xs), [0, ...xs, 4].length);`,
		`const base = { a: 1, b: 2 };
const more = { ...base, c: 3 };
console.log(JSON.stringify(more));`,
		// template strings: nested interpolation and tainted-looking pipes
		"const who = \"cam\" ; console.log(`frame:${who}:${`inner${1+1}`}`);",
		"let acc = \"\"; for (let i = 0; i < 3; i++) { acc = `${acc}|${i * i}`; } console.log(acc);",
		// classes: inheritance, statics, methods touching this
		`class Sensor {
  constructor(id) { this.id = id; this.seen = 0; }
  read(v) { this.seen++; return this.id + ":" + v; }
  static kind() { return "sensor"; }
}
class Camera extends Sensor {
  read(v) { return "cam/" + v; }
}
console.log(new Camera("c1").read("f0"), Sensor.kind());`,
		// deeply nested invoke chains: every call site is an invoke-check
		// candidate, and the receivers of inner calls are themselves call
		// results
		`const w = { get(x) { return { get(y) { return { get(z) { return x + y + z; } }; } }; } };
console.log(w.get(1).get(2).get(3), w.get(w.get(0).get(0).get(0)).get(4).get(5));`,
		`function chain(n) { return { next() { return n > 0 ? chain(n - 1) : null; }, v: n }; }
console.log(chain(4).next().next().next().v);`,
		// implicit-flow shapes: branches, loops and early returns whose
		// conditions guard later assignments (exercises the pc-scope stack)
		`let secret = 1, leak = 0;
if (secret > 0) { leak = 1; } else { leak = 2; }
while (leak < 3) { if (secret) { leak++; } }
console.log(leak);`,
		`function gate(s) { let out = "lo"; if (s) { if (s > 1) { out = "hi"; } } return out; }
console.log(gate(0) + gate(1) + gate(2));`,
		// crash-corpus shapes: resource-abusive programs must trip the guard
		// budgets as typed errors even after instrumentation doubles their
		// step and allocation footprint
		`while (true) { }`,
		`function f(n) { return f(n + 1); } f(0);`,
		`function even(n) { return odd(n + 1); } function odd(n) { return even(n + 1); } even(0);`,
		`let s = "xxxxxxxx"; while (true) { s = s + s; }`,
		`let a = []; while (true) { a.push(1, 2, 3, 4); }`,
		`function t(n) { setTimeout(function() { t(n + 1); }, 1000); } t(0);`,
		// attack-corpus shapes: control-flow channel encoding, declassifier
		// and endorsement abuse, and computed-key label smuggling (the
		// declassify/endorse globals exist whenever a tracker is installed,
		// so these exercise the CNF refusal paths under the flat policy)
		`const secret = "TOP"; let out = "";
for (let i = 0; i < secret.length; i++) {
  const c = secret.charCodeAt(i) % 4;
  if (c === 0) { out += "a"; } if (c === 1) { out += "b"; }
  if (c === 2) { out += "c"; } if (c === 3) { out += "d"; }
}
console.log(out);`,
		`const secret = "s3cr3t";
const copy = declassify("" + secret, "release");
console.log(copy.length);`,
		`const secret = "k";
if (secret.length > 0) { declassify(secret, "release"); endorse(true, "audit"); }`,
		`const gate = endorse(1 + 1, "audit");
if (gate) { console.log(declassify("x", "release")); }`,
		`const pkg = { kind: "report" };
const key = "p" + "ayload";
pkg[key] = "hidden";
console.log(pkg.kind, Object.keys(pkg).length);`,
		`function node1(m) { return m.split(""); }
function node2(cs) { let r = ""; for (const c of cs) { r += c; } return r; }
console.log(node2(node1("wired")));`,
		// deep-but-parseable nesting: exercises analysis, instrumentation and
		// printing recursion well below the parser's depth limit
		"console.log(" + strings.Repeat("(", 200) + "1 + 2" + strings.Repeat(")", 200) + ");",
		"const deep = " + strings.Repeat("[", 200) + "7" + strings.Repeat("]", 200) + "; console.log(deep.length);",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := parser.Parse("fz.js", src)
		if err != nil {
			return
		}
		topts := taint.DefaultOptions()
		topts.ImplicitFlows = true
		analysis := taint.Analyze([]taint.File{{Name: "fz.js", Prog: prog}}, topts)
		for _, mode := range []Mode{Selective, Exhaustive} {
			res, err := Instrument(prog, Options{
				Mode:          mode,
				Selection:     Selection(analysis.SelectionFor("fz.js")),
				ImplicitFlows: true,
			})
			if err != nil {
				t.Fatalf("instrument(%v): %v", mode, err)
			}
			managed := deployChecked(t, mode, src, prog, res)
			ip := interp.New()
			ip.MaxSteps = 200_000
			// the guard bounds what the step budget cannot: exponential
			// allocation and timer-driven virtual-time runaways both end in a
			// typed BudgetError instead of exhausting host memory
			ip.SetGuard(guard.New(guard.Limits{
				Fuel:          400_000,
				MaxDepth:      512,
				MaxAlloc:      1 << 20,
				DeadlineTicks: 100_000,
			}))
			pol, err := policy.ParseJSON([]byte(`{"rules":["a -> b"]}`), ip.CompileLabelFunc)
			if err != nil {
				t.Fatal(err)
			}
			tr := ip.InstallTracker(pol)
			tr.EnableImplicit()
			_ = ip.Run(managed) // runtime errors are fine; panics are not
		}
	})
}

// execOutput runs one resolved program version in a fresh interpreter and
// returns its observable output (console lines plus every sink write), or
// ok=false if it hit a runtime error or the step budget.
func execOutput(t *testing.T, prog *ast.Program, instrumented bool, maxSteps int64) (out []string, ok bool) {
	t.Helper()
	ip := interp.New()
	ip.MaxSteps = maxSteps
	if instrumented {
		// a rule-free policy: nothing is ever labelled, so no flow can
		// violate — the program is violation-free by construction
		pol, err := policy.ParseJSON([]byte(`{"rules":[]}`), ip.CompileLabelFunc)
		if err != nil {
			t.Fatal(err)
		}
		tr := ip.InstallTracker(pol)
		tr.Enforce = false
	}
	if err := ip.Run(prog); err != nil {
		return nil, false
	}
	out = append(out, ip.ConsoleOut...)
	for _, w := range ip.IO.Writes {
		out = append(out, fmt.Sprintf("%s>%v", w.Module, w.Value))
	}
	return out, true
}

// FuzzInstrumentEquivalence is the non-invasiveness property (C3) as a
// fuzz target: on any violation-free program — enforced here by running
// under a rule-free policy, where no flow can be blocked — selective and
// exhaustive instrumentation must preserve the program's observable
// output exactly. Nondeterministic or erroring inputs are skipped (no
// parity claim exists for them); an output mismatch or an error
// introduced by instrumentation is a real bug.
//
// The instrumented version runs the way deployment runs it: the
// instrumentor's own tree, stamped by printer.Stamp and resolved. Along
// the way the target checks that the tree shares no node with its input,
// and that it equals resolve(parser.Parse(printed)) node for node, with
// the same bytecode and unique node IDs below MaxID.
func FuzzInstrumentEquivalence(f *testing.F) {
	seeds := []string{
		`let a = 2; for (let i = 0; i < 4; i++) { a = a * a % 97; } console.log(a);`,
		`const fs = require("fs");
const ws = fs.createWriteStream("/out");
ws.write("x:" + (1 + 2));
console.log("done");`,
		`async function twice(v) { return v * 2; }
twice(21).then(v => console.log(v));`,
		`const xs = [3, 1, 2];
console.log([...xs].sort().join("-"), { ...{ k: 1 } }.k);`,
		"let s = `p${3 * 3}q`;\nconsole.log(s.toUpperCase());",
		`class Box { constructor(v) { this.v = v; } get2() { return this.v + 2; } }
console.log(new Box(5).get2());`,
		`function rec(n) { return n <= 0 ? "" : rec(n - 1) + n; }
console.log(rec(5));`,
		// nested invoke chain: parity must survive invoke-checks on receivers
		// that are themselves call results
		`const mk = v => ({ add(d) { return mk(v + d); }, v() { return v; } });
console.log(mk(1).add(2).add(3).v());`,
		// implicit-flow branch shape: condition-guarded assignments inside a
		// loop, then the result flows to a sink
		`const fs = require("fs");
const ws = fs.createWriteStream("/out");
let acc = 0;
for (let i = 0; i < 5; i++) { if (i % 2) { acc += i; } else { acc -= 1; } }
ws.write("acc:" + acc);
console.log(acc > 0 ? "pos" : "neg");`,
		// bounded crash-corpus shapes: the terminating cousins of the guard
		// battery — parity must hold right up to the edge of the budgets
		`function f(n) { return n <= 0 ? 0 : f(n - 1) + 1; } console.log(f(60));`,
		`let s = "x"; for (let i = 0; i < 10; i++) { s = s + s; } console.log(s.length);`,
		`let a = []; for (let i = 0; i < 50; i++) { a.push(i, i * i); } console.log(a.length, a[99]);`,
		`function tick(n) { if (n <= 0) { console.log("done"); return; } setTimeout(function() { tick(n - 1); }, 10); }
tick(5);`,
		"const deep = " + strings.Repeat("[", 60) + "3" + strings.Repeat("]", 60) + "; console.log(deep.length);",
		// attack-corpus shapes (minus declassify/endorse, which only exist
		// under an installed tracker and would error in the uninstrumented
		// original): channel encoding and computed-key property stashing must
		// keep exact output parity under instrumentation
		`const word = "PLAN"; let enc = "";
for (let i = 0; i < word.length; i++) {
  const k = word.charCodeAt(i) % 3;
  if (k === 0) { enc += "0"; } if (k === 1) { enc += "1"; } if (k === 2) { enc += "2"; }
}
console.log(enc);`,
		`const pkg = { kind: "report" };
const key = "pay" + "load";
pkg[key] = "stash";
console.log(pkg.kind + ":" + pkg[key] + ":" + Object.keys(pkg).join(","));`,
		`function hop1(m) { let o = ""; for (let i = 0; i < m.length; i++) { o = o + m[i]; } return o; }
function hop2(m) { return hop1(m) + "!"; }
console.log(hop2("relay"));`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	const budget = 150_000
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := parser.Parse("eq.js", src)
		if err != nil {
			return
		}
		want, ok := execOutput(t, parsedResolved(t, src), false, budget)
		if !ok {
			return // original errors out: nothing to compare
		}
		// self-nondeterminism guard: only claim parity for programs whose
		// output is reproducible in the first place
		again, ok := execOutput(t, parsedResolved(t, src), false, budget)
		if !ok || len(again) != len(want) {
			return
		}
		for i := range want {
			if want[i] != again[i] {
				return
			}
		}
		analysis := taint.Analyze([]taint.File{{Name: "eq.js", Prog: prog}}, taint.DefaultOptions())
		for _, mode := range []Mode{Selective, Exhaustive} {
			res, err := Instrument(prog, Options{
				Mode:      mode,
				Selection: Selection(analysis.SelectionFor("eq.js")),
			})
			if err != nil {
				t.Fatalf("instrument(%v): %v\ninput: %q", mode, err, src)
			}
			deployed := deployChecked(t, mode, src, prog, res)
			// the tracker calls cost extra interpreter steps, so the
			// instrumented budget is larger; parity failures below are
			// therefore real, not budget artifacts
			got, ok := execOutput(t, deployed, true, 20*budget)
			if !ok {
				t.Fatalf("%v instrumentation made a clean program fail\ninput: %q\ninstrumented:\n%s",
					mode, src, printer.Print(deployed))
			}
			if len(got) != len(want) {
				t.Fatalf("%v instrumentation changed output length: %d vs %d\ninput: %q\n got: %q\nwant: %q",
					mode, len(got), len(want), src, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v instrumentation changed output line %d:\n got: %q\nwant: %q\ninput: %q",
						mode, i, got[i], want[i], src)
				}
			}
		}
	})
}

// parsedResolved parses and resolves a source the fuzz target already
// knows to parse.
func parsedResolved(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := parser.Parse("eq.js", src)
	if err != nil {
		t.Fatalf("does not parse: %v\n%s", err, src)
	}
	resolve.Resolve(prog)
	return prog
}

// deployChecked readies res.Program the way core.Prepare does — printer.Stamp,
// then resolve.Resolve on the same tree — and returns it, after checking
// the deploy path's contract on it: it shares no node with the input in,
// it equals resolve(parser.Parse(printed)) node for node, positions and
// annotations included, both compile to the same bytecode, and its node
// IDs are unique and below MaxID.
func deployChecked(t *testing.T, mode Mode, src string, in *ast.Program, res *Result) *ast.Program {
	t.Helper()
	deployed := res.Program
	if n := sharedNodes(in, deployed); n > 0 {
		t.Fatalf("%v instrumentation shares %d nodes with its input\ninput: %q", mode, n, src)
	}
	printed, err := printer.Stamp(deployed)
	if err != nil {
		t.Fatalf("%v: %v\ninput: %q", mode, err, src)
	}
	resolve.Resolve(deployed)
	reparsed, err := parser.Parse(deployed.File, printed)
	if err != nil {
		t.Fatalf("%v instrumented output does not re-parse: %v\ninput: %q\noutput:\n%s", mode, err, src, printed)
	}
	resolve.Resolve(reparsed)
	if d := asttest.Diff(deployed, reparsed); d != "" {
		t.Fatalf("%v deployed tree differs from the parsed print: %s\ninput: %q\ninstrumented:\n%s",
			mode, d, src, printed)
	}
	if d := asttest.DiffModules(deployed, vm.Compile(deployed), reparsed, vm.Compile(reparsed)); d != "" {
		t.Fatalf("%v bytecode differs: %s\ninput: %q", mode, d, src)
	}
	if err := asttest.CheckIDs(deployed); err != nil {
		t.Fatalf("%v: %v\ninput: %q", mode, err, src)
	}
	return deployed
}

// TestBareBodyVarSurvivesInstrumentation: MiniJS scopes a var to its
// block, so a var declared in a bare if or else body is visible after the
// statement only while the body stays bare. Deployed after selective or
// exhaustive instrumentation, both programs print what the original
// prints, on both engines.
func TestBareBodyVarSurvivesInstrumentation(t *testing.T) {
	for _, src := range []string{
		"var c = true;\nif (c) var x = 5;\nconsole.log(x);",
		"var c = false;\nif (c) console.log(\"then\"); else var y = 6;\nconsole.log(y);",
	} {
		for _, engine := range interp.Engines {
			run := func(mode *Mode) string {
				prog := parser.MustParse("bare.js", src)
				ip := interp.New()
				ip.Engine = engine
				if mode != nil {
					analysis := taint.Analyze([]taint.File{{Name: "bare.js", Prog: prog}}, taint.DefaultOptions())
					res, err := Instrument(prog, Options{Mode: *mode, Selection: Selection(analysis.SelectionFor("bare.js"))})
					if err != nil {
						t.Fatal(err)
					}
					prog = deployChecked(t, *mode, src, prog, res)
					pol, err := policy.ParseJSON([]byte(`{"rules":[]}`), ip.CompileLabelFunc)
					if err != nil {
						t.Fatal(err)
					}
					ip.InstallTracker(pol)
				} else {
					resolve.Resolve(prog)
				}
				if err := ip.Run(prog); err != nil {
					t.Fatalf("%v %v: %v\nsource: %q", engine, mode, err, src)
				}
				return strings.Join(ip.ConsoleOut, "\n")
			}
			want := run(nil)
			for _, mode := range []Mode{Selective, Exhaustive} {
				if got := run(&mode); got != want {
					t.Fatalf("%v %v: output %q, original %q\nsource: %q", engine, mode, got, want, src)
				}
			}
		}
	}
}

// sharedNodes counts the nodes of out that are reachable from in.
func sharedNodes(in, out ast.Node) int {
	seen := make(map[ast.Node]bool)
	ast.Walk(in, func(n ast.Node) bool {
		seen[n] = true
		return true
	})
	shared := 0
	ast.Walk(out, func(n ast.Node) bool {
		if seen[n] {
			shared++
		}
		return true
	})
	return shared
}
