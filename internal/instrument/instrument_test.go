package instrument

import (
	"strings"
	"testing"

	"turnstile/internal/ast"
	"turnstile/internal/interp"
	"turnstile/internal/parser"
	"turnstile/internal/policy"
	"turnstile/internal/printer"
)

// The original FaceRecognizer of Figure 2a, over the host net module.
const fig2aSource = `
const net = require("net");
const socket = net.connect({ host: "cam", port: 554 });

const deviceControl = { send: function(p) { return "device" } };
const emailSender = { send: function(s) { return "email" } };
const storage = { send: function(s) { return "storage" } };

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
});

function analyzeVideoFrame(frame) {
  const persons = [];
  for (let part of frame.split("|")) {
    const bits = part.split(":");
    const p = { name: bits[0], action: "walking" };
    if (bits[1] !== "") { p.employeeID = bits[1]; }
    persons.push(p);
  }
  return { persons: persons, location: "lobby" };
}
`

const fig4PolicyJSON = `{
  "labellers": {
    "Scene": { "persons": { "$map": "item => item.employeeID ? \"employee\" : \"customer\"" } }
  },
  "rules": [ "employee -> customer", "customer -> internal" ],
  "injections": [ { "object": "scene", "labeller": "Scene" } ]
}`

// allNodes selects every original node — for tests that need a full
// selection without running the analyzer.
func allNodes(prog *ast.Program) Selection {
	sel := Selection{}
	ast.Walk(prog, func(n ast.Node) bool {
		sel[n.NodeID()] = true
		return true
	})
	return sel
}

func setupInstrumented(t *testing.T, mode Mode, sel Selection) (*interp.Interp, *Result) {
	t.Helper()
	prog, err := parser.Parse("face-recognizer.js", fig2aSource)
	if err != nil {
		t.Fatal(err)
	}
	ip := interp.New()
	pol, err := policy.ParseJSON([]byte(fig4PolicyJSON), ip.CompileLabelFunc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Instrument(prog, Options{
		Mode:       mode,
		Selection:  sel,
		Injections: pol.Injections,
	})
	if err != nil {
		t.Fatal(err)
	}
	// print → re-parse → run: the deployed artifact is source code
	src := printer.Print(res.Program)
	reparsed, err := parser.Parse("face-recognizer.inst.js", src)
	if err != nil {
		t.Fatalf("instrumented output does not re-parse: %v\n%s", err, src)
	}
	tr := ip.InstallTracker(pol)
	tr.Enforce = true
	if err := ip.Run(reparsed); err != nil {
		t.Fatalf("instrumented program failed: %v\n%s", err, src)
	}
	return ip, res
}

func labelSink(t *testing.T, ip *interp.Interp, name string, labels ...policy.Label) {
	t.Helper()
	v, ok := ip.Globals.Lookup(name)
	if !ok {
		t.Fatalf("%s not defined", name)
	}
	ip.Tracker.Attach(v, policy.NewLabelSet(labels...))
}

func emit(t *testing.T, ip *interp.Interp, frame string) error {
	t.Helper()
	src, ok := ip.Source("net.socket:cam:554")
	if !ok {
		t.Fatal("socket source missing")
	}
	return ip.Emit(src, "data", frame)
}

func TestExhaustiveInstrumentationEnforces(t *testing.T) {
	ip, res := setupInstrumented(t, Exhaustive, nil)
	if res.BinaryOps == 0 || res.Invokes == 0 || res.Labels == 0 {
		t.Fatalf("result = %+v", res)
	}
	labelSink(t, ip, "deviceControl", "employee")
	labelSink(t, ip, "storage", "internal")
	labelSink(t, ip, "emailSender", "internal")

	if err := emit(t, ip, "kim:E7"); err != nil {
		t.Fatalf("employee frame should pass: %v", err)
	}
	// relabel email sink "employee": a frame with a customer must now be
	// blocked when the scene flows to it
	labelSink(t, ip, "emailSender", "employee")
	if err := emit(t, ip, "visitor:"); err == nil {
		t.Fatal("customer → employee sink should be blocked")
	}
	if len(ip.Tracker.Violations()) == 0 {
		t.Fatal("no violation recorded")
	}
}

func TestSelectiveMatchesExhaustiveOnSelectedPath(t *testing.T) {
	prog, _ := parser.Parse("f.js", fig2aSource)
	ipSel, resSel := setupInstrumented(t, Selective, allNodes(prog))
	labelSink(t, ipSel, "emailSender", "employee")
	errSel := emit(t, ipSel, "visitor:")

	ipExh, _ := setupInstrumented(t, Exhaustive, nil)
	labelSink(t, ipExh, "emailSender", "employee")
	errExh := emit(t, ipExh, "visitor:")

	if (errSel == nil) != (errExh == nil) {
		t.Fatalf("verdicts differ: selective=%v exhaustive=%v", errSel, errExh)
	}
	if resSel.Invokes == 0 {
		t.Fatal("selective with full selection should instrument calls")
	}
}

func TestEmptySelectionOnlyInjectsLabels(t *testing.T) {
	ip, res := setupInstrumented(t, Selective, Selection{})
	if res.BinaryOps != 0 || res.Invokes != 0 || res.Tracks != 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.Labels == 0 {
		t.Fatal("labeller injection should still apply")
	}
	// program still runs and labels scenes, but no checks fire
	labelSink(t, ip, "emailSender", "employee")
	if err := emit(t, ip, "visitor:"); err != nil {
		t.Fatalf("uninstrumented path must not check: %v", err)
	}
	if ip.Tracker.Stats().Labelled == 0 {
		t.Fatal("label() not invoked")
	}
}

func TestOriginalBehaviourPreserved(t *testing.T) {
	// Instrumented and original versions must produce the same observable
	// I/O when no policy violations occur (non-invasiveness, C3).
	runApp := func(mode *Mode) *interp.Interp {
		prog, _ := parser.Parse("app.js", `
const fs = require("fs");
const rs = fs.createReadStream("/in");
let count = 0;
rs.on("data", chunk => {
  const upper = chunk.toUpperCase() + "!" + count;
  count = count + 1;
  fs.writeFileSync("/out" + count, upper);
});
`)
		ip := interp.New()
		pol, _ := policy.ParseJSON([]byte(`{"rules": ["a -> b"]}`), ip.CompileLabelFunc)
		var toRun = prog
		if mode != nil {
			res, err := Instrument(prog, Options{Mode: *mode})
			if err != nil {
				t.Fatal(err)
			}
			src := printer.Print(res.Program)
			toRun, err = parser.Parse("app.inst.js", src)
			if err != nil {
				t.Fatalf("%v\n%s", err, src)
			}
		}
		ip.InstallTracker(pol)
		if err := ip.Run(toRun); err != nil {
			t.Fatal(err)
		}
		src, _ := ip.Source("fs.readStream:/in")
		for _, msg := range []string{"alpha", "beta", "gamma"} {
			if err := ip.Emit(src, "data", msg); err != nil {
				t.Fatal(err)
			}
		}
		return ip
	}
	exh := Exhaustive
	sel := Selective
	orig := runApp(nil)
	instEx := runApp(&exh)
	instSel := runApp(&sel)
	for _, inst := range []*interp.Interp{instEx, instSel} {
		if len(inst.IO.Writes) != len(orig.IO.Writes) {
			t.Fatalf("write counts differ: %d vs %d", len(inst.IO.Writes), len(orig.IO.Writes))
		}
		for i := range orig.IO.Writes {
			if inst.IO.Writes[i].Value != orig.IO.Writes[i].Value || inst.IO.Writes[i].Target != orig.IO.Writes[i].Target {
				t.Fatalf("write %d differs: %+v vs %+v", i, inst.IO.Writes[i], orig.IO.Writes[i])
			}
		}
	}
}

func TestInstrumentedSourceContainsTauCalls(t *testing.T) {
	prog, _ := parser.Parse("f.js", fig2aSource)
	pol, err := policy.ParseJSON([]byte(fig4PolicyJSON), func(string) (policy.LabelFunc, error) {
		return func(...any) (policy.LabelSet, error) { return nil, nil }, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Instrument(prog, Options{Mode: Exhaustive, Injections: pol.Injections})
	if err != nil {
		t.Fatal(err)
	}
	src := printer.Print(res.Program)
	for _, want := range []string{`__t.label(`, `__t.binaryOp("+"`, `__t.invoke(deviceControl, "send"`, `__t.invoke(storage, "send"`} {
		if !strings.Contains(src, want) {
			t.Errorf("instrumented source missing %q:\n%s", want, src)
		}
	}
}

func TestCompoundAssignRewrite(t *testing.T) {
	prog, _ := parser.Parse("c.js", "let s = seed; s += chunk;")
	res, err := Instrument(prog, Options{Mode: Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	src := printer.Print(res.Program)
	if !strings.Contains(src, `s = __t.binaryOp("+", s, `) {
		t.Fatalf("compound assignment not rewritten:\n%s", src)
	}
}

func TestParamInjection(t *testing.T) {
	// Fig. 7 style: the injection target is a callback parameter.
	src := `
function onResult(result) {
  handle(result);
}
function handle(r) { return r; }
`
	prog, _ := parser.Parse("face-recognition.js", src)
	res, err := Instrument(prog, Options{
		Mode: Selective,
		Injections: []policy.Injection{
			{File: "face-recognition.js", Object: "result", Labeller: "onRecognize"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := printer.Print(res.Program)
	if !strings.Contains(out, `result = __t.label(result, "onRecognize");`) {
		t.Fatalf("param injection missing:\n%s", out)
	}
	if res.Labels != 1 {
		t.Fatalf("labels = %d", res.Labels)
	}
}

func TestInjectionLineFilter(t *testing.T) {
	src := "const x = mk();\nconst y = mk();\nfunction mk() { return {}; }"
	prog, _ := parser.Parse("a.js", src)
	res, _ := Instrument(prog, Options{
		Mode:       Selective,
		Injections: []policy.Injection{{Object: "y", Line: 2, Labeller: "L"}},
	})
	out := printer.Print(res.Program)
	if strings.Contains(out, `__t.label(mk(), "L")`) && strings.Contains(strings.Split(out, "\n")[0], "__t.label") {
		t.Fatalf("wrong line instrumented:\n%s", out)
	}
	if res.Labels != 1 {
		t.Fatalf("labels = %d", res.Labels)
	}
}

func TestSpreadCallsStayNative(t *testing.T) {
	prog, _ := parser.Parse("s.js", "f(...args); obj.m(...args);")
	res, _ := Instrument(prog, Options{Mode: Exhaustive})
	out := printer.Print(res.Program)
	if strings.Contains(out, "__t.invoke") || strings.Contains(out, "__t.call") {
		t.Fatalf("spread call should not be wrapped:\n%s", out)
	}
}

func TestComputedCallOverApproximation(t *testing.T) {
	// foo[x](y) — sound over-approximation of §4.5
	prog, _ := parser.Parse("d.js", "foo[x](y);")
	res, _ := Instrument(prog, Options{Mode: Exhaustive})
	out := printer.Print(res.Program)
	if !strings.Contains(out, "__t.invoke(foo, x, [y]") {
		t.Fatalf("computed call not instrumented:\n%s", out)
	}
	if res.Invokes != 1 {
		t.Fatalf("invokes = %d", res.Invokes)
	}
}

func TestRequireNotWrapped(t *testing.T) {
	prog, _ := parser.Parse("r.js", `const fs = require("fs");`)
	res, _ := Instrument(prog, Options{Mode: Exhaustive})
	out := printer.Print(res.Program)
	if strings.Contains(out, `__t.call(require`) {
		t.Fatalf("require must stay native:\n%s", out)
	}
	_ = res
}

// TestOnlyTrackerCallsStayNative: a call passes through as a tracker call
// only by the rule both engines apply (vm.TrackerOp), its callee as
// written even in exhaustive mode; any other call on a `__t` is
// instrumented like any call.
func TestOnlyTrackerCallsStayNative(t *testing.T) {
	prog, _ := parser.Parse("t.js", "__t.check(d, r);\n__t.write(d);\n__t(d);")
	res, _ := Instrument(prog, Options{Mode: Exhaustive})
	out := printer.Print(res.Program)
	for _, want := range []string{
		`__t.check(d, r);`,
		`__t.invoke(__t, "write", [d], "t.js:2:1");`,
		`__t.call(__t, [d], "t.js:3:1");`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %s in:\n%s", want, out)
		}
	}
	if res.Invokes != 2 {
		t.Errorf("invokes = %d, want 2", res.Invokes)
	}
}

func TestInstrumentIdempotentIDs(t *testing.T) {
	prog, _ := parser.Parse("i.js", fig2aSource)
	res, _ := Instrument(prog, Options{Mode: Exhaustive})
	seen := map[int]bool{}
	ast.Walk(res.Program, func(n ast.Node) bool {
		if n == res.Program {
			return true
		}
		if seen[n.NodeID()] {
			t.Fatalf("duplicate node ID %d in instrumented tree (%T)", n.NodeID(), n)
		}
		seen[n.NodeID()] = true
		return true
	})
	if res.Program.MaxID <= prog.MaxID {
		t.Fatal("MaxID should grow")
	}
}

func TestUnmatchedInjectionsReported(t *testing.T) {
	prog, _ := parser.Parse("a.js", "const x = mk();\nfunction mk() { return {}; }")
	res, err := Instrument(prog, Options{
		Mode: Selective,
		File: "a.js",
		Injections: []policy.Injection{
			{Object: "x", Labeller: "L"},                   // matches
			{Object: "ghost", Labeller: "L"},               // no such object
			{Object: "x", Line: 99, Labeller: "L"},         // wrong line
			{File: "other.js", Object: "y", Labeller: "L"}, // other file: not reported here
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Labels != 1 {
		t.Fatalf("labels = %d", res.Labels)
	}
	if len(res.UnmatchedInjections) != 2 {
		t.Fatalf("unmatched = %+v", res.UnmatchedInjections)
	}
	for _, inj := range res.UnmatchedInjections {
		if inj.Object != "ghost" && !(inj.Object == "x" && inj.Line == 99) {
			t.Fatalf("unexpected unmatched injection %+v", inj)
		}
	}
}
