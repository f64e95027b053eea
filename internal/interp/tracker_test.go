package interp

import (
	"strings"
	"testing"

	"turnstile/internal/dift"
	"turnstile/internal/parser"
	"turnstile/internal/policy"
)

// loadPolicy parses a JSON policy whose label functions are MiniJS sources
// compiled against the given interpreter.
func loadPolicy(t *testing.T, ip *Interp, doc string) *policy.Policy {
	t.Helper()
	p, err := policy.ParseJSON([]byte(doc), ip.CompileLabelFunc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Figure 4's IFC policy, with MiniJS label functions.
const fig4PolicyJSON = `{
  "labellers": {
    "Scene": { "persons": { "$map": "item => item.employeeID ? \"employee\" : \"customer\"" } }
  },
  "rules": [ "employee -> customer", "customer -> internal" ],
  "injections": [ { "line": 2, "object": "scene", "labeller": "Scene" } ]
}`

// The hand-instrumented FaceRecognizer of Figure 2b, adapted to the host
// modules. storage is labelled "internal" (anything may flow there);
// deviceControl is labelled "employee" (only employee data may flow).
const fig2bSource = `
const net = require("net");
const socket = net.connect({ host: "cam", port: 554 });

const deviceControl = { send: function(p) { sent.push("device:" + p.name) } };
const emailSender = { send: function(s) { sent.push("email") } };
const storage = { send: function(s) { sent.push("storage") } };
let sent = [];

socket.on("data", frame => {
  const scene = __t.label(analyzeVideoFrame(frame), "Scene");
  for (let person of scene.persons) {
    person.description =
      __t.binaryOp("+",
        __t.binaryOp("+", person.action, " at "),
        scene.location);
    if (person.employeeID) {
      __t.invoke(deviceControl, "send", [ person ]);
    }
  }
  __t.invoke(emailSender, "send", [ scene ]);
  __t.invoke(storage, "send", [ scene ]);
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

func setupFig2b(t *testing.T, attachSinkLabels func(*Interp)) *Interp {
	t.Helper()
	ip := New()
	pol := loadPolicy(t, ip, fig4PolicyJSON)
	tr := ip.InstallTracker(pol)
	tr.Enforce = true
	prog, err := parser.Parse("face-recognizer.js", fig2bSource)
	if err != nil {
		t.Fatal(err)
	}
	if err := ip.Run(prog); err != nil {
		t.Fatal(err)
	}
	if attachSinkLabels != nil {
		attachSinkLabels(ip)
	}
	return ip
}

func sinkObject(t *testing.T, ip *Interp, name string) *Object {
	t.Helper()
	v, ok := ip.Globals.Lookup(name)
	if !ok {
		t.Fatalf("%s not defined", name)
	}
	return v.(*Object)
}

func TestFig2bEmployeeFlowAllowed(t *testing.T) {
	ip := setupFig2b(t, func(ip *Interp) {
		ip.Tracker.Attach(sinkObject(t, ip, "deviceControl"), policy.NewLabelSet("employee"))
		ip.Tracker.Attach(sinkObject(t, ip, "storage"), policy.NewLabelSet("internal"))
		ip.Tracker.Attach(sinkObject(t, ip, "emailSender"), policy.NewLabelSet("internal"))
	})
	src, _ := ip.Source("net.socket:cam:554")
	// one employee in the frame: all flows allowed
	if err := ip.Emit(src, "data", "kim:E7"); err != nil {
		t.Fatalf("employee frame should pass: %v", err)
	}
	if n := len(ip.Tracker.Violations()); n != 0 {
		t.Fatalf("violations = %d", n)
	}
}

func TestFig2bCustomerToEmployeeSinkBlocked(t *testing.T) {
	ip := setupFig2b(t, func(ip *Interp) {
		ip.Tracker.Attach(sinkObject(t, ip, "deviceControl"), policy.NewLabelSet("employee"))
		ip.Tracker.Attach(sinkObject(t, ip, "storage"), policy.NewLabelSet("internal"))
		ip.Tracker.Attach(sinkObject(t, ip, "emailSender"), policy.NewLabelSet("internal"))
	})
	src, _ := ip.Source("net.socket:cam:554")
	// a customer (no employeeID): sending the whole scene to storage and
	// email is fine (customer -> internal), and deviceControl.send is never
	// reached because there is no employeeID. Mixed frame with a spoofed
	// employeeID on a customer would hit deviceControl.
	if err := ip.Emit(src, "data", "visitor:"); err != nil {
		t.Fatalf("customer frame to internal sinks should pass: %v", err)
	}
	// Now relabel deviceControl as "customer"-level and push an employee:
	// employee data may flow to customer level (employee -> customer).
	// The reverse — customer data into an employee-labelled sink — must be
	// blocked; simulate by labelling emailSender "employee".
	ip2 := setupFig2b(t, func(ip *Interp) {
		ip.Tracker.Attach(sinkObject(t, ip, "deviceControl"), policy.NewLabelSet("employee"))
		ip.Tracker.Attach(sinkObject(t, ip, "emailSender"), policy.NewLabelSet("employee"))
		ip.Tracker.Attach(sinkObject(t, ip, "storage"), policy.NewLabelSet("internal"))
	})
	src2, _ := ip2.Source("net.socket:cam:554")
	err := ip2.Emit(src2, "data", "visitor:")
	if err == nil {
		t.Fatal("customer → employee-labelled email sink should be blocked")
	}
	if !strings.Contains(err.Error(), "PrivacyViolation") && !strings.Contains(err.Error(), "violation") {
		t.Fatalf("err = %v", err)
	}
	if len(ip2.Tracker.Violations()) == 0 {
		t.Fatal("violation not recorded")
	}
}

func TestFig2bCompoundDescription(t *testing.T) {
	ip := setupFig2b(t, nil)
	src, _ := ip.Source("net.socket:cam:554")
	if err := ip.Emit(src, "data", "kim:E7|visitor:"); err != nil {
		t.Fatal(err)
	}
	// person.description was computed via τ.binaryOp from labelled parts;
	// check a description box carries a label.
	st := ip.Tracker.Stats()
	if st.Labelled == 0 || st.Derived < 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestValueDependentLabelsFromJS(t *testing.T) {
	ip := setupFig2b(t, nil)
	src, _ := ip.Source("net.socket:cam:554")
	if err := ip.Emit(src, "data", "kim:E7|visitor:"); err != nil {
		t.Fatal(err)
	}
	// find the scene variable is gone (local), but the persons were
	// labelled individually: employee for kim, customer for visitor. We
	// verify via the tracker by scanning labels on the sent messages.
	// Instead of introspecting, run again with an enforcing sink.
	st := ip.Tracker.Stats()
	if st.Labelled != 1 {
		t.Fatalf("label() calls = %d", st.Labelled)
	}
}

func TestAuditModeCollectsViolations(t *testing.T) {
	ip := New()
	pol := loadPolicy(t, ip, fig4PolicyJSON)
	tr := ip.InstallTracker(pol)
	tr.Enforce = false
	prog := parser.MustParse("audit.js", `
const data = __t.label({ persons: [ { name: "guest" } ] }, "Scene");
const sink = { send: function(x) { return "sent" } };
__t.invoke(sink, "send", [ data ]);
`)
	// label the sink "employee": customer data → employee sink = violation
	if err := ip.Run(prog); err != nil {
		t.Fatal(err)
	}
	// no labels on sink: allowed. Re-run with labelled sink.
	ip2 := New()
	pol2 := loadPolicy(t, ip2, fig4PolicyJSON)
	tr2 := ip2.InstallTracker(pol2)
	tr2.Enforce = false
	prog2 := parser.MustParse("audit2.js", `
const sink = { send: function(x) { return "sent" } };
__t.label(sink, "EmployeeSink");
const data = __t.label({ persons: [ { name: "guest" } ] }, "Scene");
const out = __t.invoke(sink, "send", [ data ]);
console.log(out);
`)
	// need an EmployeeSink labeller: extend policy
	pol2.Labellers["EmployeeSink"] = &policy.Labeller{Fn: func(args ...any) (policy.LabelSet, error) {
		return policy.NewLabelSet("employee"), nil
	}}
	if err := ip2.Run(prog2); err != nil {
		t.Fatalf("audit mode must not block: %v", err)
	}
	if len(tr2.Violations()) != 1 {
		t.Fatalf("violations = %d", len(tr2.Violations()))
	}
	if ip2.ConsoleOut[0] != "sent" {
		t.Fatalf("flow should have proceeded: %v", ip2.ConsoleOut)
	}
}

func TestInvokeLabelsReturnValue(t *testing.T) {
	ip := New()
	pol := loadPolicy(t, ip, fig4PolicyJSON)
	ip.InstallTracker(pol)
	prog := parser.MustParse("ret.js", `
const data = __t.label({ persons: [ { name: "x", employeeID: 3 } ] }, "Scene");
const svc = { process: function(d) { return { derived: true } } };
const out = __t.invoke(svc, "process", [ data ]);
`)
	if err := ip.Run(prog); err != nil {
		t.Fatal(err)
	}
	// out should carry the compound label of its arguments
	outV, _ := ip.Globals.Lookup("out")
	if ls := ip.Tracker.DataLabels(outV); !ls.Contains("employee") {
		t.Fatalf("return labels = %v", ls)
	}
}

func TestSinkWritesUnwrapped(t *testing.T) {
	ip := New()
	pol := loadPolicy(t, ip, fig4PolicyJSON)
	ip.InstallTracker(pol)
	prog := parser.MustParse("unwrap.js", `
const fs = require("fs");
const secret = __t.label("top-secret", "Plain");
fs.writeFileSync("/out", secret);
`)
	pol.Labellers["Plain"] = &policy.Labeller{Fn: func(args ...any) (policy.LabelSet, error) {
		return policy.NewLabelSet("customer"), nil
	}}
	if err := ip.Run(prog); err != nil {
		t.Fatal(err)
	}
	w := ip.IO.WritesTo("fs")
	if len(w) != 1 {
		t.Fatalf("writes = %+v", w)
	}
	if _, boxed := w[0].Value.(dift.Ref); boxed {
		t.Fatalf("sink write still wrapped: %#v", w[0].Value)
	}
	if w[0].Value != "top-secret" {
		t.Fatalf("value = %v", w[0].Value)
	}
}

func TestCompileLabelFuncErrors(t *testing.T) {
	ip := New()
	if _, err := ip.CompileLabelFunc("not ( valid"); err == nil {
		t.Fatal("expected compile error")
	}
	lf, err := ip.CompileLabelFunc(`x => 42`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lf("v"); err == nil {
		t.Fatal("numeric label should be rejected")
	}
}

func TestCompileLabelFuncArrayResult(t *testing.T) {
	ip := New()
	lf, err := ip.CompileLabelFunc(`item => [ "EU", "L2" ]`)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := lf(NewObject())
	if err != nil {
		t.Fatal(err)
	}
	if !ls.Equal(policy.NewLabelSet("EU", "L2")) {
		t.Fatalf("labels = %v", ls)
	}
}

func TestBoxTransparency(t *testing.T) {
	// boxed primitives behave like their values in uninstrumented code —
	// the Proxy-transparency property of §4.4.
	ip := New()
	pol := loadPolicy(t, ip, fig4PolicyJSON)
	pol.Labellers["Any"] = &policy.Labeller{Fn: func(args ...any) (policy.LabelSet, error) {
		return policy.NewLabelSet("customer"), nil
	}}
	ip.InstallTracker(pol)
	prog := parser.MustParse("box.js", `
const n = __t.label(21, "Any");
const s = __t.label("abc", "Any");
console.log(n * 2, s.length, s.toUpperCase(), n + 1 > 21, typeof n, typeof s);
const arr = [n, s];
console.log(arr.join("/"));
if (n) { console.log("truthy"); }
`)
	if err := ip.Run(prog); err != nil {
		t.Fatal(err)
	}
	want := []string{"42 3 ABC true number string", "21/abc", "truthy"}
	for i, w := range want {
		if ip.ConsoleOut[i] != w {
			t.Fatalf("line %d = %q, want %q", i, ip.ConsoleOut[i], w)
		}
	}
}
