package turnstile_test

import (
	"strings"
	"testing"

	"turnstile"
)

// The FaceRecognizer application of Fig. 2a and the IFC policy of Fig. 4.
const appSource = `
const net = require("net");
const mqtt = require("mqtt");
const nodemailer = require("nodemailer");
const fs = require("fs");
const socket = net.connect({ host: "cam", port: 554 });
const client = mqtt.connect("mqtt://locks");
const transport = nodemailer.createTransport({});
const archive = fs.createWriteStream("/archive/frames");

const deviceControl = { send: function(p) { client.publish("door/open", p.name); return "ok" } };
const emailSender = { send: function(s) { transport.sendMail({ to: "admin@corp", attachments: [s] }); return "ok" } };
const storage = { send: function(s) { archive.write(s.location); return "ok" } };

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

const policyJSON = `{
  "labellers": {
    "Scene": { "persons": { "$map": "item => item.employeeID ? \"employee\" : \"customer\"" } },
    "EmployeeSink": "v => \"employee\"",
    "InternalSink": "v => \"internal\""
  },
  "rules": [ "employee -> customer", "customer -> internal" ],
  "injections": [
    { "object": "scene", "labeller": "Scene" },
    { "object": "deviceControl", "labeller": "EmployeeSink" },
    { "object": "storage", "labeller": "InternalSink" },
    { "object": "emailSender", "labeller": "InternalSink" }
  ]
}`

func TestAnalyzePublicAPI(t *testing.T) {
	res, err := turnstile.Analyze(map[string]string{"face-recognizer.js": appSource})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) == 0 {
		t.Fatal("no privacy-sensitive paths found")
	}
	for _, p := range res.Paths {
		if p.Source.File != "face-recognizer.js" {
			t.Fatalf("path = %+v", p)
		}
	}
}

func TestManageEndToEnd(t *testing.T) {
	app, err := turnstile.Manage(
		map[string]string{"face-recognizer.js": appSource}, policyJSON,
		turnstile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(app.Instrumented["face-recognizer.js"], "__t.") {
		t.Fatal("no instrumentation in managed source")
	}
	// employee frames may flow everywhere
	if err := app.Emit("net.socket:cam:554", "data", "kim:E7"); err != nil {
		t.Fatalf("employee frame blocked: %v", err)
	}
	if n := len(app.Violations()); n != 0 {
		t.Fatalf("violations = %d", n)
	}
}

func TestManageBlocksForbiddenFlow(t *testing.T) {
	// tighten the policy: the email sink only accepts employee-level data,
	// so a frame containing a customer must be blocked.
	strict := strings.Replace(policyJSON,
		`{ "object": "emailSender", "labeller": "InternalSink" }`,
		`{ "object": "emailSender", "labeller": "EmployeeSink" }`, 1)
	app, err := turnstile.Manage(
		map[string]string{"face-recognizer.js": appSource}, strict,
		turnstile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	err = app.Emit("net.socket:cam:554", "data", "visitor:")
	if err == nil {
		t.Fatal("customer → employee-only sink should be blocked")
	}
	if len(app.Violations()) == 0 {
		t.Fatal("violation not recorded")
	}
	v := app.Violations()[0]
	if !v.Data.Contains("customer") {
		t.Fatalf("violation = %+v", v)
	}
}

func TestExhaustiveModePublicAPI(t *testing.T) {
	opts := turnstile.DefaultOptions()
	opts.Mode = turnstile.Exhaustive
	app, err := turnstile.Manage(map[string]string{"a.js": appSource}, policyJSON, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Emit("net.socket:cam:554", "data", "kim:E7|guest:"); err != nil {
		t.Fatal(err)
	}
	if app.Tracker.Stats().Boxed == 0 {
		t.Fatal("exhaustive mode should box values")
	}
}

// TestEnginesPublicAPI: both values of Options.Engine give the same
// writes and violations.
func TestEnginesPublicAPI(t *testing.T) {
	var runs []string
	for _, engine := range []turnstile.Engine{turnstile.EngineVM, turnstile.EngineWalker} {
		opts := turnstile.DefaultOptions()
		opts.Engine = engine
		opts.Enforce = false
		app, err := turnstile.Manage(map[string]string{"a.js": appSource}, policyJSON, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Emit("net.socket:cam:554", "data", "kim:E7|guest:"); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, w := range app.Writes() {
			b.WriteString(w.Module + "." + w.Op + " " + w.Target + "\n")
		}
		for _, v := range app.Violations() {
			b.WriteString(v.Error() + "\n")
		}
		runs = append(runs, b.String())
	}
	if runs[0] == "" {
		t.Fatal("the run wrote nothing, so the comparison is vacuous")
	}
	if runs[0] != runs[1] {
		t.Fatalf("engines disagree:\n--- vm\n%s--- walker\n%s", runs[0], runs[1])
	}
}

func TestManageErrors(t *testing.T) {
	if _, err := turnstile.Manage(map[string]string{"bad.js": "let ="}, policyJSON, turnstile.DefaultOptions()); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := turnstile.Manage(map[string]string{"a.js": "let x = 1;"}, "{bad json", turnstile.DefaultOptions()); err == nil {
		t.Fatal("expected policy error")
	}
	app, _ := turnstile.Manage(map[string]string{"a.js": "let x = 1;"}, `{"rules":[]}`, turnstile.DefaultOptions())
	if err := app.Emit("no.such.source", "data", "x"); err == nil {
		t.Fatal("expected unknown-source error")
	}
}
