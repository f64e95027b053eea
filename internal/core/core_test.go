package core

import (
	"strings"
	"testing"

	"turnstile/internal/instrument"
	"turnstile/internal/interp"
	"turnstile/internal/taint"
)

const pipelineApp = `
const net = require("net");
const fs = require("fs");
const sock = net.connect({ host: "sensor", port: 7 });
const log = fs.createWriteStream("/log");
sock.on("data", reading => {
  log.write("r=" + reading);
});
`

const pipelinePolicy = `{
  "labellers": { "Reading": "v => \"telemetry\"" },
  "rules": [ "telemetry -> archive" ],
  "injections": [ { "object": "reading", "labeller": "Reading" } ]
}`

func TestAnalyzeOnly(t *testing.T) {
	res, err := Analyze(map[string]string{"app.js": pipelineApp}, taint.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) != 1 {
		t.Fatalf("paths = %d", len(res.Paths))
	}
}

func TestManagePipeline(t *testing.T) {
	app, err := Manage(map[string]string{"app.js": pipelineApp}, pipelinePolicy, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(app.Instrumented["app.js"], "__t.label(reading") {
		t.Fatalf("injection missing:\n%s", app.Instrumented["app.js"])
	}
	if err := app.Emit("net.socket:sensor:7", "data", "42"); err != nil {
		t.Fatal(err)
	}
	writes := app.Writes()
	if len(writes) != 1 || writes[0].Value != "r=42" {
		t.Fatalf("writes = %+v", writes)
	}
	if app.Tracker.Stats().Labelled != 1 {
		t.Fatalf("stats = %+v", app.Tracker.Stats())
	}
}

func TestManageMultiFileRequire(t *testing.T) {
	sources := map[string]string{
		"main.js": `
const net = require("net");
const pipe = require("./pipe");
const sock = net.connect({ host: "h", port: 1 });
sock.on("data", d => pipe.handle(d));
`,
		"pipe.js": `
const fs = require("fs");
const out = fs.createWriteStream("/piped");
module.exports = { handle: function(d) { out.write(d); } };
`,
	}
	app, err := Manage(sources, `{"rules":[]}`, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Emit("net.socket:h:1", "data", "x"); err != nil {
		t.Fatal(err)
	}
	if len(app.Writes()) != 1 {
		t.Fatalf("writes = %+v", app.Writes())
	}
	// cross-file path found and instrumented
	if len(app.Analysis.Paths) != 1 || app.Analysis.Paths[0].Sink.File != "pipe.js" {
		t.Fatalf("analysis = %+v", app.Analysis.Paths)
	}
}

func TestManageRequireCycleSurvives(t *testing.T) {
	sources := map[string]string{
		"a.js": `const b = require("./b"); module.exports = { name: "a" };`,
		"b.js": `const a = require("./a"); module.exports = { name: "b" };`,
	}
	if _, err := Manage(sources, `{"rules":[]}`, DefaultOptions()); err == nil {
		t.Log("cycle tolerated (pre-seeded exports)")
	} else if !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestManageErrors(t *testing.T) {
	if _, err := Manage(map[string]string{"x.js": "let ="}, `{"rules":[]}`, DefaultOptions()); err == nil {
		t.Fatal("parse error expected")
	}
	if _, err := Manage(map[string]string{"x.js": "let a = 1;"}, `not json`, DefaultOptions()); err == nil {
		t.Fatal("policy error expected")
	}
	if _, err := Manage(map[string]string{"x.js": `undefinedFn();`}, `{"rules":[]}`, DefaultOptions()); err == nil {
		t.Fatal("runtime error expected")
	}
}

func TestManageExhaustiveMode(t *testing.T) {
	opts := DefaultOptions()
	opts.Mode = instrument.Exhaustive
	app, err := Manage(map[string]string{"app.js": pipelineApp}, pipelinePolicy, opts)
	if err != nil {
		t.Fatal(err)
	}
	if app.Results["app.js"].Tracks == 0 {
		t.Fatal("exhaustive mode should track literals")
	}
	if err := app.Emit("net.socket:sensor:7", "data", "y"); err != nil {
		t.Fatal(err)
	}
}

// TestExhaustiveCallThroughArrayElement: exhaustive mode routes a call
// through an array element, fmts[0](reading), to τ.invoke, which must call
// the element rather than look for an array method named "0".
func TestExhaustiveCallThroughArrayElement(t *testing.T) {
	src := strings.Replace(pipelineApp, `log.write("r=" + reading);`,
		`const fmts = [function (v) { return "r=" + v; }];
  log.write(fmts[0](reading));`, 1)
	for _, engine := range interp.Engines {
		t.Run(engine.String(), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Mode = instrument.Exhaustive
			opts.Engine = engine
			app, err := Manage(map[string]string{"app.js": src}, pipelinePolicy, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(app.Instrumented["app.js"], "__t.invoke(fmts, __t.track(0), [reading]") {
				t.Fatalf("the element call is not routed through τ.invoke:\n%s", app.Instrumented["app.js"])
			}
			if err := app.Emit("net.socket:sensor:7", "data", "42"); err != nil {
				t.Fatal(err)
			}
			if w := app.Writes(); len(w) != 1 || w[0].Value != "r=42" {
				t.Fatalf("writes = %+v, want r=42", w)
			}
		})
	}
}

func TestManageAuditMode(t *testing.T) {
	opts := DefaultOptions()
	opts.Enforce = false
	// policy that forbids the flow: reading labelled "archive", sink "telemetry"
	pol := `{
	  "labellers": { "Reading": "v => \"archive\"", "Sink": "v => \"telemetry\"" },
	  "rules": [ "telemetry -> archive" ],
	  "injections": [
	    { "object": "reading", "labeller": "Reading" },
	    { "object": "log", "labeller": "Sink" }
	  ]
	}`
	app, err := Manage(map[string]string{"app.js": pipelineApp}, pol, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Emit("net.socket:sensor:7", "data", "z"); err != nil {
		t.Fatalf("audit mode must not block: %v", err)
	}
	if len(app.Violations()) != 1 {
		t.Fatalf("violations = %d", len(app.Violations()))
	}
	if len(app.Writes()) != 1 {
		t.Fatal("audited flow should proceed")
	}
}

func TestEmitUnknownSource(t *testing.T) {
	app, err := Manage(map[string]string{"x.js": "let a = 1;"}, `{"rules":[]}`, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Emit("nope", "data", "x"); err == nil {
		t.Fatal("expected unknown source error")
	}
}

func TestManageStrictMode(t *testing.T) {
	// strict compound-label semantics (§2, Denning subset ordering): every
	// data label must reach some receiver label.
	pol := `{
	  "labellers": { "Reading": "v => [\"telemetry\", \"raw\"]", "Sink": "v => \"archive\"" },
	  "rules": [ "telemetry -> archive", "raw -> archive" ],
	  "mode": "strict",
	  "injections": [
	    { "object": "reading", "labeller": "Reading" },
	    { "object": "log", "labeller": "Sink" }
	  ]
	}`
	app, err := Manage(map[string]string{"app.js": pipelineApp}, pol, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// both labels flow to archive → allowed even in strict mode
	if err := app.Emit("net.socket:sensor:7", "data", "ok"); err != nil {
		t.Fatalf("strict-mode allowed flow blocked: %v", err)
	}
	// remove the raw → archive rule: now raw has nowhere to go
	polBlocked := `{
	  "labellers": { "Reading": "v => [\"telemetry\", \"raw\"]", "Sink": "v => \"archive\"" },
	  "rules": [ "telemetry -> archive" ],
	  "mode": "strict",
	  "injections": [
	    { "object": "reading", "labeller": "Reading" },
	    { "object": "log", "labeller": "Sink" }
	  ]
	}`
	app2, err := Manage(map[string]string{"app.js": pipelineApp}, polBlocked, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := app2.Emit("net.socket:sensor:7", "data", "leak"); err == nil {
		t.Fatal("strict mode should block the unreachable label")
	}
}
