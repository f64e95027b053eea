package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testApp = `
const net = require("net");
const fs = require("fs");
const sock = net.connect({ host: "cam", port: 1 });
const out = fs.createWriteStream("/log");
sock.on("data", frame => {
  out.write(frame.trim());
});
`

const testPolicy = `{
  "labellers": { "Frame": "v => \"secret\"" },
  "rules": [ "secret -> archive" ],
  "injections": [ { "object": "frame", "labeller": "Frame" } ]
}`

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// capture redirects stdout around fn.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, _ := os.Pipe()
	os.Stdout = w
	err := fn()
	w.Close()
	os.Stdout = old
	buf := make([]byte, 64<<10)
	n, _ := r.Read(buf)
	return string(buf[:n]), err
}

func TestCmdAnalyze(t *testing.T) {
	app := writeTemp(t, "app.js", testApp)
	out, err := capture(t, func() error { return cmdAnalyze([]string{app}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1 privacy-sensitive dataflow") {
		t.Fatalf("out = %q", out)
	}
}

func TestCmdAnalyzeHTML(t *testing.T) {
	app := writeTemp(t, "app.js", testApp)
	htmlPath := filepath.Join(t.TempDir(), "report.html")
	if _, err := capture(t, func() error { return cmdAnalyze([]string{"-html", htmlPath, app}) }); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(htmlPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<!DOCTYPE html>") {
		t.Fatal("report not written")
	}
}

func TestCmdCompare(t *testing.T) {
	app := writeTemp(t, "app.js", testApp)
	out, err := capture(t, func() error { return cmdCompare([]string{app}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "turnstile") || !strings.Contains(out, "baseline") {
		t.Fatalf("out = %q", out)
	}
}

func TestCmdInstrument(t *testing.T) {
	app := writeTemp(t, "app.js", testApp)
	pol := writeTemp(t, "policy.json", testPolicy)
	out, err := capture(t, func() error {
		return cmdInstrument([]string{"-policy", pol, app})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "__t.label(frame") {
		t.Fatalf("instrumented output missing label:\n%s", out)
	}
}

func TestCmdRun(t *testing.T) {
	app := writeTemp(t, "app.js", testApp)
	pol := writeTemp(t, "policy.json", testPolicy)
	out, err := capture(t, func() error {
		return cmdRun([]string{"-policy", pol, "-messages", "3", app})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "sink writes: 3") {
		t.Fatalf("out = %q", out)
	}
}

// TestCmdRunEngines: run accepts -engine, and both engines print the same
// run, violations included.
func TestCmdRunEngines(t *testing.T) {
	app := writeTemp(t, "app.js", testApp)
	pol := writeTemp(t, "policy.json", testPolicy)
	var outs []string
	for _, engine := range []string{"vm", "walker"} {
		out, err := capture(t, func() error {
			return cmdRun([]string{"-policy", pol, "-messages", "3", "-enforce=false", "-engine", engine, app})
		})
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		outs = append(outs, out)
	}
	if outs[0] != outs[1] {
		t.Fatalf("engines disagree:\n--- vm\n%s--- walker\n%s", outs[0], outs[1])
	}
	if !strings.Contains(outs[0], "violation") {
		t.Fatalf("the run recorded no violation, so the comparison is vacuous:\n%s", outs[0])
	}
}

func TestCmdCheckPolicy(t *testing.T) {
	pol := writeTemp(t, "policy.json", testPolicy)
	out, err := capture(t, func() error { return cmdCheckPolicy([]string{pol}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "policy OK") {
		t.Fatalf("out = %q", out)
	}
	bad := writeTemp(t, "bad.json", `{"rules":["a -> b","b -> a"]}`)
	if _, err := capture(t, func() error { return cmdCheckPolicy([]string{bad}) }); err == nil {
		t.Fatal("cyclic policy should fail")
	}
}

func TestCmdErrors(t *testing.T) {
	if err := cmdAnalyze([]string{}); err == nil {
		t.Fatal("no files should fail")
	}
	if err := cmdCheckPolicy([]string{}); err == nil {
		t.Fatal("no policy should fail")
	}
	if err := cmdAnalyze([]string{"/does/not/exist.js"}); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestCmdCorpus(t *testing.T) {
	out, err := capture(t, func() error { return cmdCorpus(nil) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "nlp.js") || !strings.Contains(out, "framework-missed") {
		t.Fatalf("listing:\n%s", out)
	}
	out, err = capture(t, func() error { return cmdCorpus([]string{"modbus"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "net.connect") {
		t.Fatalf("dump:\n%s", out)
	}
	if err := cmdCorpus([]string{"nope"}); err == nil {
		t.Fatal("unknown app should fail")
	}
}

const upperPkg = `
module.exports = function(RED) {
  function UpperNode(config) {
    RED.nodes.createNode(this, config);
    const node = this;
    node.on("input", function(msg, send, done) {
      msg.payload = msg.payload.toUpperCase();
      send(msg);
    });
  }
  RED.nodes.registerType("upper", UpperNode);
};
`

const logPkg = `
module.exports = function(RED) {
  const fs = require("fs");
  function LogNode(config) {
    RED.nodes.createNode(this, config);
    const node = this;
    node.on("input", function(msg) {
      fs.writeFileSync("/flow-log", msg.payload);
    });
  }
  RED.nodes.registerType("logger", LogNode);
};
`

func TestCmdFlow(t *testing.T) {
	upper := writeTemp(t, "upper.js", upperPkg)
	logger := writeTemp(t, "logger.js", logPkg)
	flow := writeTemp(t, "flow.json", `{
	  "label": "demo",
	  "nodes": [
	    { "id": "u", "type": "upper", "wires": [["l"]] },
	    { "id": "l", "type": "logger" }
	  ]
	}`)
	out, err := capture(t, func() error {
		return cmdFlow([]string{"-flow", flow, "-messages", "2", "-inject", "u", upper, logger})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"deployed flow \"demo\"", "deliveries: 4", "sink writes: 2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestCmdFlowErrors(t *testing.T) {
	if err := cmdFlow([]string{}); err == nil {
		t.Fatal("missing -flow should fail")
	}
	flow := writeTemp(t, "flow.json", `{"nodes":[{"id":"a","type":"ghost"}]}`)
	if err := cmdFlow([]string{"-flow", flow}); err == nil {
		t.Fatal("no packages should fail")
	}
	pkg := writeTemp(t, "p.js", "let x = 1;")
	if err := cmdFlow([]string{"-flow", flow, pkg}); err == nil {
		t.Fatal("unknown node type should fail")
	}
}
