package nodered

import (
	"fmt"
	"strings"
	"testing"

	"turnstile/internal/dift"
	"turnstile/internal/interp"
	"turnstile/internal/policy"
)

const upperNodePkg = `
module.exports = function(RED) {
  function UpperNode(config) {
    RED.nodes.createNode(this, config);
    const node = this;
    node.on("input", function(msg, send, done) {
      msg.payload = msg.payload.toUpperCase();
      send(msg);
      done();
    });
  }
  RED.nodes.registerType("upper", UpperNode);
};
`

const sinkNodePkg = `
module.exports = function(RED) {
  function FileSinkNode(config) {
    RED.nodes.createNode(this, config);
    const fs = require("fs");
    const node = this;
    node.on("input", function(msg) {
      fs.writeFileSync(config.path, msg.payload);
    });
  }
  RED.nodes.registerType("file-sink", FileSinkNode);
};
`

func newRuntime(t *testing.T) *Runtime {
	t.Helper()
	return New(interp.New())
}

func mkMsg(payload interp.Value) *interp.Object {
	msg := interp.NewObject()
	msg.Set("payload", payload)
	return msg
}

func TestLoadAndRegister(t *testing.T) {
	rt := newRuntime(t)
	if err := rt.LoadPackage("upper.js", upperNodePkg); err != nil {
		t.Fatal(err)
	}
	types := rt.RegisteredTypes()
	if len(types) != 1 || types[0] != "upper" {
		t.Fatalf("types = %v", types)
	}
}

func TestTopLevelRegisterStyle(t *testing.T) {
	rt := newRuntime(t)
	err := rt.LoadPackage("direct.js", `
function PassNode(config) {
  RED.nodes.createNode(this, config);
  this.on("input", function(msg, send) { send(msg); });
}
RED.nodes.registerType("pass", PassNode);
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.RegisteredTypes()) != 1 {
		t.Fatal("top-level registration failed")
	}
}

func TestDeployAndRoute(t *testing.T) {
	rt := newRuntime(t)
	if err := rt.LoadPackage("upper.js", upperNodePkg); err != nil {
		t.Fatal(err)
	}
	if err := rt.LoadPackage("sink.js", sinkNodePkg); err != nil {
		t.Fatal(err)
	}
	flow := &Flow{
		Label: "copy",
		Nodes: []NodeDef{
			{ID: "n1", Type: "upper", Wires: [][]string{{"n2"}}},
			{ID: "n2", Type: "file-sink", Config: map[string]any{"path": "/out.txt"}},
		},
	}
	if err := rt.Deploy(flow); err != nil {
		t.Fatal(err)
	}
	if err := rt.Inject("n1", mkMsg("hello")); err != nil {
		t.Fatal(err)
	}
	writes := rt.IP.IO.WritesTo("fs")
	if len(writes) != 1 || writes[0].Value != "HELLO" || writes[0].Target != "/out.txt" {
		t.Fatalf("writes = %+v", writes)
	}
	if len(rt.Deliveries) != 2 {
		t.Fatalf("deliveries = %+v", rt.Deliveries)
	}
}

func TestFanOutWires(t *testing.T) {
	rt := newRuntime(t)
	if err := rt.LoadPackage("upper.js", upperNodePkg); err != nil {
		t.Fatal(err)
	}
	if err := rt.LoadPackage("sink.js", sinkNodePkg); err != nil {
		t.Fatal(err)
	}
	flow := &Flow{Nodes: []NodeDef{
		{ID: "src", Type: "upper", Wires: [][]string{{"a", "b"}}},
		{ID: "a", Type: "file-sink", Config: map[string]any{"path": "/a"}},
		{ID: "b", Type: "file-sink", Config: map[string]any{"path": "/b"}},
	}}
	if err := rt.Deploy(flow); err != nil {
		t.Fatal(err)
	}
	if err := rt.Inject("src", mkMsg("x")); err != nil {
		t.Fatal(err)
	}
	if n := len(rt.IP.IO.WritesTo("fs")); n != 2 {
		t.Fatalf("writes = %d", n)
	}
}

func TestUnknownTypeAndWire(t *testing.T) {
	rt := newRuntime(t)
	if err := rt.Deploy(&Flow{Nodes: []NodeDef{{ID: "x", Type: "ghost"}}}); err == nil {
		t.Fatal("expected unknown-type error")
	}
	if err := rt.LoadPackage("upper.js", upperNodePkg); err != nil {
		t.Fatal(err)
	}
	if err := rt.Deploy(&Flow{Nodes: []NodeDef{
		{ID: "n1", Type: "upper", Wires: [][]string{{"nope"}}},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Inject("n1", mkMsg("x")); err == nil {
		t.Fatal("expected unknown-wire error")
	}
	if err := rt.Inject("ghost-node", mkMsg("x")); err == nil {
		t.Fatal("expected unknown-node error")
	}
}

func TestCyclicFlowGuard(t *testing.T) {
	rt := newRuntime(t)
	err := rt.LoadPackage("echo.js", `
module.exports = function(RED) {
  function EchoNode(config) {
    RED.nodes.createNode(this, config);
    const node = this;
    node.on("input", function(msg) { node.send(msg); });
  }
  RED.nodes.registerType("echo", EchoNode);
};
`)
	if err != nil {
		t.Fatal(err)
	}
	flow := &Flow{Nodes: []NodeDef{
		{ID: "a", Type: "echo", Wires: [][]string{{"b"}}},
		{ID: "b", Type: "echo", Wires: [][]string{{"a"}}},
	}}
	if err := rt.Deploy(flow); err != nil {
		t.Fatal(err)
	}
	err = rt.Inject("a", mkMsg("loop"))
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Fatalf("err = %v", err)
	}
}

func TestHTTPNodeRouting(t *testing.T) {
	rt := newRuntime(t)
	err := rt.LoadPackage("api.js", `
module.exports = function(RED) {
  RED.httpNode.get("/faces", function(req, res) {
    res.send("face:" + req.query.id);
  });
};
`)
	if err != nil {
		t.Fatal(err)
	}
	req := interp.NewObject()
	q := interp.NewObject()
	q.Set("id", "42")
	req.Set("query", q)
	body, err := rt.ServeHTTPNode("GET", "/faces", req)
	if err != nil {
		t.Fatal(err)
	}
	if interp.ToString(body) != "face:42" {
		t.Fatalf("body = %v", body)
	}
	if _, err := rt.ServeHTTPNode("GET", "/nope", req); err == nil {
		t.Fatal("expected no-handler error")
	}
}

func TestMultiOutputPorts(t *testing.T) {
	rt := newRuntime(t)
	err := rt.LoadPackage("split.js", `
module.exports = function(RED) {
  function SplitNode(config) {
    RED.nodes.createNode(this, config);
    const node = this;
    node.on("input", function(msg) {
      node.send([ { payload: msg.payload + ":left" }, { payload: msg.payload + ":right" } ]);
    });
  }
  RED.nodes.registerType("split", SplitNode);
};
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.LoadPackage("sink.js", sinkNodePkg); err != nil {
		t.Fatal(err)
	}
	flow := &Flow{Nodes: []NodeDef{
		{ID: "s", Type: "split", Wires: [][]string{{"l"}, {"r"}}},
		{ID: "l", Type: "file-sink", Config: map[string]any{"path": "/l"}},
		{ID: "r", Type: "file-sink", Config: map[string]any{"path": "/r"}},
	}}
	if err := rt.Deploy(flow); err != nil {
		t.Fatal(err)
	}
	if err := rt.Inject("s", mkMsg("m")); err != nil {
		t.Fatal(err)
	}
	writes := rt.IP.IO.WritesTo("fs")
	if len(writes) != 2 || writes[0].Value != "m:left" || writes[1].Value != "m:right" {
		t.Fatalf("writes = %+v", writes)
	}
}

func TestCloneMessage(t *testing.T) {
	rt := newRuntime(t)
	err := rt.LoadPackage("cl.js", `
module.exports = function(RED) {
  function CloneNode(config) {
    RED.nodes.createNode(this, config);
    const node = this;
    node.on("input", function(msg) {
      const copy = RED.util.cloneMessage(msg);
      copy.payload = "changed";
      node.send(msg);
    });
  }
  RED.nodes.registerType("clone", CloneNode);
};
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Deploy(&Flow{Nodes: []NodeDef{{ID: "c", Type: "clone"}}}); err != nil {
		t.Fatal(err)
	}
	msg := mkMsg("original")
	if err := rt.Inject("c", msg); err != nil {
		t.Fatal(err)
	}
	if v, _ := msg.Get("payload"); interp.ToString(v) != "original" {
		t.Fatal("clone aliased the original message")
	}
}

func TestTrackedMessagesFlowThroughRuntime(t *testing.T) {
	// end-to-end: an instrumented-style node labels the payload; the sink
	// node receives the boxed value and the write is unwrapped.
	ip := interp.New()
	pol, err := policy.ParseJSON([]byte(`{
	  "labellers": { "Payload": "v => \"sensitive\"" },
	  "rules": [ "sensitive -> archive" ]
	}`), ip.CompileLabelFunc)
	if err != nil {
		t.Fatal(err)
	}
	ip.InstallTracker(pol)
	rt := New(ip)
	err = rt.LoadPackage("lbl.js", `
module.exports = function(RED) {
  function LabelNode(config) {
    RED.nodes.createNode(this, config);
    const node = this;
    node.on("input", function(msg) {
      msg.payload = __t.label(msg.payload, "Payload");
      node.send(msg);
    });
  }
  RED.nodes.registerType("labeler", LabelNode);
};
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.LoadPackage("sink.js", sinkNodePkg); err != nil {
		t.Fatal(err)
	}
	flow := &Flow{Nodes: []NodeDef{
		{ID: "lab", Type: "labeler", Wires: [][]string{{"out"}}},
		{ID: "out", Type: "file-sink", Config: map[string]any{"path": "/arch"}},
	}}
	if err := rt.Deploy(flow); err != nil {
		t.Fatal(err)
	}
	if err := rt.Inject("lab", mkMsg("frame-1")); err != nil {
		t.Fatal(err)
	}
	writes := rt.IP.IO.WritesTo("fs")
	if len(writes) != 1 {
		t.Fatalf("writes = %+v", writes)
	}
	if _, boxed := writes[0].Value.(*dift.Box); boxed {
		t.Fatal("sink write not unwrapped")
	}
	if writes[0].Value != "frame-1" {
		t.Fatalf("value = %v", writes[0].Value)
	}
	if ip.Tracker.Stats().Labelled != 1 {
		t.Fatalf("stats = %+v", ip.Tracker.Stats())
	}
}

func TestParseFlowJSON(t *testing.T) {
	flow, err := ParseFlowJSON([]byte(`{
	  "label": "copy",
	  "nodes": [
	    { "id": "a", "type": "upper", "wires": [["b"]] },
	    { "id": "b", "type": "file-sink", "config": { "path": "/x" } }
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if flow.Label != "copy" || len(flow.Nodes) != 2 {
		t.Fatalf("flow = %+v", flow)
	}
	if flow.Nodes[1].Config["path"] != "/x" {
		t.Fatalf("config = %+v", flow.Nodes[1].Config)
	}
	// clipboard format: a bare node array
	flow2, err := ParseFlowJSON([]byte(`[ { "id": "x", "type": "t" } ]`))
	if err != nil || len(flow2.Nodes) != 1 {
		t.Fatalf("bare array: %v %+v", err, flow2)
	}
	// round trip
	data, err := MarshalFlowJSON(flow)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseFlowJSON(data)
	if err != nil || len(again.Nodes) != 2 {
		t.Fatalf("round trip: %v", err)
	}
}

func TestParseFlowJSONErrors(t *testing.T) {
	cases := []string{
		`not json`,
		`{ "nodes": [] }`,
		`{ "nodes": [ { "id": "", "type": "t" } ] }`,
		`{ "nodes": [ { "id": "a", "type": "t" }, { "id": "a", "type": "t" } ] }`,
		`{ "nodes": [ { "id": "a", "type": "t", "wires": [["ghost"]] } ] }`,
	}
	for _, src := range cases {
		if _, err := ParseFlowJSON([]byte(src)); err == nil {
			t.Errorf("ParseFlowJSON(%q) should fail", src)
		}
	}
}

func TestDeployParsedFlow(t *testing.T) {
	rt := newRuntime(t)
	if err := rt.LoadPackage("upper.js", upperNodePkg); err != nil {
		t.Fatal(err)
	}
	if err := rt.LoadPackage("sink.js", sinkNodePkg); err != nil {
		t.Fatal(err)
	}
	flow, err := ParseFlowJSON([]byte(`{
	  "nodes": [
	    { "id": "u", "type": "upper", "wires": [["s"]] },
	    { "id": "s", "type": "file-sink", "config": { "path": "/from-json" } }
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Deploy(flow); err != nil {
		t.Fatal(err)
	}
	if err := rt.Inject("u", mkMsg("hi")); err != nil {
		t.Fatal(err)
	}
	w := rt.IP.IO.WritesTo("fs")
	if len(w) != 1 || w[0].Value != "HI" || w[0].Target != "/from-json" {
		t.Fatalf("writes = %+v", w)
	}
}

func TestRegisterTypeErrors(t *testing.T) {
	rt := newRuntime(t)
	err := rt.LoadPackage("bad.js", `RED.nodes.registerType("only-name");`)
	if err == nil {
		t.Fatal("registerType with one arg should fail")
	}
	err = rt.LoadPackage("bad2.js", `RED.nodes.createNode("not-an-object");`)
	if err == nil {
		t.Fatal("createNode on primitive should fail")
	}
}

func TestConstructorWithoutCreateNodeStillWired(t *testing.T) {
	rt := newRuntime(t)
	if err := rt.LoadPackage("bare.js", `
function BareNode(config) { /* forgot RED.nodes.createNode */ }
RED.nodes.registerType("bare", BareNode);
`); err != nil {
		t.Fatal(err)
	}
	if err := rt.Deploy(&Flow{Nodes: []NodeDef{{ID: "b", Type: "bare"}}}); err != nil {
		t.Fatal(err)
	}
	// the runtime equips the instance anyway, so injection works
	if err := rt.Inject("b", mkMsg("x")); err != nil {
		t.Fatal(err)
	}
	if len(rt.Deliveries) != 1 {
		t.Fatalf("deliveries = %d", len(rt.Deliveries))
	}
}

func TestNodeStatusErrorWarnLog(t *testing.T) {
	rt := newRuntime(t)
	if err := rt.LoadPackage("chatty.js", `
module.exports = function(RED) {
  function ChattyNode(config) {
    RED.nodes.createNode(this, config);
    const node = this;
    node.on("input", function(msg) {
      node.status({ fill: "green" });
      node.warn("careful");
      node.log("note");
      node.error("bad thing");
    });
  }
  RED.nodes.registerType("chatty", ChattyNode);
};
`); err != nil {
		t.Fatal(err)
	}
	if err := rt.Deploy(&Flow{Nodes: []NodeDef{{ID: "c", Type: "chatty"}}}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Inject("c", mkMsg("m")); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, line := range rt.IP.ConsoleOut {
		if strings.Contains(line, "node error: bad thing") {
			found = true
		}
	}
	if !found {
		t.Fatalf("console = %v", rt.IP.ConsoleOut)
	}
}

// portSenderPkg registers "sender", which answers every input with
// node.send(config.send evaluated), and "recorder", which writes each
// message it receives, as JSON, to its config path.
const portSenderPkg = `
module.exports = function(RED) {
  function SenderNode(config) {
    RED.nodes.createNode(this, config);
    const node = this;
    node.on("input", function(msg) { node.send(SEND); });
  }
  RED.nodes.registerType("sender", SenderNode);
  function RecorderNode(config) {
    RED.nodes.createNode(this, config);
    const fs = require("fs");
    this.on("input", function(msg) { fs.writeFileSync(config.path, JSON.stringify(msg)); });
  }
  RED.nodes.registerType("recorder", RecorderNode);
};
`

// portWrites deploys a sender that calls node.send(send) with the given
// output wiring to recorders, injects one message, and returns what the
// recorders received, in order, under synchronous and mailbox delivery
// (which must agree).
func portWrites(t *testing.T, send string, wires [][]string) []string {
	t.Helper()
	var runs [2][]string
	for i, capacity := range []int{0, 8} {
		rt := newRuntime(t)
		rt.MailboxCap = capacity
		if err := rt.LoadPackage("ports.js", strings.Replace(portSenderPkg, "SEND", send, 1)); err != nil {
			t.Fatal(err)
		}
		flow := &Flow{Nodes: []NodeDef{{ID: "s", Type: "sender", Wires: wires}}}
		for _, port := range wires {
			for _, id := range port {
				flow.Nodes = append(flow.Nodes, NodeDef{ID: id, Type: "recorder", Config: map[string]any{"path": "/" + id}})
			}
		}
		if err := rt.Deploy(flow); err != nil {
			t.Fatal(err)
		}
		if err := rt.Inject("s", mkMsg("in")); err != nil {
			t.Fatal(err)
		}
		for _, w := range rt.IP.IO.WritesTo("fs") {
			runs[i] = append(runs[i], fmt.Sprintf("%s %v", w.Target, w.Value))
		}
	}
	if fmt.Sprint(runs[0]) != fmt.Sprint(runs[1]) {
		t.Fatalf("send(%s): synchronous delivery %q, mailbox %q", send, runs[0], runs[1])
	}
	return runs[0]
}

// A null (or undefined) port entry sends nothing on that port.
func TestSendNullPortEntrySendsNothing(t *testing.T) {
	got := portWrites(t, `[{ payload: 1 }, null, undefined]`, [][]string{{"a"}, {"b"}, {"c"}})
	if want := []string{`/a {"payload":1}`}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recorders got %q, want %q", got, want)
	}
}

// An array message is per-port even when the node has one output.
func TestSendArrayWithOneOutputIsPerPort(t *testing.T) {
	got := portWrites(t, `[{ payload: 1 }]`, [][]string{{"a"}})
	if want := []string{`/a {"payload":1}`}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recorders got %q, want %q", got, want)
	}
}

// A nested array sends each of its non-null messages on its port, in
// order, to every node wired there.
func TestSendNestedArraySendsEachMessage(t *testing.T) {
	got := portWrites(t, `[[{ payload: 1 }, null, { payload: 2 }], null]`, [][]string{{"a", "b"}, {"c"}})
	want := []string{`/a {"payload":1}`, `/a {"payload":2}`, `/b {"payload":1}`, `/b {"payload":2}`}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recorders got %q, want %q", got, want)
	}
}
