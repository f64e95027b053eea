// Package nodered is a miniature Node-RED-compatible flow runtime (§5):
// applications are DAGs ("flows") of modular components ("nodes") whose
// implementations are MiniJS packages using the RED API
// (RED.nodes.createNode, RED.nodes.registerType, node.on("input"),
// node.send). It is the third-party IoT framework substrate on which the
// corpus applications and the NVR case study run.
package nodered

import (
	"encoding/json"
	"errors"
	"fmt"

	"turnstile/internal/ast"
	"turnstile/internal/dift"
	"turnstile/internal/interp"
	"turnstile/internal/parser"
	"turnstile/internal/resolve"
)

// NodeDef is one node instance in a flow definition (the JSON objects a
// Node-RED editor exports).
type NodeDef struct {
	ID     string            `json:"id"`
	Type   string            `json:"type"`
	Name   string            `json:"name,omitempty"`
	Config map[string]any    `json:"config,omitempty"`
	Wires  [][]string        `json:"wires,omitempty"`
	Props  map[string]string `json:"props,omitempty"`
}

// Flow is a deployable DAG of nodes.
type Flow struct {
	Label string    `json:"label"`
	Nodes []NodeDef `json:"nodes"`
}

// Delivery records one message delivered to a node input (observable
// behaviour for tests).
type Delivery struct {
	NodeID string
	Msg    interp.Value
}

// Health aggregates the runtime's degradation counters: how often node
// handlers threw, how many of those errors reached catch nodes, and how
// many messages were shed at quarantined nodes. A healthy run is all
// zeros; under chaos mode these counters are part of the deterministic
// report.
type Health struct {
	// HandlerErrors counts JS exceptions thrown by node input handlers
	// and isolated by the runtime (the flow kept running).
	HandlerErrors int
	// CtorErrors counts node constructors that threw during Deploy; the
	// node is still wired in, degraded to a pass-through shell.
	CtorErrors int
	// Caught counts errors delivered to catch nodes.
	Caught int
	// Dropped counts messages shed at quarantined nodes.
	Dropped int
	// DeadLettered counts messages the queued engine refused to deliver
	// (mailbox overflow or a quarantined target); each has a DeadLetter
	// record in Runtime.DeadLetters.
	DeadLettered int
	// Restarts counts supervisor restarts of quarantined nodes. A restart
	// half-opens the breaker; it closes fully only after a probe succeeds.
	Restarts int
	// Probes counts trial deliveries made while a breaker was half-open.
	Probes int
}

// Runtime hosts node packages and deployed flows on one interpreter.
type Runtime struct {
	IP *interp.Interp

	ctors     map[string]interp.Value
	instances map[string]*interp.Object
	wires     map[string][][]string
	types     map[string]string
	// Deliveries counts input messages routed per node.
	Deliveries []Delivery
	// Depth guards against cyclic flows.
	depth int

	// BreakerThreshold is the circuit breaker: a node whose input handler
	// throws this many times consecutively is quarantined — subsequent
	// messages to it are shed instead of executed — until the runtime is
	// rebuilt. Zero or negative disables the breaker.
	BreakerThreshold int
	// Health holds the degradation counters for this runtime.
	Health Health

	// MailboxCap > 0 switches delivery to the queued engine (mailbox.go):
	// node.send enqueues onto a global FIFO instead of delivering
	// recursively, with at most MailboxCap messages pending per node.
	// Overflow is shed to the dead-letter queue instead of delivered —
	// backpressure by load shedding, never by unbounded buffering. Zero
	// keeps the synchronous recursive engine byte-identical.
	MailboxCap int
	// MailboxBudget caps deliveries per drain in the queued engine (its
	// cyclic-flow protection, replacing the recursion depth guard). Zero
	// means DefaultMailboxBudget.
	MailboxBudget int
	// RestartBase > 0 enables the supervisor: a quarantined node is
	// scheduled for un-quarantine after RestartBase << priorRestarts
	// virtual-clock ticks, capped at RestartMax (exponential backoff).
	RestartBase int64
	// RestartMax caps the supervisor backoff; zero means RestartBase << 6.
	RestartMax int64
	// DeadLetters records every message the queued engine shed, in shed
	// order.
	DeadLetters []DeadLetter

	catches      []string       // deployed catch-node IDs, in flow order
	failures     map[string]int // consecutive handler failures per node
	quarantined  map[string]bool
	halfOpen     map[string]bool // breaker half-open: next delivery is a probe
	inCatch      bool            // suppresses catch re-entry while a catch handler runs
	queue        []queued
	pending      map[string]int // queued-message count per target node
	draining     bool
	restartCount map[string]int // supervisor restarts scheduled per node
}

// DefaultBreakerThreshold is the consecutive-failure count after which a
// node is quarantined.
const DefaultBreakerThreshold = 3

// New creates a runtime and installs the RED API into the interpreter's
// globals.
func New(ip *interp.Interp) *Runtime {
	rt := &Runtime{
		IP:               ip,
		ctors:            make(map[string]interp.Value),
		instances:        make(map[string]*interp.Object),
		wires:            make(map[string][][]string),
		types:            make(map[string]string),
		BreakerThreshold: DefaultBreakerThreshold,
		failures:         make(map[string]int),
		quarantined:      make(map[string]bool),
	}
	ip.Globals.Define("RED", rt.redObject(), false)
	return rt
}

// Quarantined reports whether the circuit breaker has isolated a node.
func (rt *Runtime) Quarantined(id string) bool { return rt.quarantined[id] }

// HalfOpen reports whether a node's breaker is half-open: the supervisor
// has un-quarantined it, but the breaker closes fully only after the next
// delivery (the probe) succeeds.
func (rt *Runtime) HalfOpen(id string) bool { return rt.halfOpen[id] }

// BreakerOpen reports whether any deployed node's breaker is open
// (quarantined). Half-open does not count: the breaker is mid-probe, and
// admitting traffic is exactly what resolves it.
func (rt *Runtime) BreakerOpen() bool {
	for _, open := range rt.quarantined {
		if open {
			return true
		}
	}
	return false
}

// redObject builds the RED host API.
func (rt *Runtime) redObject() *interp.Object {
	red := interp.NewObject()
	red.Class = "RED"
	nodes := interp.NewObject()
	nodes.Set("createNode", interp.NewHostFunc("createNode", func(ip *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		if len(args) == 0 {
			return interp.Undefined{}, nil
		}
		node, ok := dift.Unwrap(args[0]).(*interp.Object)
		if !ok {
			return nil, fmt.Errorf("RED.nodes.createNode: node must be an object")
		}
		rt.initNode(node)
		if len(args) > 1 {
			node.Set("config", args[1])
		}
		return interp.Undefined{}, nil
	}))
	nodes.Set("registerType", interp.NewHostFunc("registerType", func(ip *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		if len(args) < 2 {
			return nil, fmt.Errorf("RED.nodes.registerType: want (name, ctor)")
		}
		rt.ctors[interp.ToString(args[0])] = args[1]
		return interp.Undefined{}, nil
	}))
	red.Set("nodes", nodes)
	util := interp.NewObject()
	util.Set("cloneMessage", interp.NewHostFunc("cloneMessage", func(ip *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		if len(args) == 0 {
			return interp.Undefined{}, nil
		}
		return cloneMsg(args[0]), nil
	}))
	red.Set("util", util)
	// RED.httpNode exists but is an opaque object (assigned dynamically by
	// the runtime — the statically-invisible surface of §6.1). It routes
	// requests when driven explicitly via ServeHTTPNode.
	httpNode := rt.httpNodeObject()
	red.Set("httpNode", httpNode)
	red.Set("httpAdmin", interp.NewObject())
	return red
}

// httpRoutes records handlers registered on RED.httpNode.
type httpRoutes struct {
	handlers map[string]interp.Value
}

func (rt *Runtime) httpNodeObject() *interp.Object {
	o := interp.NewObject()
	o.Class = "httpNode"
	routes := &httpRoutes{handlers: map[string]interp.Value{}}
	o.Host = routes
	register := func(method string) *interp.HostFunc {
		return interp.NewHostFunc(method, func(ip *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
			if len(args) >= 2 {
				routes.handlers[method+" "+interp.ToString(args[0])] = args[len(args)-1]
			}
			return o, nil
		})
	}
	o.Set("get", register("GET"))
	o.Set("post", register("POST"))
	o.Set("put", register("PUT"))
	o.Set("use", register("USE"))
	return o
}

// ServeHTTPNode drives a handler registered on RED.httpNode with a request
// object; the response body writes are recorded as http sink writes.
func (rt *Runtime) ServeHTTPNode(method, path string, req interp.Value) (interp.Value, error) {
	redV, _ := rt.IP.Globals.Lookup("RED")
	red := redV.(*interp.Object)
	hn, _ := red.Get("httpNode")
	routes := hn.(*interp.Object).Host.(*httpRoutes)
	h, ok := routes.handlers[method+" "+path]
	if !ok {
		return nil, fmt.Errorf("nodered: no handler for %s %s", method, path)
	}
	res := interp.NewObject()
	var body interp.Value = interp.Undefined{}
	res.Set("send", interp.NewHostFunc("send", func(ip *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		if len(args) > 0 {
			body = args[0]
		}
		return res, nil
	}))
	res.Set("json", interp.NewHostFunc("json", func(ip *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		if len(args) > 0 {
			body = args[0]
		}
		return res, nil
	}))
	if _, err := rt.IP.CallFunction(h, interp.Undefined{}, []interp.Value{req, res}, ast.Pos{}); err != nil {
		return nil, err
	}
	return body, nil
}

// initNode equips a node object with the Node-RED node API.
func (rt *Runtime) initNode(node *interp.Object) {
	node.Class = "Node"
	node.Listeners = make(map[string][]interp.Value)
	node.Set("on", interp.NewHostFunc("on", func(ip *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		if len(args) >= 2 {
			ev := interp.ToString(args[0])
			node.Listeners[ev] = append(node.Listeners[ev], args[1])
		}
		return node, nil
	}))
	node.Set("send", interp.NewHostFunc("send", func(ip *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		if len(args) == 0 {
			return interp.Undefined{}, nil
		}
		return interp.Undefined{}, rt.route(node, args[0])
	}))
	node.Set("status", interp.NewHostFunc("status", func(ip *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		return interp.Undefined{}, nil
	}))
	node.Set("error", interp.NewHostFunc("error", func(ip *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		if len(args) > 0 {
			ip.ConsoleOut = append(ip.ConsoleOut, "node error: "+interp.ToString(args[0]))
		}
		return interp.Undefined{}, nil
	}))
	node.Set("warn", interp.NewHostFunc("warn", func(ip *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		return interp.Undefined{}, nil
	}))
	node.Set("log", interp.NewHostFunc("log", func(ip *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		return interp.Undefined{}, nil
	}))
}

// LoadPackage parses and executes a node package source. Packages either
// call RED.nodes.registerType at top level or export a function of RED.
func (rt *Runtime) LoadPackage(name, src string) error {
	prog, err := parser.Parse(name, src)
	if err != nil {
		return fmt.Errorf("nodered: package %s: %w", name, err)
	}
	if !rt.IP.NoResolve {
		resolve.Resolve(prog)
	}
	return rt.LoadPackageAST(name, prog)
}

// LoadPackageAST executes an already-parsed (possibly instrumented)
// package.
func (rt *Runtime) LoadPackageAST(name string, prog *ast.Program) error {
	// fresh module/exports per package
	moduleObj := interp.NewObject()
	exportsObj := interp.NewObject()
	moduleObj.Set("exports", exportsObj)
	rt.IP.Globals.Define("module", moduleObj, false)
	rt.IP.Globals.Define("exports", exportsObj, false)
	if err := rt.IP.Run(prog); err != nil {
		return fmt.Errorf("nodered: package %s: %w", name, err)
	}
	if exp, ok := moduleObj.Get("exports"); ok {
		switch dift.Unwrap(exp).(type) {
		case *interp.Function, *interp.HostFunc:
			redV, _ := rt.IP.Globals.Lookup("RED")
			if _, err := rt.IP.CallFunction(exp, interp.Undefined{}, []interp.Value{redV}, ast.Pos{}); err != nil {
				return fmt.Errorf("nodered: package %s exports: %w", name, err)
			}
		}
	}
	return nil
}

// RegisteredTypes lists node types registered so far.
func (rt *Runtime) RegisteredTypes() []string {
	out := make([]string, 0, len(rt.ctors))
	for t := range rt.ctors {
		out = append(out, t)
	}
	interp.SortStrings(out)
	return out
}

// Deploy instantiates a flow: every node is constructed with its config.
// A constructor that throws does not abort the deployment — the node is
// kept as a degraded pass-through shell (wired, but with no handlers) and
// the throw is counted, mirroring Node-RED's per-node isolation. Unknown
// node types remain fatal: that is a broken flow definition, not a
// runtime failure.
func (rt *Runtime) Deploy(flow *Flow) error {
	for _, def := range flow.Nodes {
		ctor, ok := rt.ctors[def.Type]
		if !ok {
			return fmt.Errorf("nodered: unknown node type %q for node %s", def.Type, def.ID)
		}
		cfg := interp.NewObject()
		cfg.Set("id", def.ID)
		cfg.Set("name", def.Name)
		for k, v := range def.Config {
			cfg.Set(k, goToValue(v))
		}
		inst := interp.NewObject()
		inst.Host = def.ID
		if _, err := rt.IP.CallFunction(ctor, inst, []interp.Value{cfg}, ast.Pos{}); err != nil {
			var throw *interp.Throw
			if !errors.As(err, &throw) {
				return fmt.Errorf("nodered: constructing node %s (%s): %w", def.ID, def.Type, err)
			}
			rt.Health.CtorErrors++
			rt.IP.ConsoleOut = append(rt.IP.ConsoleOut,
				fmt.Sprintf("nodered: node %s (%s) constructor failed: %s", def.ID, def.Type, throw.Error()))
			inst = interp.NewObject()
			inst.Host = def.ID
		}
		if inst.Listeners == nil {
			// the constructor did not call RED.nodes.createNode; equip the
			// instance anyway so wiring works
			rt.initNode(inst)
		}
		rt.instances[def.ID] = inst
		rt.wires[def.ID] = def.Wires
		rt.types[def.ID] = def.Type
		if def.Type == "catch" {
			rt.catches = append(rt.catches, def.ID)
		}
	}
	return nil
}

// Node returns a deployed node instance.
func (rt *Runtime) Node(id string) (*interp.Object, bool) {
	n, ok := rt.instances[id]
	return n, ok
}

// Inject delivers a message to a node's input (what an inject node or an
// external event source does).
func (rt *Runtime) Inject(nodeID string, msg interp.Value) error {
	node, ok := rt.instances[nodeID]
	if !ok {
		return fmt.Errorf("nodered: unknown node %q", nodeID)
	}
	if rt.MailboxCap > 0 {
		rt.enqueue(nodeID, msg)
		return rt.drain()
	}
	return rt.deliver(node, nodeID, msg)
}

const maxRouteDepth = 64

func (rt *Runtime) deliver(node *interp.Object, nodeID string, msg interp.Value) error {
	if rt.depth >= maxRouteDepth {
		return fmt.Errorf("nodered: routing depth exceeded (cyclic flow?)")
	}
	if rt.quarantined[nodeID] {
		rt.Health.Dropped++
		return nil
	}
	rt.depth++
	defer func() { rt.depth-- }()
	probe := rt.halfOpen[nodeID]
	if probe {
		delete(rt.halfOpen, nodeID)
		rt.Health.Probes++
	}
	rt.Deliveries = append(rt.Deliveries, Delivery{NodeID: nodeID, Msg: msg})
	if m := rt.IP.Metrics; m != nil {
		// per-node message latency is measured on the virtual clock, so it
		// attributes injected delays and timer waits — never host scheduling
		// noise — and stays byte-identical across runs
		m.Add("nodered.deliver."+nodeID, 1)
		start := rt.IP.Clock.Now()
		defer func() { m.Observe("nodered.latency."+nodeID, rt.IP.Clock.Now()-start) }()
	}
	send := interp.NewHostFunc("send", func(ip *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		if len(args) == 0 {
			return interp.Undefined{}, nil
		}
		return interp.Undefined{}, rt.route(node, args[0])
	})
	done := interp.NewHostFunc("done", func(ip *interp.Interp, this interp.Value, args []interp.Value) (interp.Value, error) {
		return interp.Undefined{}, nil
	})
	threw := false
	for _, cb := range node.Listeners["input"] {
		if _, err := rt.IP.CallFunction(cb, node, []interp.Value{msg, send, done}, ast.Pos{}); err != nil {
			// A JS exception is a node failure, not a flow failure: isolate
			// it, tell the catch nodes, and keep delivering. Anything else
			// (step-budget exhaustion, cyclic-route guard, internal errors)
			// is the interpreter failing, and must propagate.
			var throw *interp.Throw
			if !errors.As(err, &throw) {
				return err
			}
			threw = true
			rt.Health.HandlerErrors++
			rt.dispatchCatch(nodeID, throw, msg)
		}
	}
	if threw {
		rt.failures[nodeID]++
		if probe {
			// the half-open trial failed: snap straight back to open and
			// re-arm the supervisor at the next backoff step — no need to
			// accumulate BreakerThreshold fresh failures to relearn what
			// the last quarantine already proved
			rt.quarantined[nodeID] = true
			rt.IP.ConsoleOut = append(rt.IP.ConsoleOut,
				fmt.Sprintf("nodered: node %s probe failed, breaker re-opened", nodeID))
			rt.scheduleRestart(nodeID)
		} else if rt.BreakerThreshold > 0 && rt.failures[nodeID] >= rt.BreakerThreshold {
			rt.quarantined[nodeID] = true
			rt.IP.ConsoleOut = append(rt.IP.ConsoleOut,
				fmt.Sprintf("nodered: node %s quarantined after %d consecutive failures", nodeID, rt.failures[nodeID]))
			rt.scheduleRestart(nodeID)
		}
	} else {
		rt.failures[nodeID] = 0
		if probe {
			// probe succeeded: the breaker closes fully and the backoff
			// ladder resets, so a recovered node that fails again later
			// starts from RestartBase rather than the capped cadence
			delete(rt.restartCount, nodeID)
			rt.IP.ConsoleOut = append(rt.IP.ConsoleOut,
				fmt.Sprintf("nodered: node %s probe succeeded, breaker closed", nodeID))
		}
	}
	return nil
}

// dispatchCatch delivers an isolated handler error to every deployed
// catch node, Node-RED style: the original message augmented with an
// error object naming the failing node. A throw inside a catch handler
// is counted but not re-dispatched, so error handling cannot recurse.
func (rt *Runtime) dispatchCatch(sourceID string, throw *interp.Throw, original interp.Value) {
	if rt.inCatch || len(rt.catches) == 0 {
		return
	}
	if rt.MailboxCap > 0 {
		// in the queued engine catch deliveries happen outside the inCatch
		// window, so an error thrown by a catch handler must be stopped
		// here — counted, never re-dispatched — or error handling recurses
		for _, cid := range rt.catches {
			if cid == sourceID {
				return
			}
		}
	}
	rt.inCatch = true
	defer func() { rt.inCatch = false }()
	msg := interp.NewObject()
	if o, ok := dift.Unwrap(original).(*interp.Object); ok {
		for _, k := range o.Keys() {
			pv, _ := o.GetOwn(k)
			msg.Set(k, pv)
		}
	}
	errObj := interp.NewObject()
	errObj.Set("message", throw.Error())
	src := interp.NewObject()
	src.Set("id", sourceID)
	src.Set("type", rt.types[sourceID])
	errObj.Set("source", src)
	msg.Set("error", errObj)
	for _, cid := range rt.catches {
		if cid == sourceID {
			continue
		}
		if node, ok := rt.instances[cid]; ok {
			rt.Health.Caught++
			if rt.MailboxCap > 0 {
				rt.enqueue(cid, msg)
				continue
			}
			_ = rt.deliver(node, cid, msg)
		}
	}
}

// route forwards a message from a node to its wired downstream nodes,
// with Node-RED's port semantics: an array message carries one entry per
// output port, whatever the port count, and any other message goes to
// port 0. A null or undefined entry sends nothing on its port; an array
// entry sends each of its messages on that port, in order.
func (rt *Runtime) route(from *interp.Object, msg interp.Value) error {
	fromID, _ := from.Host.(string)
	ports := rt.wires[fromID]
	if len(ports) == 0 {
		return nil
	}
	perPort := []interp.Value{msg}
	if arr, ok := dift.Unwrap(msg).(*interp.Array); ok {
		perPort = arr.Elems
	}
	for pi, entry := range perPort {
		if pi >= len(ports) {
			break
		}
		msgs := []interp.Value{entry}
		if arr, ok := dift.Unwrap(entry).(*interp.Array); ok {
			msgs = arr.Elems
		}
		for _, targetID := range ports[pi] {
			target, ok := rt.instances[targetID]
			if !ok {
				return fmt.Errorf("nodered: wire to unknown node %q", targetID)
			}
			for _, m := range msgs {
				switch dift.Unwrap(m).(type) {
				case interp.Null, interp.Undefined:
					continue
				}
				if rt.MailboxCap > 0 {
					rt.enqueue(targetID, m)
					continue
				}
				if err := rt.deliver(target, targetID, m); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// goToValue converts plain Go config values into MiniJS values.
func goToValue(v any) interp.Value {
	switch x := v.(type) {
	case nil:
		return interp.Null{}
	case string, bool, float64:
		return x
	case int:
		return float64(x)
	case []any:
		arr := interp.NewArray()
		for _, el := range x {
			arr.Elems = append(arr.Elems, goToValue(el))
		}
		return arr
	case map[string]any:
		o := interp.NewObject()
		for k, val := range x {
			o.Set(k, goToValue(val))
		}
		return o
	default:
		return interp.ToString(fmt.Sprint(x))
	}
}

// cloneMsg shallow-copies a message object (RED.util.cloneMessage).
func cloneMsg(v interp.Value) interp.Value {
	o, ok := dift.Unwrap(v).(*interp.Object)
	if !ok {
		return v
	}
	c := interp.NewObject()
	for _, k := range o.Keys() {
		pv, _ := o.GetOwn(k)
		c.Set(k, pv)
	}
	return c
}

// ParseFlowJSON parses a flow definition from its JSON form (the format a
// Node-RED editor exports).
func ParseFlowJSON(data []byte) (*Flow, error) {
	var flow Flow
	if err := json.Unmarshal(data, &flow); err != nil {
		// also accept a bare node array, Node-RED's clipboard format
		var nodes []NodeDef
		if err2 := json.Unmarshal(data, &nodes); err2 != nil {
			return nil, fmt.Errorf("nodered: invalid flow JSON: %w", err)
		}
		flow.Nodes = nodes
	}
	if len(flow.Nodes) == 0 {
		return nil, fmt.Errorf("nodered: flow has no nodes")
	}
	seen := make(map[string]bool, len(flow.Nodes))
	for _, n := range flow.Nodes {
		if n.ID == "" || n.Type == "" {
			return nil, fmt.Errorf("nodered: node missing id or type: %+v", n)
		}
		if seen[n.ID] {
			return nil, fmt.Errorf("nodered: duplicate node id %q", n.ID)
		}
		seen[n.ID] = true
	}
	for _, n := range flow.Nodes {
		for _, port := range n.Wires {
			for _, target := range port {
				if !seen[target] {
					return nil, fmt.Errorf("nodered: node %q wired to unknown node %q", n.ID, target)
				}
			}
		}
	}
	return &flow, nil
}

// MarshalFlowJSON renders a flow back to JSON.
func MarshalFlowJSON(flow *Flow) ([]byte, error) {
	return json.MarshalIndent(flow, "", "  ")
}
