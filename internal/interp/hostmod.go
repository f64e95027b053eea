package interp

import (
	"errors"
	"fmt"
	"strings"

	"turnstile/internal/ast"
	"turnstile/internal/dift"
	"turnstile/internal/faults"
	"turnstile/internal/telemetry"
)

// SinkWrite records one write to a host I/O sink — the observable output of
// an application run. Tests and the harness compare sink traces between
// original and instrumented runs.
type SinkWrite struct {
	Module string // "fs", "net", "http", "mqtt", "smtp", "sqlite", "process"
	Op     string // "writeFile", "write", "publish", "sendMail", "run", ...
	Target string // path / host / topic / recipient / table
	Value  Value  // the written value (unwrapped)
}

// IORecorder aggregates the host modules' observable I/O and the source
// objects that the workload pump injects events into.
type IORecorder struct {
	Writes []SinkWrite
	// Sources maps a stable name ("net.socket:camera:554", "process.stdin")
	// to the event-emitting object the application registered callbacks on.
	Sources map[string]*Object
	// Files is the virtual filesystem backing the fs module.
	Files map[string]string
	// Intervals holds callbacks registered via setInterval.
	Intervals []Value
	// Denied counts sink writes suppressed by the fail-closed gate (the
	// tracker was degraded when the write reached the sink boundary).
	Denied int
}

// NewIORecorder returns an empty recorder with a few seed files.
func NewIORecorder() *IORecorder {
	return &IORecorder{
		Sources: make(map[string]*Object),
		Files:   make(map[string]string),
	}
}

// Reset prepares the recorder for a fresh run: it clears the recorded
// writes and the interval callbacks registered by the previous run (a
// reused interpreter must not re-fire a prior program's setInterval
// handlers). Sources and Files are intentionally kept — they model the
// deployment environment (attached devices, the virtual disk), which
// persists across runs of the same interpreter.
func (r *IORecorder) Reset() {
	r.Writes = r.Writes[:0]
	r.Intervals = nil
	r.Denied = 0
}

// WritesTo returns the writes whose module matches.
func (r *IORecorder) WritesTo(module string) []SinkWrite {
	var out []SinkWrite
	for _, w := range r.Writes {
		if w.Module == module {
			out = append(out, w)
		}
	}
	return out
}

// record appends a sink write, unwrapping tracked values so external
// interfaces receive native data (§4.4).
func (ip *Interp) record(module, op, target string, v Value) {
	// Fail-closed gate: every sink write funnels through here, so a
	// degraded tracker suppresses the write no matter how the op was
	// reached — including paths with no instrumented check in front of
	// them. This is what makes "no sink write after a guard trip" a
	// property of the runtime rather than of the instrumentation.
	if ip.Tracker != nil && ip.Tracker.FailClosed {
		if degraded, _ := ip.Tracker.Degraded(); degraded {
			ip.IO.Denied++
			if ip.Metrics != nil {
				ip.Metrics.Add("sink.denied."+module+"."+op, 1)
			}
			return
		}
	}
	// the labels are read before unwrapping: UnwrapDeep strips Box
	// wrappers, and with them the identities the label map is keyed on
	if ip.Tracer != nil {
		var labels []string
		if ip.Tracker != nil {
			labels = dift.LabelStrings(ip.Tracker.DataLabels(v))
		}
		ip.Tracer.Record(telemetry.Event{Op: "sink", Site: module + "." + op, Target: target, Labels: labels})
	}
	if ip.Tracker != nil {
		v = ip.Tracker.UnwrapDeep(v)
	} else {
		v = dift.Unwrap(v)
	}
	if ip.Metrics != nil {
		ip.Metrics.Add("sink."+module+"."+op, 1)
	}
	ip.IO.Writes = append(ip.IO.Writes, SinkWrite{Module: module, Op: op, Target: target, Value: v})
}

// fault consults the injector (when installed) before a host operation.
// An injected delay is performed here, on the virtual clock; an injected
// failure returns the Node-style error object the op should surface
// (throw for sync ops, first callback argument for async ones). The
// decision is a pure function of the operation's identity and invocation
// count, so the original and instrumented versions of an application see
// an identical fault sequence.
func (ip *Interp) fault(module, op, target string) (faults.Decision, *Object) {
	// every host-module operation funnels through here, making it the one
	// interception point for host-call metrics
	if ip.Metrics != nil {
		ip.Metrics.Add("host."+module+"."+op, 1)
	}
	if ip.Faults == nil {
		return faults.Decision{Action: faults.Pass}, nil
	}
	d := ip.Faults.Decide(module, op, target)
	switch d.Action {
	case faults.Delay:
		ip.Clock.Advance(d.Delay)
		// the clock just moved: probe the guard deadline immediately so an
		// injected-delay storm cannot outrun the periodic fuel-based probe
		ip.Guard.CheckDeadline(module + "." + op)
	case faults.Fail:
		return d, ip.faultError(d, module, op)
	}
	return d, nil
}

// faultError builds the Node-style error object for an injected failure:
// the conventional "CODE: detail" message is split into a code property.
func (ip *Interp) faultError(d faults.Decision, module, op string) *Object {
	e := ip.MakeError("Error", d.Err)
	if i := strings.IndexByte(d.Err, ':'); i > 0 {
		e.Set("code", d.Err[:i])
	}
	e.Set("syscall", module+"."+op)
	return e
}

// Emit fires the named event on an emitter object, invoking every listener
// registered via .on(event, cb). It is how the workload pump injects
// messages into the application. Every listener is delivered to even when
// an earlier one fails — one bad callback must not starve its siblings —
// and the collected errors are returned joined.
func (ip *Interp) Emit(obj *Object, event string, args ...Value) error {
	ip.enter()
	defer ip.exit()
	var errs []error
	for _, cb := range obj.Listeners[event] {
		if _, err := ip.CallFunction(cb, obj, args, ast.Pos{}); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// RegisterModule installs a custom module for require(name); used by the
// Node-RED substrate to provide third-party node packages.
func (ip *Interp) RegisterModule(name string, v Value) { ip.modules[name] = v }

// SetLocalLoader installs the resolver for local requires ("./x"). The
// loader returns the module's exports value; results are cached.
func (ip *Interp) SetLocalLoader(loader func(name string) (Value, bool, error)) {
	ip.localLoader = loader
}

// RunModule executes a parsed file with fresh module/exports bindings and
// returns its module.exports. The previous bindings are restored, so
// nested requires work.
func (ip *Interp) RunModule(prog *ast.Program) (Value, error) {
	g := ip.Globals
	prevModule, hadModule := g.Lookup("module")
	prevExports, hadExports := g.Lookup("exports")
	moduleObj := NewObject()
	exportsObj := NewObject()
	moduleObj.Set("exports", exportsObj)
	g.Define("module", moduleObj, false)
	g.Define("exports", exportsObj, false)
	err := ip.Run(prog)
	var out Value = exportsObj
	if v, ok := moduleObj.Get("exports"); ok {
		out = v
	}
	if hadModule {
		g.Define("module", prevModule, false)
	}
	if hadExports {
		g.Define("exports", prevExports, false)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// newEmitter creates an object with an .on method registering listeners.
func (ip *Interp) newEmitter(class string) *Object {
	o := NewObject()
	o.Class = class
	o.Listeners = make(map[string][]Value)
	o.Set("on", NewHostFunc("on", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) >= 2 {
			ev := ToString(args[0])
			o.Listeners[ev] = append(o.Listeners[ev], args[1])
		}
		return o, nil
	}))
	o.Set("once", NewHostFunc("once", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) >= 2 {
			ev := ToString(args[0])
			o.Listeners[ev] = append(o.Listeners[ev], args[1])
		}
		return o, nil
	}))
	o.Set("emit", NewHostFunc("emit", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) >= 1 {
			if err := ip.Emit(o, ToString(args[0]), args[1:]...); err != nil {
				return nil, err
			}
		}
		return true, nil
	}))
	o.Set("removeAllListeners", NewHostFunc("removeAllListeners", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) >= 1 {
			delete(o.Listeners, ToString(args[0]))
		} else {
			o.Listeners = make(map[string][]Value)
		}
		return o, nil
	}))
	return o
}

// registerSource exposes an emitter to the workload pump under a stable
// name.
func (ip *Interp) registerSource(name string, o *Object) {
	ip.IO.Sources[name] = o
}

// Source returns a previously-registered source emitter.
func (ip *Interp) Source(name string) (*Object, bool) {
	o, ok := ip.IO.Sources[name]
	return o, ok
}

// SourceNames lists registered sources (sorted) — handy in tests.
func (ip *Interp) SourceNames() []string {
	names := make([]string, 0, len(ip.IO.Sources))
	for n := range ip.IO.Sources {
		names = append(names, n)
	}
	SortStrings(names)
	return names
}

func (ip *Interp) installHostModules() {
	g := ip.Globals

	// require()
	g.Define("require", NewHostFunc("require", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return nil, &Throw{Val: ip.MakeError("Error", "require: missing module name")}
		}
		name := ToString(args[0])
		if m, ok := ip.modules[name]; ok {
			return m, nil
		}
		// local file require: "./device-control" resolves through the
		// loader installed by the deployment pipeline
		if strings.HasPrefix(name, "./") || strings.HasPrefix(name, "../") {
			key := localModuleKey(name)
			if m, ok := ip.modules[key]; ok {
				return m, nil
			}
			if ip.localLoader != nil {
				m, ok, err := ip.localLoader(key)
				if err != nil {
					return nil, err
				}
				if ok {
					ip.modules[key] = m
					return m, nil
				}
			}
			return nil, &Throw{Val: ip.MakeError("Error", fmt.Sprintf("cannot find module '%s'", name))}
		}
		m, err := ip.buildModule(name)
		if err != nil {
			return nil, err
		}
		ip.modules[name] = m
		return m, nil
	}), false)

	// process
	proc := NewObject()
	proc.Class = "process"
	stdin := ip.newEmitter("ReadStream")
	ip.registerSource("process.stdin", stdin)
	proc.Set("stdin", stdin)
	stdout := NewObject()
	stdout.Set("write", NewHostFunc("write", func(ip *Interp, this Value, args []Value) (Value, error) {
		d, errObj := ip.fault("process", "stdout.write", "stdout")
		switch d.Action {
		case faults.Fail:
			return nil, &Throw{Val: errObj}
		case faults.Drop:
			return true, nil
		}
		if len(args) > 0 {
			ip.record("process", "stdout.write", "stdout", args[0])
		}
		return true, nil
	}))
	proc.Set("stdout", stdout)
	env := NewObject()
	env.Set("NODE_ENV", "production")
	env.Set("REGION", "EU")
	proc.Set("env", env)
	proc.Set("exit", NewHostFunc("exit", func(ip *Interp, this Value, args []Value) (Value, error) {
		return undef, nil
	}))
	g.Define("process", proc, false)

	// module/exports skeleton so CommonJS-style files run unmodified
	moduleObj := NewObject()
	exportsObj := NewObject()
	moduleObj.Set("exports", exportsObj)
	g.Define("module", moduleObj, false)
	g.Define("exports", exportsObj, false)
}

// buildModule constructs a stand-in for a built-in Node module. Each module
// exposes the same call patterns as the real one so that the analyzers see
// the genuine source/sink shapes, and each sink records its writes.
func (ip *Interp) buildModule(name string) (Value, error) {
	switch name {
	case "fs":
		return ip.fsModule(), nil
	case "net":
		return ip.netModule(), nil
	case "http", "https":
		return ip.httpModule(), nil
	case "mqtt":
		return ip.mqttModule(), nil
	case "nodemailer":
		return ip.mailModule(), nil
	case "sqlite3":
		return ip.sqliteModule(), nil
	case "child_process":
		return ip.childProcessModule(), nil
	case "events":
		m := NewObject()
		m.Set("EventEmitter", NewHostFunc("EventEmitter", func(ip *Interp, this Value, args []Value) (Value, error) {
			return ip.newEmitter("EventEmitter"), nil
		}))
		return m, nil
	case "util", "path", "os", "crypto":
		return ip.miscModule(name), nil
	}
	return nil, &Throw{Val: ip.MakeError("Error", fmt.Sprintf("cannot find module '%s'", name))}
}

func (ip *Interp) fsModule() *Object {
	m := NewObject()
	m.Class = "fs"
	m.Set("readFile", NewHostFunc("readFile", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) < 2 {
			return undef, nil
		}
		path := ToString(args[0])
		cb := args[len(args)-1]
		d, errObj := ip.fault("fs", "readFile", path)
		switch d.Action {
		case faults.Fail:
			return ip.CallFunction(cb, undef, []Value{errObj, null}, ast.Pos{})
		case faults.Drop:
			return undef, nil // the callback is never invoked
		}
		content, ok := ip.IO.Files[path]
		if !ok {
			content = "contents-of:" + path
		}
		return ip.CallFunction(cb, undef, []Value{null, content}, ast.Pos{})
	}))
	m.Set("readFileSync", NewHostFunc("readFileSync", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return "", nil
		}
		path := ToString(args[0])
		d, errObj := ip.fault("fs", "readFileSync", path)
		switch d.Action {
		case faults.Fail:
			return nil, &Throw{Val: errObj}
		case faults.Drop:
			return "", nil
		}
		if content, ok := ip.IO.Files[path]; ok {
			return content, nil
		}
		return "contents-of:" + path, nil
	}))
	m.Set("writeFile", NewHostFunc("writeFile", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) < 2 {
			return undef, nil
		}
		path := ToString(args[0])
		d, errObj := ip.fault("fs", "writeFile", path)
		if d.Action == faults.Fail {
			if len(args) > 2 {
				return ip.CallFunction(args[len(args)-1], undef, []Value{errObj}, ast.Pos{})
			}
			return undef, nil
		}
		if d.Action != faults.Drop {
			ip.record("fs", "writeFile", path, args[1])
			ip.IO.Files[path] = ToString(args[1])
		}
		if len(args) > 2 {
			return ip.CallFunction(args[len(args)-1], undef, []Value{null}, ast.Pos{})
		}
		return undef, nil
	}))
	m.Set("writeFileSync", NewHostFunc("writeFileSync", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) < 2 {
			return undef, nil
		}
		path := ToString(args[0])
		d, errObj := ip.fault("fs", "writeFileSync", path)
		switch d.Action {
		case faults.Fail:
			return nil, &Throw{Val: errObj}
		case faults.Drop:
			return undef, nil
		}
		ip.record("fs", "writeFileSync", path, args[1])
		ip.IO.Files[path] = ToString(args[1])
		return undef, nil
	}))
	m.Set("appendFileSync", NewHostFunc("appendFileSync", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) < 2 {
			return undef, nil
		}
		path := ToString(args[0])
		d, errObj := ip.fault("fs", "appendFileSync", path)
		switch d.Action {
		case faults.Fail:
			return nil, &Throw{Val: errObj}
		case faults.Drop:
			return undef, nil
		}
		ip.record("fs", "appendFileSync", path, args[1])
		ip.IO.Files[path] += ToString(args[1])
		return undef, nil
	}))
	m.Set("existsSync", NewHostFunc("existsSync", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return false, nil
		}
		_, ok := ip.IO.Files[ToString(args[0])]
		return ok, nil
	}))
	m.Set("createReadStream", NewHostFunc("createReadStream", func(ip *Interp, this Value, args []Value) (Value, error) {
		path := "?"
		if len(args) > 0 {
			path = ToString(args[0])
		}
		stream := ip.newEmitter("ReadStream")
		stream.Set("path", path)
		ip.registerSource("fs.readStream:"+path, stream)
		return stream, nil
	}))
	m.Set("createWriteStream", NewHostFunc("createWriteStream", func(ip *Interp, this Value, args []Value) (Value, error) {
		path := "?"
		if len(args) > 0 {
			path = ToString(args[0])
		}
		stream := NewObject()
		stream.Class = "WriteStream"
		stream.Set("write", NewHostFunc("write", func(ip *Interp, this Value, args []Value) (Value, error) {
			d, errObj := ip.fault("fs", "stream.write", path)
			switch d.Action {
			case faults.Fail:
				return nil, &Throw{Val: errObj}
			case faults.Drop:
				return true, nil
			}
			if len(args) > 0 {
				ip.record("fs", "stream.write", path, args[0])
			}
			return true, nil
		}))
		stream.Set("end", NewHostFunc("end", func(ip *Interp, this Value, args []Value) (Value, error) {
			d, errObj := ip.fault("fs", "stream.end", path)
			switch d.Action {
			case faults.Fail:
				return nil, &Throw{Val: errObj}
			case faults.Drop:
				return undef, nil
			}
			if len(args) > 0 {
				ip.record("fs", "stream.end", path, args[0])
			}
			return undef, nil
		}))
		return stream, nil
	}))
	return m
}

func (ip *Interp) netModule() *Object {
	m := NewObject()
	m.Class = "net"
	newSocket := func(tag string) *Object {
		sock := ip.newEmitter("Socket")
		ip.registerSource("net.socket:"+tag, sock)
		sock.Set("write", NewHostFunc("write", func(ip *Interp, this Value, args []Value) (Value, error) {
			d, errObj := ip.fault("net", "socket.write", tag)
			switch d.Action {
			case faults.Fail:
				// Node signals write failure through the optional trailing
				// callback; without one, the write just reports failure
				if len(args) > 1 {
					if _, isFn := dift.Unwrap(args[len(args)-1]).(*Function); isFn {
						if _, err := ip.CallFunction(args[len(args)-1], undef, []Value{errObj}, ast.Pos{}); err != nil {
							return nil, err
						}
					}
				}
				return false, nil
			case faults.Drop:
				return true, nil
			}
			if len(args) > 0 {
				ip.record("net", "socket.write", tag, args[0])
			}
			return true, nil
		}))
		sock.Set("end", NewHostFunc("end", func(ip *Interp, this Value, args []Value) (Value, error) {
			return undef, nil
		}))
		return sock
	}
	m.Set("connect", NewHostFunc("connect", func(ip *Interp, this Value, args []Value) (Value, error) {
		tag := "default"
		if len(args) > 0 {
			switch a := dift.Unwrap(args[0]).(type) {
			case *Object:
				host, _ := a.Get("host")
				port, _ := a.Get("port")
				tag = ToString(host) + ":" + ToString(port)
			default:
				tag = ToString(a)
			}
		}
		return newSocket(tag), nil
	}))
	m.Set("createConnection", NewHostFunc("createConnection", func(ip *Interp, this Value, args []Value) (Value, error) {
		return newSocket("connection"), nil
	}))
	m.Set("createServer", NewHostFunc("createServer", func(ip *Interp, this Value, args []Value) (Value, error) {
		server := ip.newEmitter("Server")
		if len(args) > 0 {
			server.Listeners["connection"] = append(server.Listeners["connection"], args[0])
		}
		server.Set("listen", NewHostFunc("listen", func(ip *Interp, this Value, args []Value) (Value, error) {
			return server, nil
		}))
		ip.registerSource("net.server", server)
		return server, nil
	}))
	return m
}

func (ip *Interp) httpModule() *Object {
	m := NewObject()
	m.Class = "http"
	m.Set("request", NewHostFunc("request", func(ip *Interp, this Value, args []Value) (Value, error) {
		target := "http-endpoint"
		if len(args) > 0 {
			switch a := dift.Unwrap(args[0]).(type) {
			case *Object:
				if h, ok := a.Get("host"); ok {
					target = ToString(h)
				} else if h, ok := a.Get("hostname"); ok {
					target = ToString(h)
				}
			default:
				target = ToString(a)
			}
		}
		req := NewObject()
		req.Class = "ClientRequest"
		req.Set("write", NewHostFunc("write", func(ip *Interp, this Value, args []Value) (Value, error) {
			d, _ := ip.fault("http", "request.write", target)
			if d.Action == faults.Fail {
				return false, nil
			}
			if d.Action != faults.Drop && len(args) > 0 {
				ip.record("http", "request.write", target, args[0])
			}
			return true, nil
		}))
		req.Set("end", NewHostFunc("end", func(ip *Interp, this Value, args []Value) (Value, error) {
			d, _ := ip.fault("http", "request.end", target)
			if d.Action == faults.Fail || d.Action == faults.Drop {
				return undef, nil
			}
			if len(args) > 0 {
				ip.record("http", "request.end", target, args[0])
			}
			return undef, nil
		}))
		req.Set("on", NewHostFunc("on", func(ip *Interp, this Value, args []Value) (Value, error) {
			return req, nil
		}))
		// response callback receives an emitter the pump can feed
		if len(args) > 1 {
			res := ip.newEmitter("IncomingMessage")
			ip.registerSource("http.response:"+target, res)
			if _, err := ip.CallFunction(args[1], undef, []Value{res}, ast.Pos{}); err != nil {
				return nil, err
			}
		}
		return req, nil
	}))
	m.Set("get", NewHostFunc("get", func(ip *Interp, this Value, args []Value) (Value, error) {
		target := "http-endpoint"
		if len(args) > 0 {
			target = ToString(args[0])
		}
		if len(args) > 1 {
			res := ip.newEmitter("IncomingMessage")
			ip.registerSource("http.response:"+target, res)
			if _, err := ip.CallFunction(args[1], undef, []Value{res}, ast.Pos{}); err != nil {
				return nil, err
			}
		}
		req := NewObject()
		req.Set("on", NewHostFunc("on", func(ip *Interp, this Value, args []Value) (Value, error) { return req, nil }))
		req.Set("end", NewHostFunc("end", func(ip *Interp, this Value, args []Value) (Value, error) { return undef, nil }))
		return req, nil
	}))
	m.Set("createServer", NewHostFunc("createServer", func(ip *Interp, this Value, args []Value) (Value, error) {
		server := ip.newEmitter("Server")
		if len(args) > 0 {
			server.Listeners["request"] = append(server.Listeners["request"], args[0])
		}
		server.Set("listen", NewHostFunc("listen", func(ip *Interp, this Value, args []Value) (Value, error) {
			return server, nil
		}))
		ip.registerSource("http.server", server)
		return server, nil
	}))
	return m
}

func (ip *Interp) mqttModule() *Object {
	m := NewObject()
	m.Class = "mqtt"
	m.Set("connect", NewHostFunc("connect", func(ip *Interp, this Value, args []Value) (Value, error) {
		url := "broker"
		if len(args) > 0 {
			url = ToString(args[0])
		}
		client := ip.newEmitter("MqttClient")
		ip.registerSource("mqtt:"+url, client)
		client.Set("publish", NewHostFunc("publish", func(ip *Interp, this Value, args []Value) (Value, error) {
			topic := "?"
			if len(args) > 0 {
				topic = ToString(args[0])
			}
			d, errObj := ip.fault("mqtt", "publish", topic)
			switch d.Action {
			case faults.Fail:
				// publish(topic, msg, [cb]): failure goes to the callback
				// when given, otherwise it throws like a lost connection
				if len(args) > 2 {
					if _, isFn := dift.Unwrap(args[len(args)-1]).(*Function); isFn {
						if _, err := ip.CallFunction(args[len(args)-1], undef, []Value{errObj}, ast.Pos{}); err != nil {
							return nil, err
						}
						return client, nil
					}
				}
				return nil, &Throw{Val: errObj}
			case faults.Drop:
				return client, nil
			}
			if len(args) > 1 {
				ip.record("mqtt", "publish", topic, args[1])
			}
			return client, nil
		}))
		client.Set("subscribe", NewHostFunc("subscribe", func(ip *Interp, this Value, args []Value) (Value, error) {
			return client, nil
		}))
		client.Set("end", NewHostFunc("end", func(ip *Interp, this Value, args []Value) (Value, error) {
			return undef, nil
		}))
		return client, nil
	}))
	return m
}

func (ip *Interp) mailModule() *Object {
	m := NewObject()
	m.Class = "nodemailer"
	m.Set("createTransport", NewHostFunc("createTransport", func(ip *Interp, this Value, args []Value) (Value, error) {
		transport := NewObject()
		transport.Class = "SMTPTransport"
		transport.Set("sendMail", NewHostFunc("sendMail", func(ip *Interp, this Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return undef, nil
			}
			to := "?"
			if opts, ok := dift.Unwrap(args[0]).(*Object); ok {
				if t, found := opts.Get("to"); found {
					to = ToString(t)
				}
			}
			d, errObj := ip.fault("smtp", "sendMail", to)
			switch d.Action {
			case faults.Fail:
				if len(args) > 1 {
					return ip.CallFunction(args[1], undef, []Value{errObj, null}, ast.Pos{})
				}
				return nil, &Throw{Val: errObj}
			case faults.Drop:
				// the mail vanishes in transit; the caller sees success
				if len(args) > 1 {
					info := NewObject()
					info.Set("accepted", NewArray(to))
					return ip.CallFunction(args[1], undef, []Value{null, info}, ast.Pos{})
				}
				return undef, nil
			}
			ip.record("smtp", "sendMail", to, args[0])
			if len(args) > 1 {
				info := NewObject()
				info.Set("accepted", NewArray(to))
				return ip.CallFunction(args[1], undef, []Value{null, info}, ast.Pos{})
			}
			return undef, nil
		}))
		return transport, nil
	}))
	return m
}

func (ip *Interp) sqliteModule() *Object {
	m := NewObject()
	m.Class = "sqlite3"
	m.Set("Database", NewHostFunc("Database", func(ip *Interp, this Value, args []Value) (Value, error) {
		path := "db.sqlite"
		if len(args) > 0 {
			path = ToString(args[0])
		}
		db := NewObject()
		db.Class = "Database"
		db.Set("run", NewHostFunc("run", func(ip *Interp, this Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return db, nil
			}
			sql := ToString(args[0])
			d, errObj := ip.fault("sqlite", "run", path+":"+firstWord(sql))
			switch d.Action {
			case faults.Fail:
				if len(args) > 2 {
					if _, isFn := dift.Unwrap(args[len(args)-1]).(*Function); isFn {
						if _, err := ip.CallFunction(args[len(args)-1], undef, []Value{errObj}, ast.Pos{}); err != nil {
							return nil, err
						}
						return db, nil
					}
				}
				return nil, &Throw{Val: errObj}
			case faults.Drop:
				return db, nil
			}
			var payload Value = undef
			if len(args) > 1 {
				payload = args[1]
			}
			ip.record("sqlite", "run", path+":"+firstWord(sql), payload)
			// optional trailing callback
			if len(args) > 2 {
				if _, isFn := dift.Unwrap(args[len(args)-1]).(*Function); isFn {
					return ip.CallFunction(args[len(args)-1], undef, []Value{null}, ast.Pos{})
				}
			}
			return db, nil
		}))
		db.Set("all", NewHostFunc("all", func(ip *Interp, this Value, args []Value) (Value, error) {
			if len(args) < 2 {
				return db, nil
			}
			sql := ""
			if len(args) > 0 {
				sql = ToString(args[0])
			}
			d, errObj := ip.fault("sqlite", "all", path+":"+firstWord(sql))
			switch d.Action {
			case faults.Fail:
				return ip.CallFunction(args[len(args)-1], undef, []Value{errObj, null}, ast.Pos{})
			case faults.Drop:
				return db, nil
			}
			rows := NewArray()
			return ip.CallFunction(args[len(args)-1], undef, []Value{null, rows}, ast.Pos{})
		}))
		db.Set("close", NewHostFunc("close", func(ip *Interp, this Value, args []Value) (Value, error) {
			return undef, nil
		}))
		return db, nil
	}))
	m.Set("verbose", NewHostFunc("verbose", func(ip *Interp, this Value, args []Value) (Value, error) {
		return m, nil
	}))
	return m
}

func (ip *Interp) childProcessModule() *Object {
	m := NewObject()
	m.Class = "child_process"
	m.Set("exec", NewHostFunc("exec", func(ip *Interp, this Value, args []Value) (Value, error) {
		cmd := "?"
		if len(args) > 0 {
			cmd = ToString(args[0])
		}
		d, errObj := ip.fault("child_process", "exec", cmd)
		switch d.Action {
		case faults.Fail:
			if len(args) > 1 {
				return ip.CallFunction(args[len(args)-1], undef, []Value{errObj, "", ""}, ast.Pos{})
			}
			return nil, &Throw{Val: errObj}
		case faults.Drop:
			return undef, nil
		}
		ip.record("child_process", "exec", cmd, cmd)
		if len(args) > 1 {
			return ip.CallFunction(args[len(args)-1], undef, []Value{null, "output-of:" + cmd, ""}, ast.Pos{})
		}
		return undef, nil
	}))
	return m
}

func (ip *Interp) miscModule(name string) *Object {
	m := NewObject()
	m.Class = name
	switch name {
	case "path":
		m.Set("join", NewHostFunc("join", func(ip *Interp, this Value, args []Value) (Value, error) {
			parts := make([]string, len(args))
			for i, a := range args {
				parts[i] = ToString(a)
			}
			out := ""
			for i, p := range parts {
				if i > 0 {
					out += "/"
				}
				out += p
			}
			return out, nil
		}))
		m.Set("basename", NewHostFunc("basename", func(ip *Interp, this Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return "", nil
			}
			s := ToString(args[0])
			for i := len(s) - 1; i >= 0; i-- {
				if s[i] == '/' {
					return s[i+1:], nil
				}
			}
			return s, nil
		}))
	case "os":
		m.Set("hostname", NewHostFunc("hostname", func(ip *Interp, this Value, args []Value) (Value, error) {
			return "iot-gateway", nil
		}))
	case "crypto":
		m.Set("createHash", NewHostFunc("createHash", func(ip *Interp, this Value, args []Value) (Value, error) {
			h := NewObject()
			acc := ""
			h.Set("update", NewHostFunc("update", func(ip *Interp, this Value, args []Value) (Value, error) {
				if len(args) > 0 {
					acc += ToString(args[0])
				}
				return h, nil
			}))
			h.Set("digest", NewHostFunc("digest", func(ip *Interp, this Value, args []Value) (Value, error) {
				// tiny deterministic FNV-style digest
				var sum uint64 = 1469598103934665603
				for i := 0; i < len(acc); i++ {
					sum ^= uint64(acc[i])
					sum *= 1099511628211
				}
				return fmt.Sprintf("%016x", sum), nil
			}))
			return h, nil
		}))
	case "util":
		m.Set("inspect", NewHostFunc("inspect", func(ip *Interp, this Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return "undefined", nil
			}
			return Inspect(args[0]), nil
		}))
	}
	return m
}

// localModuleKey normalizes "./device-control" to "device-control.js".
func localModuleKey(name string) string {
	for strings.HasPrefix(name, "./") {
		name = name[2:]
	}
	for strings.HasPrefix(name, "../") {
		name = name[3:]
	}
	if !strings.HasSuffix(name, ".js") {
		name += ".js"
	}
	return name
}

func firstWord(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			return s[:i]
		}
	}
	return s
}
