// Package core wires Turnstile's components into the end-to-end workflow
// of Fig. 3: the Dataflow Analyzer identifies privacy-sensitive code paths,
// the Code Instrumentor injects DIF Tracker calls along them, and the
// resulting privacy-managed application runs on the same runtime as the
// original with the inlined tracker enforcing the IFC policy.
package core

import (
	"fmt"
	"sort"

	"turnstile/internal/ast"

	"turnstile/internal/dift"
	"turnstile/internal/faults"
	"turnstile/internal/guard"
	"turnstile/internal/instrument"
	"turnstile/internal/interp"
	"turnstile/internal/parser"
	"turnstile/internal/policy"
	"turnstile/internal/printer"
	"turnstile/internal/resolve"
	"turnstile/internal/taint"
	"turnstile/internal/telemetry"
)

// Options configures the pipeline.
type Options struct {
	// Mode selects selective (default) or exhaustive instrumentation.
	Mode instrument.Mode
	// Enforce blocks violating flows (true) or audits them (false).
	Enforce bool
	// Analyzer tunes the static analysis.
	Analyzer taint.Options
	// ImplicitFlows enables the experimental control-dependence tracking
	// of §8: the analyzer propagates taint across branches, the
	// instrumentor wraps conditionals in pc scopes, and the tracker labels
	// values written under secret control.
	ImplicitFlows bool
	// Metrics, when non-nil, is attached to the runtime and tracker before
	// deployment, so load-time tracker activity is counted too.
	Metrics *telemetry.Metrics
	// TraceCapacity > 0 attaches a structured event tracer (a ring buffer
	// of that many events, timestamped on the virtual clock) exposed as
	// ManagedApp.Tracer.
	TraceCapacity int
	// Guard, when non-nil, installs a resource guard with these limits on
	// the deployed runtime (fuel, call depth, allocation units, virtual
	// deadline). Budget trips surface as typed *guard.BudgetError.
	Guard *guard.Limits
	// FailClosed puts the tracker in fail-closed mode: any internal
	// inconsistency or guard trip poisons it and every subsequent sink
	// check (and sink write) is denied with reason "degraded".
	FailClosed bool
	// Faults, when non-nil, installs the deterministic fault injector on
	// the runtime before deployment, so load-time host operations are
	// subject to the schedule too.
	Faults *faults.Schedule
	// Engine selects the deployed runtime's execution engine: the bytecode
	// VM (the zero value) or the tree-walker, the VM's differential oracle.
	Engine interp.Engine
}

// DefaultOptions returns the paper's configuration: selective
// instrumentation with enforcement on.
func DefaultOptions() Options {
	return Options{Mode: instrument.Selective, Enforce: true, Analyzer: taint.DefaultOptions()}
}

// ManagedApp is a deployed privacy-managed application: the instrumented
// code running with its inlined DIF Tracker.
type ManagedApp struct {
	IP      *interp.Interp
	Tracker *dift.Tracker
	Policy  *policy.Policy
	// Analysis is the static dataflow analysis that drove selection.
	Analysis *taint.Result
	// Instrumented maps file name → privacy-managed source.
	Instrumented map[string]string
	// Results per file from the instrumentor.
	Results map[string]*instrument.Result
	// Tracer is the structured event tracer (nil unless
	// Options.TraceCapacity was set).
	Tracer *telemetry.Tracer
	// Guard is the installed resource guard (nil unless Options.Guard was
	// set); inspect Guard.Tripped() after a run.
	Guard *guard.Guard
}

// Analyze runs only the Dataflow Analyzer over named sources.
func Analyze(sources map[string]string, opts taint.Options) (*taint.Result, error) {
	files, err := parseAll(sources)
	if err != nil {
		return nil, err
	}
	return taint.Analyze(files, opts), nil
}

// Manage runs the full workflow: analyze, instrument, deploy. The policy
// document is the developer-written IFC policy (Figs. 4 and 7); its label
// functions are MiniJS sources compiled against the managed runtime.
func Manage(sources map[string]string, policyJSON string, opts Options) (*ManagedApp, error) {
	files, err := parseAll(sources)
	if err != nil {
		return nil, err
	}
	if opts.ImplicitFlows {
		opts.Analyzer.ImplicitFlows = true
	}
	var analysis *taint.Result
	if err := guard.Contain("analyze", "", func() error {
		analysis = taint.Analyze(files, opts.Analyzer)
		return nil
	}); err != nil {
		return nil, err
	}

	ip := interp.New()
	ip.Engine = opts.Engine
	if opts.Faults != nil {
		ip.InstallFaults(opts.Faults)
	}
	var tracer *telemetry.Tracer
	if opts.TraceCapacity > 0 {
		tracer = telemetry.NewTracer(opts.TraceCapacity, ip.Clock.Now)
	}
	if opts.Metrics != nil || tracer != nil {
		ip.EnableTelemetry(opts.Metrics, tracer)
	}
	pol, err := policy.ParseJSON([]byte(policyJSON), ip.CompileLabelFunc)
	if err != nil {
		return nil, err
	}

	app := &ManagedApp{
		IP:           ip,
		Policy:       pol,
		Analysis:     analysis,
		Instrumented: make(map[string]string, len(files)),
		Results:      make(map[string]*instrument.Result, len(files)),
		Tracer:       tracer,
	}
	tr := ip.InstallTracker(pol)
	tr.Enforce = opts.Enforce
	tr.FailClosed = opts.FailClosed
	if opts.ImplicitFlows {
		tr.EnableImplicit()
	}
	app.Tracker = tr
	if opts.Guard != nil {
		g := guard.New(*opts.Guard)
		g.SetMetrics(opts.Metrics)
		ip.SetGuard(g) // binds the deadline to ip.Clock and wires fail-closed poisoning
		app.Guard = g
	}

	// instrument every file before deployment; each stage is contained so
	// a panic on one adversarial input surfaces as a typed *PipelineError
	// instead of taking down the caller (e.g. a harness worker)
	managed := make(map[string]*ast.Program, len(files))
	for _, f := range files {
		var res *instrument.Result
		if err := guard.Contain("instrument", f.Name, func() error {
			r, err := instrument.Instrument(f.Prog, instrument.Options{
				Mode:          opts.Mode,
				Selection:     instrument.Selection(analysis.SelectionFor(f.Name)),
				Injections:    pol.Injections,
				File:          f.Name,
				ImplicitFlows: opts.ImplicitFlows,
			})
			res = r
			return err
		}); err != nil {
			return nil, fmt.Errorf("core: instrumenting %s: %w", f.Name, err)
		}
		src, err := Prepare(res, opts.Metrics)
		if err != nil {
			return nil, fmt.Errorf("core: printing instrumented %s: %w", f.Name, err)
		}
		app.Instrumented[f.Name] = src
		app.Results[f.Name] = res
		managed[f.Name] = res.Program
	}

	// deploy with local-require support: each file is a module; requiring
	// "./x" loads the instrumented x.js on demand, with cycle protection
	loading := make(map[string]bool)
	exports := make(map[string]interp.Value)
	ip.SetLocalLoader(func(name string) (interp.Value, bool, error) {
		prog, ok := managed[name]
		if !ok {
			return nil, false, nil
		}
		if exp, done := exports[name]; done {
			return exp, true, nil
		}
		if loading[name] {
			return nil, false, fmt.Errorf("core: require cycle through %s", name)
		}
		loading[name] = true
		defer func() { loading[name] = false }()
		exp, err := ip.RunModule(prog)
		if err != nil {
			return nil, false, fmt.Errorf("core: loading %s: %w", name, err)
		}
		exports[name] = exp
		return exp, true, nil
	})
	for _, f := range files {
		if _, done := exports[f.Name]; done {
			continue
		}
		if err := guard.Contain("deploy", f.Name, func() error {
			_, _, err := mustLoad(ip, f.Name)
			return err
		}); err != nil {
			return nil, err
		}
	}
	return app, nil
}

// Prepare readies one instrumented file to run and returns its
// privacy-managed source (§4.3), the text ManagedApp.Instrumented holds.
// printer.Stamp prints res.Program and gives every node the position
// parser.Parse would give it in that text; resolve.Resolve then annotates
// the same tree, which the runtime compiles and runs. Nothing is parsed
// twice: the tree is the instrumentor's own, which shares no node with
// the analyzed original. Resolver counters go to m when it is non-nil.
func Prepare(res *instrument.Result, m *telemetry.Metrics) (string, error) {
	src, err := printer.Stamp(res.Program)
	if err != nil {
		return "", err
	}
	r := resolve.Resolve(res.Program)
	if m != nil {
		m.Add(telemetry.CtrResolveScopes, int64(r.Scopes))
		m.Add(telemetry.CtrResolveSlots, int64(r.Slots))
		m.Add(telemetry.CtrResolveResolved, int64(r.Resolved))
		m.Add(telemetry.CtrResolveDynamic, int64(r.Dynamic))
	}
	return src, nil
}

// mustLoad drives the local loader for a deployment entry file.
func mustLoad(ip *interp.Interp, name string) (interp.Value, bool, error) {
	loaderRun := func() (interp.Value, error) {
		// route through require so caching and cycle detection apply
		reqV, _ := ip.Globals.Lookup("require")
		return ip.CallFunction(reqV, interp.Undefined{}, []interp.Value{"./" + name}, ast.Pos{})
	}
	v, err := loaderRun()
	if err != nil {
		return nil, false, err
	}
	return v, true, nil
}

// Emit injects an event into one of the application's I/O sources (what
// the outside world does at run time).
func (m *ManagedApp) Emit(sourceName, event string, payload any) error {
	src, ok := m.IP.Source(sourceName)
	if !ok {
		return fmt.Errorf("core: unknown source %q (have %v)", sourceName, m.IP.SourceNames())
	}
	return m.IP.Emit(src, event, payload)
}

// Violations returns the policy violations detected so far.
func (m *ManagedApp) Violations() []*dift.Violation { return m.Tracker.Violations() }

// Writes returns the observable sink writes so far.
func (m *ManagedApp) Writes() []interp.SinkWrite { return m.IP.IO.Writes }

// parseAll parses named sources in deterministic order.
func parseAll(sources map[string]string) ([]taint.File, error) {
	names := make([]string, 0, len(sources))
	for n := range sources {
		names = append(names, n)
	}
	sort.Strings(names)
	files := make([]taint.File, 0, len(names))
	for _, n := range names {
		var prog *ast.Program
		if err := guard.Contain("parse", n, func() error {
			p, err := parser.Parse(n, sources[n])
			prog = p
			return err
		}); err != nil {
			return nil, err
		}
		files = append(files, taint.File{Name: n, Prog: prog})
	}
	return files, nil
}
