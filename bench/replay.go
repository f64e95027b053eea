package main

import (
	"fmt"
	"sort"
	"time"

	"turnstile/internal/ast"
	"turnstile/internal/core"
	"turnstile/internal/corpus"
	"turnstile/internal/guard"
	"turnstile/internal/instrument"
	"turnstile/internal/interp"
	"turnstile/internal/parser"
	"turnstile/internal/policy"
	"turnstile/internal/printer"
	"turnstile/internal/resolve"
	"turnstile/internal/taint"
	"turnstile/internal/vm"
)

// stageNames are the deploy stages the replay times, in core.Manage's
// order. Their summed time against core.Manage's on the same apps is the
// stage coverage.
var stageNames = []string{
	"parser.parse", "taint.analyze", "policy.parse", "instrument.rewrite", "printer.print",
	"parser.reparse", "resolve.resolve", "vm.compile", "interp.init",
}

// deploySpec is one managed deployment: exactly what core.Manage takes.
type deploySpec struct {
	req     string
	sources map[string]string
	policy  string
	opts    core.Options
}

// layerCounts accumulates the static per-layer counts of replayed deploys.
type layerCounts struct {
	nodesIn, nodesOut  int
	paths              int
	sitesSel, sitesExh int
	printBytes         int
	resolved, dynamic  int
	instrs, delegated  int
	chunks, noCapture  int
}

// replayManage deploys spec the way core.Manage does, calling each stage's
// public function itself so every stage gets its own span: parse →
// analyze → policy → instrument → print → re-parse → resolve → compile →
// init. It replays the options the benchmark uses (mode, enforcement,
// implicit flows, guard); the result is a ManagedApp like the one
// core.Manage returns.
func replayManage(rec *recorder, spec deploySpec, lc *layerCounts) (*core.ManagedApp, error) {
	opts := spec.opts
	req := spec.req
	names := make([]string, 0, len(spec.sources))
	for n := range spec.sources {
		names = append(names, n)
	}
	sort.Strings(names)
	files := make([]taint.File, 0, len(names))
	for _, n := range names {
		var prog *ast.Program
		if err := rec.do("parser.parse", req, func() (err error) {
			prog, err = parser.Parse(n, spec.sources[n])
			return err
		}); err != nil {
			return nil, err
		}
		lc.nodesIn += prog.MaxID
		files = append(files, taint.File{Name: n, Prog: prog})
	}
	if opts.ImplicitFlows {
		opts.Analyzer.ImplicitFlows = true
	}
	var analysis *taint.Result
	_ = rec.do("taint.analyze", req, func() error {
		analysis = taint.Analyze(files, opts.Analyzer)
		return nil
	})
	lc.paths += len(analysis.Paths)

	// interp.init covers both halves of bringing the runtime up: building
	// the interpreter here and running the deployed modules at the end
	var ip *interp.Interp
	_ = rec.do("interp.init", req, func() error {
		ip = interp.New()
		return nil
	})
	var pol *policy.Policy
	if err := rec.do("policy.parse", req, func() (err error) {
		pol, err = policy.ParseJSON([]byte(spec.policy), ip.CompileLabelFunc)
		return err
	}); err != nil {
		return nil, err
	}
	tr := ip.InstallTracker(pol)
	tr.Enforce = opts.Enforce
	tr.FailClosed = opts.FailClosed
	if opts.ImplicitFlows {
		tr.EnableImplicit()
	}
	app := &core.ManagedApp{
		IP: ip, Tracker: tr, Policy: pol, Analysis: analysis,
		Instrumented: make(map[string]string, len(files)),
		Results:      make(map[string]*instrument.Result, len(files)),
	}
	if opts.Guard != nil {
		app.Guard = guard.New(*opts.Guard)
		ip.SetGuard(app.Guard)
	}

	managed := make(map[string]*ast.Program, len(files))
	for _, f := range files {
		var res *instrument.Result
		if err := rec.do("instrument.rewrite", req, func() (err error) {
			res, err = instrument.Instrument(f.Prog, instrument.Options{
				Mode:          opts.Mode,
				Selection:     instrument.Selection(analysis.SelectionFor(f.Name)),
				Injections:    pol.Injections,
				File:          f.Name,
				ImplicitFlows: opts.ImplicitFlows,
			})
			return err
		}); err != nil {
			return nil, fmt.Errorf("instrumenting %s: %w", f.Name, err)
		}
		sites := res.BinaryOps + res.Invokes + res.Labels + res.Tracks + res.PCScopes
		if opts.Mode == instrument.Exhaustive {
			lc.sitesExh += sites
		} else {
			lc.sitesSel += sites
		}
		var src string
		if err := rec.do("printer.print", req, func() (err error) {
			src, err = printer.SafePrint(res.Program)
			return err
		}); err != nil {
			return nil, err
		}
		lc.printBytes += len(src)
		app.Instrumented[f.Name] = src
		app.Results[f.Name] = res
		var prog *ast.Program
		if err := rec.do("parser.reparse", req, func() (err error) {
			prog, err = parser.Parse(f.Name, src)
			return err
		}); err != nil {
			return nil, fmt.Errorf("instrumented %s does not re-parse: %w", f.Name, err)
		}
		lc.nodesOut += prog.MaxID
		var rr *resolve.Result
		_ = rec.do("resolve.resolve", req, func() error {
			rr = resolve.Resolve(prog)
			return nil
		})
		lc.resolved += rr.Resolved
		lc.dynamic += rr.Dynamic
		var mod *vm.Module
		_ = rec.do("vm.compile", req, func() error {
			mod = vm.Compile(prog)
			return nil
		})
		countModule(mod, lc)
		ip.RegisterCode(prog, mod)
		managed[f.Name] = prog
	}

	// the same local-require loader core.Manage installs: each file is a
	// module, loaded once, with cycle protection
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
			return nil, false, fmt.Errorf("require cycle through %s", name)
		}
		loading[name] = true
		defer func() { loading[name] = false }()
		exp, err := ip.RunModule(prog)
		if err != nil {
			return nil, false, fmt.Errorf("loading %s: %w", name, err)
		}
		exports[name] = exp
		return exp, true, nil
	})
	if err := rec.do("interp.init", req, func() error {
		for _, f := range files {
			if _, done := exports[f.Name]; done {
				continue
			}
			reqV, _ := ip.Globals.Lookup("require")
			if _, err := ip.CallFunction(reqV, interp.Undefined{}, []interp.Value{"./" + f.Name}, ast.Pos{}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return app, nil
}

// countModule adds a compiled module's chunk and instruction counts:
// delegated instructions are the ones that fall back to the tree-walker
// (OpEvalExpr, OpExecStmt, OpTry); try sub-chunks hang off OpTry consts.
func countModule(m *vm.Module, lc *layerCounts) {
	var walk func(c *vm.Chunk)
	walk = func(c *vm.Chunk) {
		if c == nil {
			return
		}
		lc.chunks++
		if c.NoCapture {
			lc.noCapture++
		}
		for _, in := range c.Code {
			lc.instrs++
			switch in.Op {
			case vm.OpEvalExpr, vm.OpExecStmt, vm.OpTry:
				lc.delegated++
			}
		}
		for _, k := range c.Consts {
			if t, ok := k.(*vm.TryInfo); ok {
				walk(t.Body)
				walk(t.Catch)
				walk(t.Finally)
			}
		}
	}
	walk(m.Top)
	for _, c := range m.Funcs {
		walk(c)
	}
}

// managedSpecs are the selective and exhaustive deploys of runnable apps
// in the audit posture, under the guard budget lim when it is non-nil.
func managedSpecs(apps []*corpus.App, lim *guard.Limits) []deploySpec {
	var specs []deploySpec
	for _, app := range apps {
		for _, mode := range []instrument.Mode{instrument.Selective, instrument.Exhaustive} {
			opts := core.DefaultOptions()
			opts.Mode = mode
			opts.Enforce = false
			opts.Guard = lim
			specs = append(specs, deploySpec{
				req:     app.Name + "/" + mode.String(),
				sources: map[string]string{app.Name + ".js": app.Source},
				policy:  app.PolicyJSON,
				opts:    opts,
			})
		}
	}
	return specs
}

// plainLoad deploys a runnable app's original source with no analysis,
// instrumentation or tracker, on the same engine as the managed versions
// (resolved, so the VM runs it): the uninstrumented baseline every
// overhead ratio divides by.
func plainLoad(app *corpus.App) (*interp.Interp, error) {
	prog, err := parser.Parse(app.Name+".js", app.Source)
	if err != nil {
		return nil, err
	}
	resolve.Resolve(prog)
	ip := interp.New()
	if err := ip.Run(prog); err != nil {
		return nil, err
	}
	if _, ok := ip.Source(app.SourceName); !ok {
		return nil, fmt.Errorf("%s: source %q not registered", app.Name, app.SourceName)
	}
	return ip, nil
}

// emit feeds one event into a named source of an uninstrumented
// interpreter, as ManagedApp.Emit does for a managed one.
func emit(ip *interp.Interp, source, event string, payload any) error {
	src, ok := ip.Source(source)
	if !ok {
		return fmt.Errorf("unknown source %q", source)
	}
	return ip.Emit(src, event, payload)
}

// checkReplays deploys every replayed spec once more through core.Manage,
// times it, and requires the replay's instrumented sources to be
// byte-identical to core.Manage's. It returns the summed core.Manage time
// and one message per mismatch.
func checkReplays(specs []deploySpec, got []map[string]string) (time.Duration, []string, error) {
	var manage time.Duration
	var bad []string
	for i, spec := range specs {
		t := time.Now()
		app, err := core.Manage(spec.sources, spec.policy, spec.opts)
		manage += time.Since(t)
		if err != nil {
			return 0, nil, fmt.Errorf("%s: %w", spec.req, err)
		}
		for name, src := range app.Instrumented {
			if got[i][name] != src {
				bad = append(bad, fmt.Sprintf("%s: replayed instrumentation of %s differs from core.Manage", spec.req, name))
			}
		}
		if len(got[i]) != len(app.Instrumented) {
			bad = append(bad, fmt.Sprintf("%s: replay instrumented %d files, core.Manage %d", spec.req, len(got[i]), len(app.Instrumented)))
		}
	}
	return manage, bad, nil
}
