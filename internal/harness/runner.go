package harness

import (
	"fmt"

	"turnstile/internal/ast"
	"turnstile/internal/corpus"
	"turnstile/internal/instrument"
	"turnstile/internal/interp"
	"turnstile/internal/parser"
	"turnstile/internal/policy"
	"turnstile/internal/printer"
	"turnstile/internal/resolve"
	"turnstile/internal/taint"
	"turnstile/internal/vm"
)

// Runner is one executable version of an application: an interpreter with
// the (possibly instrumented) program loaded and its input source located.
type Runner struct {
	App    *corpus.App
	IP     *interp.Interp
	source *interp.Object
	// Mode describes the version ("original", "selective", "exhaustive").
	Mode string
}

// Process feeds the i-th workload message into the application.
func (r *Runner) Process(i int) error {
	return r.IP.Emit(r.source, "data", r.App.Message(i))
}

// PreparedApp bundles the three versions of §6.2.
type PreparedApp struct {
	App        *corpus.App
	Original   *Runner
	Selective  *Runner
	Exhaustive *Runner
	// Analysis is the dataflow-analysis result that drove selection.
	Analysis *taint.Result
	// SelectiveResult / ExhaustiveResult report instrumentation activity.
	SelectiveResult  *instrument.Result
	ExhaustiveResult *instrument.Result
}

// PrepareApp parses, analyzes, instruments and loads all three versions of
// a runnable corpus app — the full Turnstile workflow of Fig. 3.
func PrepareApp(app *corpus.App) (*PreparedApp, error) {
	return PrepareAppCached(app, nil)
}

// PrepareAppCached is PrepareApp with an optional pipeline cache: the
// parse and dataflow analysis are looked up (or computed once) in the
// cache, and the cached AST — which every downstream stage treats as
// read-only — is shared by the original version's interpreter instead of
// being re-parsed. Safe to call from multiple goroutines with one shared
// cache.
func PrepareAppCached(app *corpus.App, cache *PipelineCache) (*PreparedApp, error) {
	return PrepareAppEngine(app, cache, interp.EngineVM)
}

// PrepareAppEngine is PrepareAppCached on a chosen engine: the pipeline
// cache is keyed by the engine, all three versions run on it, and on the
// VM the original version reuses the cache's compiled bytecode module.
func PrepareAppEngine(app *corpus.App, cache *PipelineCache, engine interp.Engine) (*PreparedApp, error) {
	if !app.Runnable {
		return nil, fmt.Errorf("harness: app %s is not runnable", app.Name)
	}
	file := app.Name + ".js"
	prog, analysis, mod, err := analyzedApp(cache, file, app.Source, taint.DefaultOptions(), engine)
	if err != nil {
		return nil, err
	}

	prep := &PreparedApp{App: app, Analysis: analysis}

	// original: no tracker, no instrumentation
	orig, err := loadRunner(app, "original", prog, mod, false, engine)
	if err != nil {
		return nil, fmt.Errorf("original version: %w", err)
	}
	prep.Original = orig

	// helper building an instrumented version
	build := func(mode instrument.Mode, sel instrument.Selection) (*Runner, *instrument.Result, error) {
		ip := interp.New()
		ip.Engine = engine
		pol, err := policy.ParseJSON([]byte(app.PolicyJSON), ip.CompileLabelFunc)
		if err != nil {
			return nil, nil, fmt.Errorf("policy: %w", err)
		}
		res, err := instrument.Instrument(prog, instrument.Options{
			Mode:       mode,
			Selection:  sel,
			Injections: pol.Injections,
			File:       file,
		})
		if err != nil {
			return nil, nil, err
		}
		src := printer.Print(res.Program)
		inst, err := parser.Parse(file, src)
		if err != nil {
			return nil, nil, fmt.Errorf("instrumented output does not re-parse: %w", err)
		}
		resolve.Resolve(inst)
		tr := ip.InstallTracker(pol)
		tr.Enforce = false // audit mode for performance runs (§6.2)
		if err := ip.Run(inst); err != nil {
			return nil, nil, fmt.Errorf("running instrumented version: %w", err)
		}
		source, ok := ip.Source(app.SourceName)
		if !ok {
			return nil, nil, fmt.Errorf("source %q not registered (have %v)", app.SourceName, ip.SourceNames())
		}
		return &Runner{App: app, IP: ip, source: source, Mode: mode.String()}, res, nil
	}

	sel := instrument.Selection(analysis.SelectionFor(file))
	if prep.Selective, prep.SelectiveResult, err = build(instrument.Selective, sel); err != nil {
		return nil, fmt.Errorf("selective version: %w", err)
	}
	if prep.Exhaustive, prep.ExhaustiveResult, err = build(instrument.Exhaustive, nil); err != nil {
		return nil, fmt.Errorf("exhaustive version: %w", err)
	}
	return prep, nil
}

// loadRunner loads an uninstrumented version from an already-parsed (and
// possibly cache-shared) program; mod, when non-nil, is the cache-shared
// compiled bytecode for prog.
func loadRunner(app *corpus.App, mode string, prog *ast.Program, mod *vm.Module, withTracker bool, engine interp.Engine) (*Runner, error) {
	ip := interp.New()
	ip.Engine = engine
	if mod != nil {
		ip.RegisterCode(prog, mod)
	}
	if withTracker {
		pol, err := policy.ParseJSON([]byte(app.PolicyJSON), ip.CompileLabelFunc)
		if err != nil {
			return nil, err
		}
		ip.InstallTracker(pol)
	}
	if err := ip.Run(prog); err != nil {
		return nil, err
	}
	source, ok := ip.Source(app.SourceName)
	if !ok {
		return nil, fmt.Errorf("source %q not registered (have %v)", app.SourceName, ip.SourceNames())
	}
	return &Runner{App: app, IP: ip, source: source, Mode: mode}, nil
}
