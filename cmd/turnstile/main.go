// Command turnstile is the developer-facing CLI of the Turnstile
// reproduction: it analyzes MiniJS applications for privacy-sensitive
// dataflows, instruments them against an IFC policy, and runs the managed
// result.
//
// Usage:
//
//	turnstile analyze <app.js>...            report privacy-sensitive dataflows
//	turnstile compare <app.js>...            compare against the CodeQL-equivalent baseline
//	turnstile instrument -policy p.json [-mode selective|exhaustive] <app.js>
//	turnstile run -policy p.json [-source NAME] [-messages N] <app.js>
//	turnstile run -chaos [-faultseed N | -faultschedule f.json] ...  run under fault injection
//	turnstile run -fuel N -maxdepth N -maxalloc N -deadline N [-failclosed] ...  resource governance
//	turnstile check-policy <policy.json>
//	turnstile attack [name | -run]           list, dump or score the adversarial attack corpus
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"strings"

	"turnstile/internal/baseline"
	"turnstile/internal/core"
	"turnstile/internal/corpus"
	"turnstile/internal/faults"
	"turnstile/internal/guard"
	"turnstile/internal/harness"
	"turnstile/internal/instrument"
	"turnstile/internal/interp"
	"turnstile/internal/parser"
	"turnstile/internal/policy"
	"turnstile/internal/taint"
	"turnstile/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "instrument":
		err = cmdInstrument(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "check-policy":
		err = cmdCheckPolicy(os.Args[2:])
	case "corpus":
		err = cmdCorpus(os.Args[2:])
	case "attack":
		err = cmdAttack(os.Args[2:])
	case "flow":
		err = cmdFlow(os.Args[2:])
	case "dlq":
		err = cmdDLQ(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "turnstile: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "turnstile:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  turnstile analyze <app.js>...                       report privacy-sensitive dataflows
  turnstile compare <app.js>...                       compare with the baseline analyzer
  turnstile instrument -policy p.json [-mode M] <app.js>   print the privacy-managed source
  turnstile run -policy p.json [-source S] [-messages N] <app.js>
                [-chaos] [-faultseed N] [-faultschedule f.json]     run under fault injection
                [-fuel N] [-maxdepth N] [-maxalloc N] [-deadline N] resource budgets (0 = off)
                [-failclosed]                                       deny sinks after a guard trip
                [-metrics] [-trace out.json] [-profile cpu.pprof]   observability hooks
                [-engine vm|walker]                                 execution engine (walker: the VM's oracle)
  turnstile check-policy <policy.json>                validate an IFC policy
  turnstile corpus [name]                             list the evaluation corpus / dump one app
  turnstile attack [name | -run]                      list the adversarial attack corpus / dump one app / score it
  turnstile flow -flow f.json [-policy p.json] [-inject ID] <pkg.js>...   deploy and drive a Node-RED flow
  turnstile dlq -flow f.json [-cap N] [-replay] [-advance N] <pkg.js>...  list / replay a flow's dead-letter queue
  turnstile dlq -state DIR [-tenant NAME] [-replay]                       list / replay the serve daemon's persisted dead letters
  turnstile serve [-tenants N] [-hostile] [-messages N] [-seed N]         host the multi-tenant serve daemon demo
                  [-state DIR] [-resume] [-snapevery N]                   durable WAL + snapshots; recover and resume across restarts`)
}

// readSources loads and parses the input files, fanning the per-file work
// across up to parallel workers (1 = sequential). Files are sorted first
// and results are slotted by index, so output order never depends on the
// worker interleaving.
func readSources(paths []string, parallel int) (map[string]string, []taint.File, error) {
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("no input files")
	}
	sort.Strings(paths)
	srcs := make([]string, len(paths))
	files := make([]taint.File, len(paths))
	err := harness.ForEach(len(paths), parallel, func(i int) error {
		p := paths[i]
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		prog, err := parser.Parse(p, string(data))
		if err != nil {
			return err
		}
		srcs[i] = string(data)
		files[i] = taint.File{Name: p, Prog: prog}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	sources := make(map[string]string, len(paths))
	for i, p := range paths {
		sources[p] = srcs[i]
	}
	return sources, files, nil
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	typeSensitive := fs.Bool("type-sensitive", true, "enable type-sensitive interprocedural analysis")
	implicit := fs.Bool("implicit", false, "also track implicit (control-dependence) flows")
	htmlOut := fs.String("html", "", "write a visual dataflow report to this file")
	parallel := fs.Int("parallel", harness.DefaultParallelism(), "file-loading worker count (1 = sequential)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sources, files, err := readSources(fs.Args(), *parallel)
	if err != nil {
		return err
	}
	opts := taint.DefaultOptions()
	opts.TypeSensitive = *typeSensitive
	opts.ImplicitFlows = *implicit
	res := taint.Analyze(files, opts)
	fmt.Printf("analysis completed in %v: %d privacy-sensitive dataflow(s)\n", res.Duration, len(res.Paths))
	for _, p := range res.Paths {
		fmt.Printf("  %-24s %s  →  %-22s %s\n", p.SourceKind, p.Source, p.SinkKind, p.Sink)
	}
	fmt.Printf("sources: %d, sinks: %d\n", len(res.Sources), len(res.Sinks))
	if *htmlOut != "" {
		page := taint.ReportHTML(res, files, sources)
		if err := os.WriteFile(*htmlOut, []byte(page), 0o644); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", *htmlOut)
	}
	return nil
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	parallel := fs.Int("parallel", harness.DefaultParallelism(), "file-loading worker count (1 = sequential)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, files, err := readSources(fs.Args(), *parallel)
	if err != nil {
		return err
	}
	tr := taint.Analyze(files, taint.DefaultOptions())
	br := baseline.Analyze(files)
	fmt.Printf("%-26s %10s %12s\n", "", "turnstile", "baseline")
	fmt.Printf("%-26s %10d %12d\n", "privacy-sensitive paths", len(tr.Paths), len(br.Paths))
	fmt.Printf("%-26s %10v %12v\n", "analysis time", tr.Duration, br.Duration)
	return nil
}

func cmdInstrument(args []string) error {
	fs := flag.NewFlagSet("instrument", flag.ExitOnError)
	policyPath := fs.String("policy", "", "IFC policy JSON file")
	mode := fs.String("mode", "selective", "instrumentation mode: selective or exhaustive")
	parallel := fs.Int("parallel", harness.DefaultParallelism(), "file-loading worker count (1 = sequential)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sources, files, err := readSources(fs.Args(), *parallel)
	if err != nil {
		return err
	}
	_ = files
	policyJSON := `{"rules":[]}`
	if *policyPath != "" {
		data, err := os.ReadFile(*policyPath)
		if err != nil {
			return err
		}
		policyJSON = string(data)
	}
	opts := core.DefaultOptions()
	if *mode == "exhaustive" {
		opts.Mode = instrument.Exhaustive
	}
	opts.Enforce = false
	app, err := core.Manage(sources, policyJSON, opts)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(app.Instrumented))
	for n := range app.Instrumented {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		res := app.Results[n]
		fmt.Printf("// %s — %d label(s), %d binaryOp(s), %d invoke(s), %d track(s)\n",
			n, res.Labels, res.BinaryOps, res.Invokes, res.Tracks)
		fmt.Println(app.Instrumented[n])
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	policyPath := fs.String("policy", "", "IFC policy JSON file")
	mode := fs.String("mode", "selective", "instrumentation mode")
	sourceName := fs.String("source", "", "I/O source to feed (default: first registered)")
	messages := fs.Int("messages", 10, "number of messages to inject")
	payload := fs.String("payload", "person%d:E%d", "payload format (two %d verbs)")
	enforce := fs.Bool("enforce", true, "block violating flows")
	implicit := fs.Bool("implicit", false, "track implicit (control-dependence) flows")
	parallel := fs.Int("parallel", harness.DefaultParallelism(), "file-loading worker count (1 = sequential)")
	chaos := fs.Bool("chaos", false, "run under deterministic fault injection")
	faultSeed := fs.Int64("faultseed", 1, "seed for the generated fault schedule")
	faultSchedule := fs.String("faultschedule", "", "JSON fault schedule file (implies -chaos)")
	fuel := fs.Int64("fuel", 0, "interpreter step budget (0 = unlimited)")
	maxDepth := fs.Int64("maxdepth", 0, "call-stack depth cap (0 = unlimited)")
	maxAlloc := fs.Int64("maxalloc", 0, "allocation-unit budget (0 = unlimited)")
	deadline := fs.Int64("deadline", 0, "virtual-clock deadline in ticks (0 = none)")
	failClosed := fs.Bool("failclosed", false, "fail closed: deny all sink flows after a guard trip or tracker inconsistency")
	metrics := fs.Bool("metrics", false, "print the telemetry metrics table after the run")
	traceOut := fs.String("trace", "", "write the structured event trace to this file (chrome-trace format with a .chrome.json suffix, JSON otherwise)")
	profileOut := fs.String("profile", "", "write a pprof CPU profile of the run to this file")
	var engine interp.Engine
	fs.TextVar(&engine, "engine", interp.EngineVM, "execution engine: vm or walker (the VM's differential oracle)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *profileOut != "" {
		f, err := os.Create(*profileOut)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("cpu profile written to %s\n", *profileOut)
		}()
	}
	sources, _, err := readSources(fs.Args(), *parallel)
	if err != nil {
		return err
	}
	policyJSON := `{"rules":[]}`
	if *policyPath != "" {
		data, err := os.ReadFile(*policyPath)
		if err != nil {
			return err
		}
		policyJSON = string(data)
	}
	opts := core.DefaultOptions()
	if *mode == "exhaustive" {
		opts.Mode = instrument.Exhaustive
	}
	opts.Enforce = *enforce
	opts.ImplicitFlows = *implicit
	if *fuel > 0 || *maxDepth > 0 || *maxAlloc > 0 || *deadline > 0 {
		opts.Guard = &guard.Limits{
			Fuel: *fuel, MaxDepth: *maxDepth, MaxAlloc: *maxAlloc, DeadlineTicks: *deadline,
		}
	}
	opts.FailClosed = *failClosed
	opts.Engine = engine
	if *metrics {
		opts.Metrics = telemetry.NewMetrics()
	}
	if *traceOut != "" {
		opts.TraceCapacity = telemetry.DefaultTraceCapacity
	}
	app, err := core.Manage(sources, policyJSON, opts)
	if err != nil {
		return err
	}
	var injector *faults.Injector
	if *chaos || *faultSchedule != "" {
		var schedule *faults.Schedule
		if *faultSchedule != "" {
			data, err := os.ReadFile(*faultSchedule)
			if err != nil {
				return err
			}
			if schedule, err = faults.ParseSchedule(data); err != nil {
				return err
			}
		} else {
			schedule = faults.Generate(*faultSeed, fs.Arg(0))
		}
		injector = app.IP.InstallFaults(schedule)
	}
	name := *sourceName
	if name == "" {
		names := app.IP.SourceNames()
		if len(names) == 0 {
			return fmt.Errorf("application registered no I/O sources")
		}
		name = names[0]
	}
	fmt.Printf("feeding %d message(s) into %s\n", *messages, name)
	for i := 0; i < *messages; i++ {
		msg := fmt.Sprintf(*payload, i, i%7)
		if err := app.Emit(name, "data", msg); err != nil {
			if injector != nil {
				fmt.Printf("  message %d error: %v\n", i, err)
			} else {
				fmt.Printf("  message %d BLOCKED: %v\n", i, err)
			}
		}
	}
	if injector != nil {
		st := injector.Stats()
		fmt.Printf("fault injection: %d op(s): %d failed, %d dropped, %d delayed (virtual clock at %d)\n",
			st.Ops, st.Failed, st.Dropped, st.Delayed, app.IP.Clock.Now())
		for _, line := range strings.Split(strings.TrimRight(injector.TraceString(), "\n"), "\n") {
			if line != "" {
				fmt.Println("  fault:", line)
			}
		}
	}
	if app.Guard != nil {
		if be := app.Guard.Tripped(); be != nil {
			fmt.Printf("guard TRIPPED: %v\n", be)
		} else {
			fmt.Printf("guard: within budget (fuel %d, alloc %d)\n",
				app.Guard.FuelUsed(), app.Guard.AllocUsed())
		}
	}
	if deg, reason := app.Tracker.Degraded(); deg {
		fmt.Printf("tracker DEGRADED (fail-closed): %s\n", reason)
	}
	fmt.Printf("sink writes: %d, violations: %d, tracker stats: %+v\n",
		len(app.Writes()), len(app.Violations()), app.Tracker.Stats())
	for _, v := range app.Violations() {
		fmt.Println("  violation:", v.Error())
	}
	for _, line := range app.IP.ConsoleOut {
		fmt.Println("  console:", line)
	}
	if *metrics {
		// fold the interpreter's env/IC fast-path counters into the registry
		// before rendering
		app.IP.FlushEnvTelemetry()
		fmt.Print(opts.Metrics.Render())
	}
	if *traceOut != "" {
		var data []byte
		if strings.HasSuffix(*traceOut, ".chrome.json") {
			data, err = app.Tracer.ExportChromeTrace()
		} else {
			data, err = app.Tracer.ExportJSON()
		}
		if err != nil {
			return err
		}
		if err := os.WriteFile(*traceOut, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (%d event(s), %d dropped)\n",
			*traceOut, app.Tracer.Len(), app.Tracer.Dropped())
	}
	return nil
}

func cmdCorpus(args []string) error {
	apps := corpus.All()
	if len(args) == 0 {
		fmt.Printf("%-20s %-18s %7s %9s %9s %9s\n",
			"name", "category", "manual", "turnstile", "baseline", "runnable")
		for _, a := range apps {
			fmt.Printf("%-20s %-18s %7d %9d %9d %9v\n",
				a.Name, a.Category, a.GroundTruth, a.ExpectTurnstile, a.ExpectBaseline, a.Runnable)
		}
		return nil
	}
	app := corpus.ByName(apps, args[0])
	if app == nil {
		return fmt.Errorf("unknown corpus app %q", args[0])
	}
	fmt.Printf("// %s — category %s, %d ground-truth path(s)\n", app.Name, app.Category, app.GroundTruth)
	if app.Runnable {
		fmt.Printf("// runnable: source %s, profile %s (off-path %d, on-path %d)\n",
			app.SourceName, app.Profile, app.OffPathWeight, app.OnPathWeight)
		fmt.Printf("// policy: %s\n", strings.Join(strings.Fields(app.PolicyJSON), " "))
	}
	fmt.Println(app.Source)
	return nil
}

func cmdAttack(args []string) error {
	apps := corpus.AttackApps()
	if len(args) == 1 && args[0] == "-run" {
		res, err := harness.RunAttackCorpus(harness.AttackOptions{Parallel: harness.DefaultParallelism()})
		if err != nil {
			return err
		}
		fmt.Print(harness.RenderAttack(res))
		if res.FN > 0 || res.Passed != len(res.Apps) {
			return fmt.Errorf("attack corpus: %d missed flow(s), %d app(s) failed", res.FN, len(res.Apps)-res.Passed)
		}
		return nil
	}
	if len(args) == 0 {
		fmt.Printf("%-22s %-38s %10s %10s\n", "name", "vector", "must-catch", "must-allow")
		for _, a := range apps {
			fmt.Printf("%-22s %-38s %10d %10d\n", a.Name, a.Vector, len(a.MustCatch), len(a.MustAllow))
		}
		return nil
	}
	app := corpus.AttackByName(apps, args[0])
	if app == nil {
		return fmt.Errorf("unknown attack app %q", args[0])
	}
	fmt.Printf("// %s — %s\n", app.Name, app.Vector)
	fmt.Printf("// must catch: %s\n", strings.Join(app.MustCatch, ", "))
	if len(app.MustAllow) > 0 {
		fmt.Printf("// must allow: %s\n", strings.Join(app.MustAllow, ", "))
	}
	fmt.Printf("// policy: %s\n", strings.Join(strings.Fields(app.Policy), " "))
	fmt.Println(app.Source)
	return nil
}

func cmdCheckPolicy(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("check-policy takes exactly one policy file")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	ip := interp.New()
	pol, err := policy.ParseJSON(data, ip.CompileLabelFunc)
	if err != nil {
		return err
	}
	fmt.Printf("policy OK: %d labeller(s), %d rule(s), %d injection(s), mode %v\n",
		len(pol.Labellers), len(pol.Rules), len(pol.Injections), pol.Mode)
	fmt.Printf("labels: %v\n", pol.Graph.Labels())
	if pol.HasCNF() {
		fmt.Printf("cnf: %d exchange(s), %d declassifier(s), %d endorsement(s)\n",
			len(pol.Exchanges), len(pol.Declassifiers), len(pol.Endorsements))
	}
	return nil
}
