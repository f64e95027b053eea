package harness

import (
	"testing"

	"turnstile/internal/asttest"
	"turnstile/internal/core"
	"turnstile/internal/corpus"
	"turnstile/internal/instrument"
	"turnstile/internal/parser"
	"turnstile/internal/printer"
	"turnstile/internal/resolve"
	"turnstile/internal/vm"
	"turnstile/internal/workload"
)

// TestRealTimeStreamIntegration runs a prepared application under genuine
// wall-clock pacing (the paper's methodology) at a rate where pacing
// dominates, and confirms the elapsed time matches the schedule — the
// fidelity check for the virtual-time queue substitution.
func TestRealTimeStreamIntegration(t *testing.T) {
	app := corpus.ByName(corpus.All(), "sensor-logger")
	prep, err := PrepareApp(app)
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	const hz = 500.0
	elapsed, err := workload.RealTimeStream(n, hz, prep.Selective.Process)
	if err != nil {
		t.Fatal(err)
	}
	floor := workload.CompletionTime(make(workload.Service, n), hz)
	if elapsed < floor {
		t.Fatalf("elapsed %v below pacing floor %v", elapsed, floor)
	}
	if elapsed > 5*floor {
		t.Fatalf("elapsed %v way over pacing floor %v", elapsed, floor)
	}
	// the app processed every message
	if writes := prep.Selective.IP.IO.WritesTo("fs"); len(writes) < n {
		t.Fatalf("writes = %d", len(writes))
	}
}

// TestInstrumentedCorpusRoundTrips is the node-for-node gate on the
// deploy path, which runs the instrumentor's own tree instead of parsing
// the printed source again. For every runnable corpus app in both modes,
// and for every file of one generated app per stratum (exhaustive,
// implicit flows), the tree core.Manage deploys must equal
// resolve(parser.Parse(printed)) in node kinds, fields, positions and
// resolver annotations, compile to the same bytecode chunk by chunk, and
// carry unique node IDs below MaxID; printing the parsed tree must give
// the same text back.
func TestInstrumentedCorpusRoundTrips(t *testing.T) {
	for _, app := range corpus.All() {
		if _, err := parser.Parse(app.Name+".js", app.Source); err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
	}
	check := func(label string, sources map[string]string, policyJSON string, opts core.Options) {
		t.Helper()
		managed, err := core.Manage(sources, policyJSON, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for name, src := range managed.Instrumented {
			deployed := managed.Results[name].Program
			want, err := parser.Parse(name, src)
			if err != nil {
				t.Fatalf("%s %s: printed source does not parse: %v", label, name, err)
			}
			resolve.Resolve(want)
			if d := asttest.Diff(deployed, want); d != "" {
				t.Fatalf("%s %s: deployed tree differs from the parsed print: %s", label, name, d)
			}
			if d := asttest.DiffModules(deployed, vm.Compile(deployed), want, vm.Compile(want)); d != "" {
				t.Fatalf("%s %s: bytecode differs: %s", label, name, d)
			}
			if err := asttest.CheckIDs(deployed); err != nil {
				t.Fatalf("%s %s: %v", label, name, err)
			}
			if printer.Print(want) != src {
				t.Fatalf("%s %s: print not idempotent on the instrumented tree", label, name)
			}
		}
	}
	for _, app := range corpus.Runnable(corpus.All()) {
		for _, mode := range []instrument.Mode{instrument.Selective, instrument.Exhaustive} {
			opts := core.DefaultOptions()
			opts.Mode = mode
			check(app.Name+"/"+mode.String(), map[string]string{app.Name + ".js": app.Source}, app.PolicyJSON, opts)
		}
	}
	for _, stratum := range corpus.GenStratumNames() {
		ga, err := corpus.Generate(stratum, 1, 6)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.Mode = instrument.Exhaustive
		opts.ImplicitFlows = true
		opts.Enforce = false
		check(ga.Name, ga.Files, ga.Policy, opts)
	}
}

// TestSinkTraceEquivalence verifies the non-invasiveness property across
// the whole runnable corpus: for every app, the original and both managed
// versions produce identical sink traces on the same workload.
func TestSinkTraceEquivalence(t *testing.T) {
	for _, app := range corpus.Runnable(corpus.All()) {
		prep, err := PrepareApp(app)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		const n = 6
		for i := 0; i < n; i++ {
			for _, r := range []*Runner{prep.Original, prep.Selective, prep.Exhaustive} {
				if err := r.Process(i); err != nil {
					t.Fatalf("%s %s msg %d: %v", app.Name, r.Mode, i, err)
				}
			}
		}
		orig := prep.Original.IP.IO.Writes
		for _, r := range []*Runner{prep.Selective, prep.Exhaustive} {
			got := r.IP.IO.Writes
			if len(got) != len(orig) {
				t.Fatalf("%s %s: %d writes vs %d", app.Name, r.Mode, len(got), len(orig))
			}
			for i := range orig {
				if got[i].Value != orig[i].Value || got[i].Target != orig[i].Target {
					t.Fatalf("%s %s write %d: %v vs %v", app.Name, r.Mode, i, got[i], orig[i])
				}
			}
		}
	}
}
