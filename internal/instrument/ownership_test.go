package instrument

import (
	"sort"
	"testing"

	"turnstile/internal/corpus"
	"turnstile/internal/parser"
	"turnstile/internal/taint"
)

// TestInstrumentOwnsItsOutput is the ownership gate the deploy path rests
// on: the output is stamped and resolved in place while a pipeline cache
// may hand the input to other goroutines, so no node of the output may be
// reachable from the input. It covers every corpus app in both modes and
// every file of one generated app per stratum, with implicit flows.
func TestInstrumentOwnsItsOutput(t *testing.T) {
	srcs := make(map[string]string)
	for _, app := range corpus.All() {
		srcs[app.Name+".js"] = app.Source
	}
	for _, stratum := range corpus.GenStratumNames() {
		ga, err := corpus.Generate(stratum, 1, 6)
		if err != nil {
			t.Fatal(err)
		}
		for name, src := range ga.Files {
			srcs[stratum+"/"+name] = src
		}
	}
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		prog, err := parser.Parse(name, srcs[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		topts := taint.DefaultOptions()
		topts.ImplicitFlows = true
		analysis := taint.Analyze([]taint.File{{Name: name, Prog: prog}}, topts)
		for _, mode := range []Mode{Selective, Exhaustive} {
			res, err := Instrument(prog, Options{
				Mode:          mode,
				Selection:     Selection(analysis.SelectionFor(name)),
				ImplicitFlows: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if n := sharedNodes(prog, res.Program); n > 0 {
				t.Fatalf("%s %v: %d output nodes are reachable from the input", name, mode, n)
			}
		}
	}
}
