package lexer_test

import (
	"reflect"
	"sort"
	"testing"

	"turnstile/internal/corpus"
	"turnstile/internal/instrument"
	"turnstile/internal/lexer"
	"turnstile/internal/parser"
	"turnstile/internal/printer"
	"turnstile/internal/taint"
)

// oracleSources returns every corpus source, every file of one generated
// app per stratum, and the printed selective and exhaustive
// instrumentation of each, keyed by a descriptive name.
func oracleSources(t *testing.T) map[string]string {
	t.Helper()
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
		for _, mode := range []instrument.Mode{instrument.Selective, instrument.Exhaustive} {
			res, err := instrument.Instrument(prog, instrument.Options{
				Mode:          mode,
				Selection:     instrument.Selection(analysis.SelectionFor(name)),
				ImplicitFlows: true,
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			srcs[name+"."+mode.String()] = printer.Print(res.Program)
		}
	}
	return srcs
}

// TestTokenizeMatchesLinearScan holds the first-byte punctuator buckets
// to the linear scan they replaced: identical token streams (kind, text,
// line, column, newline flag) over the corpus, the strata and their
// instrumented prints.
func TestTokenizeMatchesLinearScan(t *testing.T) {
	for name, src := range oracleSources(t) {
		got, gerr := lexer.Tokenize(src)
		want, werr := lexer.TokenizeLinear(src)
		if gerr != nil || werr != nil {
			t.Fatalf("%s: bucketed err %v, linear err %v", name, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("%s: token streams diverge at token %d (bucketed %d tokens, linear %d)", name, i, len(got), len(want))
		}
	}
}
