package core

import (
	"errors"
	"strings"
	"testing"

	"turnstile/internal/guard"
	"turnstile/internal/instrument"
	"turnstile/internal/parser"
)

// TestManageDeepNestingPastParseLimit pins a deliberate change. A program
// the parser accepts can print, once instrumented, deeper than the
// parser's 10,000-level nesting limit: exhaustive mode wraps each of these
// 6,000 nested calls in __t.call(f, [...], site), two parser levels per
// call. Deployment used to parse that text again and failed there; it now
// runs the instrumentor's own tree, so the program deploys and runs. The
// printed artifact is unchanged, and parsing it still meets the limit as
// a typed error.
func TestManageDeepNestingPastParseLimit(t *testing.T) {
	const n = 6000
	src := "function f(x) { return x; }\nconsole.log(" + strings.Repeat("f(", n) + "7" + strings.Repeat(")", n) + ");\n"
	opts := DefaultOptions()
	opts.Mode = instrument.Exhaustive
	app, err := Manage(map[string]string{"deep.js": src}, `{"rules":[]}`, opts)
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	if out := app.IP.ConsoleOut; len(out) != 1 || out[0] != "7" {
		t.Fatalf("console = %q, want [7]", out)
	}
	_, err = parser.Parse("deep.js", app.Instrumented["deep.js"])
	var pe *guard.PipelineError
	if !errors.As(err, &pe) || pe.Stage != "parse" {
		t.Fatalf("parsing the instrumented text: %v, want the parser's nesting limit", err)
	}
}
