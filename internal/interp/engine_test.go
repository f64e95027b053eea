package interp

import (
	"flag"
	"io"
	"testing"
)

// TestEngineNames: every engine round-trips through its name and the
// -engine flag; the retired map walk and unknown names are refused.
func TestEngineNames(t *testing.T) {
	for _, e := range Engines {
		got, err := ParseEngine(e.String())
		if err != nil || got != e {
			t.Fatalf("ParseEngine(%q) = %v, %v", e, got, err)
		}
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		var v Engine
		fs.TextVar(&v, "engine", EngineVM, "")
		if err := fs.Parse([]string{"-engine", e.String()}); err != nil || v != e {
			t.Fatalf("-engine %s parsed to %v, %v", e, v, err)
		}
	}
	if Engine(0) != EngineVM {
		t.Fatal("the zero Engine must be the VM")
	}
	for _, bad := range []string{"map", "noresolve", "novm", ""} {
		if _, err := ParseEngine(bad); err == nil {
			t.Errorf("ParseEngine(%q) accepted", bad)
		}
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		var v Engine
		fs.TextVar(&v, "engine", EngineVM, "")
		if err := fs.Parse([]string{"-engine", bad}); err == nil {
			t.Errorf("-engine %q accepted", bad)
		}
	}
}
