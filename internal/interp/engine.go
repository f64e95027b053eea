package interp

import "fmt"

// Engine selects how an interpreter executes resolved programs. The zero
// value is the bytecode VM, the production engine; the tree-walker is kept
// as the differential oracle every VM gate compares against. It is the one
// engine switch: core.Options, the harness option structs and both CLIs'
// -engine flag all carry an Engine.
type Engine uint8

const (
	// EngineVM compiles each program to bytecode (internal/vm) and runs it
	// on the dispatch loop of exec_vm.go.
	EngineVM Engine = iota
	// EngineWalker evaluates the AST directly on slot environments.
	EngineWalker
)

// Engines lists every engine, the production engine first.
var Engines = []Engine{EngineVM, EngineWalker}

var engineNames = [...]string{EngineVM: "vm", EngineWalker: "walker"}

func (e Engine) String() string {
	if int(e) < len(engineNames) {
		return engineNames[e]
	}
	return fmt.Sprintf("Engine(%d)", uint8(e))
}

// ParseEngine maps an engine name ("vm" or "walker") to its Engine.
func ParseEngine(name string) (Engine, error) {
	for e, n := range engineNames {
		if n == name {
			return Engine(e), nil
		}
	}
	return 0, fmt.Errorf("unknown engine %q (want vm or walker)", name)
}

// MarshalText and UnmarshalText make an Engine usable with flag.TextVar.
func (e Engine) MarshalText() ([]byte, error) { return []byte(e.String()), nil }

func (e *Engine) UnmarshalText(text []byte) error {
	v, err := ParseEngine(string(text))
	if err != nil {
		return err
	}
	*e = v
	return nil
}
