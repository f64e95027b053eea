// Package turnstile is the public API of the Turnstile reproduction — a
// hybrid information-flow-control (IFC) framework for managing privacy in
// IoT applications (EuroSys '26).
//
// Turnstile combines a fast static taint analysis that identifies
// privacy-sensitive code paths with a self-contained dynamic information
// flow tracker (DIFT) that is fused into the application through selective
// code instrumentation. The managed application runs on the same runtime
// platform as the original and enforces a developer-written IFC policy:
// value-dependent privacy labels, a rule DAG over labels, and injection
// points mapping source-code objects to label functions.
//
// Quick start:
//
//	app, err := turnstile.Manage(map[string]string{"main.js": src}, policyJSON, turnstile.DefaultOptions())
//	...
//	err = app.Emit("net.socket:cam:554", "data", frame) // returns a violation error for forbidden flows
//
// The subject language is MiniJS, an ES6-subset JavaScript dialect
// executed by the bundled interpreter (the stand-in for Node.js); the
// analyzers, instrumentor, tracker, Node-RED-style flow runtime, the
// 61-app evaluation corpus and the experiment harness live in the internal
// packages and are re-exported here where part of the supported surface.
package turnstile

import (
	"turnstile/internal/core"
	"turnstile/internal/dift"
	"turnstile/internal/instrument"
	"turnstile/internal/interp"
	"turnstile/internal/policy"
	"turnstile/internal/taint"
)

// Options configures the management pipeline.
type Options = core.Options

// ManagedApp is a deployed privacy-managed application.
type ManagedApp = core.ManagedApp

// AnalysisResult is the Dataflow Analyzer's output.
type AnalysisResult = taint.Result

// Path is one privacy-sensitive dataflow from an I/O source to a sink.
type Path = taint.Path

// Policy is a parsed IFC policy (labellers, rule DAG, injections).
type Policy = policy.Policy

// Violation is one forbidden flow detected at run time.
type Violation = dift.Violation

// Label is a privacy label; LabelSet is a compound label.
type (
	Label    = policy.Label
	LabelSet = policy.LabelSet
)

// Instrumentation modes.
const (
	Selective  = instrument.Selective
	Exhaustive = instrument.Exhaustive
)

// Engine selects Options.Engine: the bytecode VM (the default) or the
// tree-walker, the VM's differential oracle.
type Engine = interp.Engine

// Execution engines.
const (
	EngineVM     = interp.EngineVM
	EngineWalker = interp.EngineWalker
)

// DefaultOptions returns the paper's configuration: selective
// instrumentation, enforcement on, type-sensitive analysis.
func DefaultOptions() Options { return core.DefaultOptions() }

// Manage analyzes, instruments and deploys an application with its IFC
// policy — the full workflow of Fig. 3.
func Manage(sources map[string]string, policyJSON string, opts Options) (*ManagedApp, error) {
	return core.Manage(sources, policyJSON, opts)
}

// Analyze runs only the static Dataflow Analyzer.
func Analyze(sources map[string]string) (*AnalysisResult, error) {
	return core.Analyze(sources, taint.DefaultOptions())
}
