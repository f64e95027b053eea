package harness

import (
	"fmt"
	"testing"

	"turnstile/internal/corpus"
	"turnstile/internal/interp"
)

// The report gates. Every report the benchmark CLI renders is a pure
// function of its inputs: byte-identical on either engine and at any
// worker count. One table states that for all of them; each cell is one
// (engine, worker count) run compared against the VM's sequential run,
// which must also pass the report's own exit gate.

// gateParallel are the worker counts every report is rendered at.
var gateParallel = []int{1, 8}

// gateApps is the corpus slice of the chaos and breakdown gates.
func gateApps(t *testing.T) []*corpus.App {
	t.Helper()
	runnable := corpus.Runnable(corpus.All())
	var apps []*corpus.App
	for _, name := range []string{"modbus", "sensor-logger", "thermostat-hub"} {
		app := corpus.ByName(runnable, name)
		if app == nil {
			t.Fatalf("no runnable app %q", name)
		}
		apps = append(apps, app)
	}
	return apps
}

// exitGate is the CLI's verdict on a scored report: no must-catch flow
// missed and no app failed.
func exitGate(missed, failed int) error {
	if missed > 0 || failed > 0 {
		return fmt.Errorf("%d must-catch flow(s) missed, %d app(s) failed", missed, failed)
	}
	return nil
}

// reportGates renders each report on one engine with parallel workers,
// returning the report with its exit-gate error.
var reportGates = []struct {
	name   string
	render func(t *testing.T, engine interp.Engine, parallel int) (string, error)
}{
	{"chaos", func(t *testing.T, engine interp.Engine, parallel int) (string, error) {
		res, err := RunChaos(gateApps(t), ChaosOptions{Seed: 7, Messages: 20, Parallel: parallel, Cache: NewCache(), Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		return RenderChaos(res), exitGate(0, len(res.Apps)-res.Equivalent)
	}},
	{"breakdown", func(t *testing.T, engine interp.Engine, parallel int) (string, error) {
		res, err := RunBreakdown(gateApps(t), BreakdownOptions{Messages: 20, Parallel: parallel, Cache: NewCache(), Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		return RenderBreakdown(res), nil
	}},
	{"crash", func(t *testing.T, engine interp.Engine, parallel int) (string, error) {
		res, err := RunCrashCorpus(CrashOptions{Parallel: parallel, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		return RenderCrash(res), exitGate(0, len(res.Apps)-res.Passed)
	}},
	{"attack", func(t *testing.T, engine interp.Engine, parallel int) (string, error) {
		res, err := RunAttackCorpus(AttackOptions{Parallel: parallel, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		return RenderAttack(res), exitGate(res.FN, len(res.Apps)-res.Passed)
	}},
	{"gen", func(t *testing.T, engine interp.Engine, parallel int) (string, error) {
		res, err := RunGenCorpus(GenOptions{N: 56, Seed: 3, Parallel: parallel, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		return RenderGen(res), exitGate(res.FN, len(res.Apps)-res.Passed)
	}},
}

func TestReportGates(t *testing.T) {
	for _, g := range reportGates {
		t.Run(g.name, func(t *testing.T) {
			var ref string
			for _, engine := range interp.Engines {
				for _, parallel := range gateParallel {
					got, err := g.render(t, engine, parallel)
					if err != nil {
						t.Fatalf("%v, parallel %d: %v\n%s", engine, parallel, err, got)
					}
					if ref == "" {
						ref = got
					} else if got != ref {
						t.Errorf("%v, parallel %d: report differs from vm, parallel 1:\n%s",
							engine, parallel, firstDiffContext(ref, got))
					}
				}
			}
		})
	}
}
