package harness

import (
	"fmt"
	"strings"

	"turnstile/internal/corpus"
	"turnstile/internal/interp"
)

// The attack harness scores the adversarial corpus (corpus/attack.go)
// with the shared ground-truth scorer (score.go). The rendered table is
// deterministic and byte-identical at any worker count and on either
// engine; TestReportGates holds it to zero missed flows.

// AttackOptions configures an attack-corpus run.
type AttackOptions struct {
	// Parallel is the worker count; 0 selects GOMAXPROCS, 1 runs
	// sequentially. The report is byte-identical either way.
	Parallel int
	// Engine deploys each app on the VM (default) or the tree-walker.
	Engine interp.Engine
}

// AttackAppResult is one app's score.
type AttackAppResult struct {
	App    string
	Vector string
	Score
}

// AttackResult aggregates a run with corpus-wide precision/recall.
type AttackResult struct {
	Apps []AttackAppResult
	Tally
}

// RunAttackCorpus runs every attack app and scores it.
func RunAttackCorpus(opts AttackOptions) (*AttackResult, error) {
	apps := corpus.AttackApps()
	results, err := mapIndexed(len(apps), opts.Parallel, func(i int) (AttackAppResult, error) {
		return attackOne(apps[i], opts), nil
	})
	if err != nil {
		return nil, err
	}
	res := &AttackResult{Apps: results}
	for _, r := range results {
		res.add(r.Score)
	}
	return res, nil
}

func attackOne(aa *corpus.AttackApp, opts AttackOptions) AttackAppResult {
	return AttackAppResult{App: aa.Name, Vector: aa.Vector, Score: scoreApp(truthApp{
		files:     map[string]string{aa.Name + ".js": aa.Source},
		policy:    aa.Policy,
		mustCatch: aa.MustCatch,
		mustAllow: aa.MustAllow,
	}, opts.Engine)}
}

// RenderAttack formats the precision/recall report. No durations or other
// host-dependent values: one build renders it byte-identically at any
// -parallel level, so the determinism gates compare it directly.
func RenderAttack(res *AttackResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Attack corpus: %d adversarial apps (exhaustive instrumentation, implicit flows, audit mode)\n", len(res.Apps))
	fmt.Fprintf(&b, "%-22s %-36s %9s %7s %7s %6s %s\n",
		"application", "vector", "expected", "caught", "missed", "false+", "verdict")
	for _, a := range res.Apps {
		verdict := "OK"
		if !a.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "%-22s %-36s %9d %7d %7d %6d %s\n",
			a.App, a.Vector, a.Expected, a.Caught, len(a.Missed), len(a.Leaked), verdict)
	}
	renderTotals(&b, &res.Tally, len(res.Apps), func(i int) (string, Score) { return res.Apps[i].App, res.Apps[i].Score })
	return b.String()
}
