package harness

import (
	"fmt"
	"strings"

	"turnstile/internal/core"
	"turnstile/internal/corpus"
	"turnstile/internal/interp"
)

// The generated-corpus harness scores the seeded stratified generator
// (corpus/strata.go) with the shared ground-truth scorer (score.go): every
// generated app's event sources are pumped with the app's deterministic
// payload schedule. The report groups scores by stratum so a regression in
// one flow family is visible as that family's row, and is byte-identical
// at any worker count and on either engine; TestReportGates holds it to
// zero missed flows.

// GenOptions configures a generated-corpus run.
type GenOptions struct {
	// N is the number of generated apps; 0 selects a default population
	// of ten apps per stratum.
	N int
	// Seed is the corpus seed: (N, Seed) fully determine the population.
	Seed uint64
	// Parallel is the worker count; 0 selects GOMAXPROCS, 1 runs
	// sequentially. The report is byte-identical either way.
	Parallel int
	// Engine deploys each app on the VM (default) or the tree-walker.
	Engine interp.Engine
}

// GenAppResult is one generated app's score.
type GenAppResult struct {
	App     string
	Stratum string
	Score
}

// GenStratumRow aggregates one stratum's scores.
type GenStratumRow struct {
	Stratum string
	Class   string
	Apps    int
	Tally
}

// GenResult aggregates a generated-corpus run.
type GenResult struct {
	N    int
	Seed uint64
	Apps []GenAppResult
	Rows []GenStratumRow
	Tally
}

// RunGenCorpus generates the (N, Seed) population and scores every app.
func RunGenCorpus(opts GenOptions) (*GenResult, error) {
	if opts.N <= 0 {
		opts.N = 10 * len(corpus.GenStrata())
	}
	apps, err := corpus.GenCorpus(opts.N, opts.Seed)
	if err != nil {
		return nil, err
	}
	results, err := mapIndexed(len(apps), opts.Parallel, func(i int) (GenAppResult, error) {
		return genOne(apps[i], opts), nil
	})
	if err != nil {
		return nil, err
	}
	res := &GenResult{N: opts.N, Seed: opts.Seed, Apps: results}
	rows := make(map[string]*GenStratumRow)
	for _, s := range corpus.GenStrata() {
		rows[s.Name] = &GenStratumRow{Stratum: s.Name, Class: s.Class}
	}
	for _, r := range results {
		row := rows[r.Stratum]
		row.Apps++
		row.add(r.Score)
		res.add(r.Score)
	}
	for _, s := range corpus.GenStrata() {
		if row := rows[s.Name]; row.Apps > 0 {
			res.Rows = append(res.Rows, *row)
		}
	}
	return res, nil
}

// genOne runs one generated app under the scoring configuration and
// matches its violations against the ground truth.
func genOne(ga *corpus.GenApp, opts GenOptions) GenAppResult {
	res := GenAppResult{App: ga.Name, Stratum: ga.Stratum}
	if err := ga.CheckConsistency(); err != nil {
		res.Expected = len(ga.MustCatch)
		res.Err = firstLine(err.Error())
		return res
	}
	res.Score = scoreApp(truthApp{
		files:     ga.Files,
		policy:    ga.Policy,
		mustCatch: ga.MustCatch,
		mustAllow: ga.MustAllow,
		pump: func(app *core.ManagedApp) error {
			for i := 0; i < ga.Messages && len(ga.Sources) > 0; i++ {
				if err := app.Emit(ga.Sources[i%len(ga.Sources)], ga.Event, ga.Payload(i)); err != nil {
					return err
				}
			}
			return nil
		},
	}, opts.Engine)
	return res
}

// RenderGen formats the stratified precision/recall report. No durations
// or other host-dependent values: one build renders it byte-identically
// at any -parallel level, so the determinism gates compare it directly.
func RenderGen(res *GenResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Generated corpus: %d apps, seed %d (exhaustive instrumentation, implicit flows, audit mode)\n",
		res.N, res.Seed)
	fmt.Fprintf(&b, "%-16s %-44s %5s %7s %7s %7s %6s\n",
		"stratum", "flow class", "apps", "passed", "caught", "missed", "false+")
	for _, row := range res.Rows {
		fmt.Fprintf(&b, "%-16s %-44s %5d %7d %7d %7d %6d\n",
			row.Stratum, row.Class, row.Apps, row.Passed, row.TP, row.FN, row.FP)
	}
	renderTotals(&b, &res.Tally, len(res.Apps), func(i int) (string, Score) { return res.Apps[i].App, res.Apps[i].Score })
	return b.String()
}
