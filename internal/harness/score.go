package harness

import (
	"fmt"
	"strings"

	"turnstile/internal/core"
	"turnstile/internal/instrument"
	"turnstile/internal/interp"
)

// The ground-truth scorer shared by the attack corpus (attack.go) and the
// generated corpus (gen.go). An app runs under exhaustive instrumentation,
// implicit flows and the tracker in audit mode — the strongest monitoring
// configuration — its event sources are pumped, and the recorded
// violations are matched against its ground truth. A must-catch site
// prefix with no matching violation is a missed flow (a real leak the
// tracker let through); a must-allow prefix with a matching violation is a
// false positive (a sanctioned flow the tracker flagged).

// truthApp is the app shape the scorer takes.
type truthApp struct {
	files                map[string]string
	policy               string
	mustCatch, mustAllow []string
	// pump feeds the deployed app its events; nil when it has none.
	pump func(*core.ManagedApp) error
}

// Score is one app's verdict against its ground truth.
type Score struct {
	Expected int      // ground-truth must-catch flows
	Caught   int      // must-catch flows with a matching violation
	Missed   []string // must-catch prefixes with no matching violation
	Leaked   []string // must-allow prefixes that matched a violation
	Err      string   // non-empty when the app failed to deploy or run
	OK       bool
}

// scoreApp deploys a on engine under the scoring configuration, pumps it,
// and matches its violations against the ground truth.
func scoreApp(a truthApp, engine interp.Engine) Score {
	s := Score{Expected: len(a.mustCatch)}
	copts := core.DefaultOptions()
	copts.Mode = instrument.Exhaustive
	copts.ImplicitFlows = true
	copts.Enforce = false // audit: the whole app executes, every violation is recorded
	copts.Engine = engine
	app, err := core.Manage(a.files, a.policy, copts)
	if err == nil && a.pump != nil {
		err = a.pump(app)
	}
	if err != nil {
		s.Err = firstLine(err.Error())
		return s
	}
	violations := app.Violations()
	match := func(prefix string) bool {
		for _, v := range violations {
			if strings.HasPrefix(v.Site, prefix) {
				return true
			}
		}
		return false
	}
	for _, p := range a.mustCatch {
		if match(p) {
			s.Caught++
		} else {
			s.Missed = append(s.Missed, p)
		}
	}
	for _, p := range a.mustAllow {
		if match(p) {
			s.Leaked = append(s.Leaked, p)
		}
	}
	s.OK = len(s.Missed) == 0 && len(s.Leaked) == 0
	return s
}

// Tally sums scores: the apps that passed, and TP/FN/FP over ground-truth
// entries (TP = caught must-catch flows, FN = missed must-catch flows,
// FP = flagged must-allow flows).
type Tally struct {
	Passed     int
	TP, FN, FP int
}

func (t *Tally) add(s Score) {
	if s.OK {
		t.Passed++
	}
	t.TP += s.Caught
	t.FN += len(s.Missed)
	t.FP += len(s.Leaked)
}

// Precision is TP/(TP+FP); 1 when nothing was flagged wrongly.
func (t *Tally) Precision() float64 {
	if t.TP+t.FP == 0 {
		return 1
	}
	return float64(t.TP) / float64(t.TP+t.FP)
}

// Recall is TP/(TP+FN); 1 when no must-catch flow escaped.
func (t *Tally) Recall() float64 {
	if t.TP+t.FN == 0 {
		return 1
	}
	return float64(t.TP) / float64(t.TP+t.FN)
}

// renderTotals writes a scored report's footer: the corpus-wide totals,
// then every app's error, missed flows and false positives. app returns
// the name and score of app i of n.
func renderTotals(b *strings.Builder, t *Tally, n int, app func(i int) (string, Score)) {
	fmt.Fprintf(b, "must-catch flows: %d caught, %d missed; false positives: %d\n", t.TP, t.FN, t.FP)
	fmt.Fprintf(b, "precision %.3f  recall %.3f\n", t.Precision(), t.Recall())
	for i := 0; i < n; i++ {
		name, s := app(i)
		if s.Err != "" {
			fmt.Fprintf(b, "\n%s: error: %s\n", name, s.Err)
		}
		for _, m := range s.Missed {
			fmt.Fprintf(b, "\n%s: MISSED must-catch flow %s\n", name, m)
		}
		for _, l := range s.Leaked {
			fmt.Fprintf(b, "\n%s: false positive on sanctioned flow %s\n", name, l)
		}
	}
}
