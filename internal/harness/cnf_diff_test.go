package harness

import (
	"fmt"
	"strings"
	"testing"

	"turnstile/internal/corpus"
)

// The corpus-wide flat-vs-CNF differential: every runnable app runs twice,
// once under the flat placeholder policy and once under a mirrored-clause
// policy where each label l becomes the OR-clause "l|lM" over a rule graph
// extended with an isomorphic mirrored copy. By the mirror-equivalence
// property (see policy.TestPropMirrorEquivalence) every flow decision is
// identical, so sink traces, per-message errors, violations and tracker
// stats must agree exactly — proving the clause path of FlowAllowed does
// not perturb the flat fast path's observable behaviour. The whole
// comparison runs at -parallel 1 and -parallel 8 and must be
// digest-identical across worker counts.

// mirrorPolicy is placeholderPolicy with every label mirrored into a
// two-atom clause and the rule DAG doubled isomorphically.
const mirrorPolicy = `{
  "labellers": {
    "Msg": "v => v.indexOf(\"E\") >= 0 ? \"Alpha|AlphaM\" : \"Beta|BetaM\""
  },
  "rules": [ "Alpha -> Beta", "AlphaM -> BetaM", "Beta -> Gamma", "BetaM -> GammaM" ],
  "injections": [ { "object": "frame", "labeller": "Msg" } ]
}`

const cnfDiffMessages = 12

// cnfDigest is one app+policy observable record, stripped of label text
// (the two policies name different labels by construction).
func cnfDigest(app *corpus.App, policyJSON string) (string, error) {
	clone := *app
	clone.PolicyJSON = policyJSON
	prep, err := PrepareAppCached(&clone, nil)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, r := range []*Runner{prep.Selective, prep.Exhaustive} {
		fmt.Fprintf(&b, "== %s\n", r.Mode)
		for i := 0; i < cnfDiffMessages; i++ {
			if err := r.Process(i); err != nil {
				fmt.Fprintf(&b, "msg %d: %v\n", i, err)
			}
		}
		for _, w := range r.IP.IO.Writes {
			fmt.Fprintf(&b, "%s.%s %s %v\n", w.Module, w.Op, w.Target, w.Value)
		}
		for _, v := range r.IP.Tracker.Violations() {
			fmt.Fprintf(&b, "violation %s %s %s\n", v.Site, v.Op, v.Reason)
		}
		fmt.Fprintf(&b, "stats %+v\n", r.IP.Tracker.Stats())
	}
	return b.String(), nil
}

func runCNFDiff(t *testing.T, parallel int) []string {
	t.Helper()
	apps := corpus.Runnable(corpus.All())
	if len(apps) == 0 {
		t.Fatal("no runnable corpus apps")
	}
	type pair struct {
		app       string
		flat, cnf string
	}
	pairs, err := mapIndexed(len(apps), parallel, func(i int) (pair, error) {
		flat, err := cnfDigest(apps[i], apps[i].PolicyJSON)
		if err != nil {
			return pair{}, fmt.Errorf("%s flat: %w", apps[i].Name, err)
		}
		cnf, err := cnfDigest(apps[i], mirrorPolicy)
		if err != nil {
			return pair{}, fmt.Errorf("%s mirrored: %w", apps[i].Name, err)
		}
		return pair{app: apps[i].Name, flat: flat, cnf: cnf}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	digests := make([]string, len(pairs))
	for i, p := range pairs {
		if p.flat != p.cnf {
			t.Errorf("%s: flat and mirrored-CNF runs diverge:\n-- flat --\n%s\n-- mirrored --\n%s",
				p.app, firstDiffContext(p.flat, p.cnf), firstDiffContext(p.cnf, p.flat))
		}
		digests[i] = p.app + "\n" + p.flat
	}
	return digests
}

// firstDiffContext trims a digest to the first line that differs, for
// readable failure output.
func firstDiffContext(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range la {
		if i >= len(lb) || la[i] != lb[i] {
			lo := i - 2
			if lo < 0 {
				lo = 0
			}
			hi := i + 3
			if hi > len(la) {
				hi = len(la)
			}
			return fmt.Sprintf("(line %d)\n%s", i+1, strings.Join(la[lo:hi], "\n"))
		}
	}
	return "(prefix equal, lengths differ)"
}

func TestCNFDifferentialCorpusWide(t *testing.T) {
	seq := runCNFDiff(t, 1)
	par := runCNFDiff(t, 8)
	if len(seq) != len(par) {
		t.Fatalf("digest counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("digest %d differs between -parallel 1 and -parallel 8", i)
		}
	}
}

// TestCNFFailClosedAgreement runs the fail-closed crash apps whose denial
// comes from the ⊤ truncation over-approximation under a mirrored-clause
// crash policy: the fail-closed outcome kind must not change when labels
// are clauses.
func TestCNFFailClosedAgreement(t *testing.T) {
	const mirrorCrashPolicy = `{
  "labellers": { "Msg": "v => \"Alpha|AlphaM\"" },
  "rules": [ "Alpha -> Beta", "AlphaM -> BetaM" ]
}`
	for _, name := range []string{"deep-data", "cyclic-labeled"} {
		flat, err := crashOne(CrashApp{Name: name, Want: "violation"}, CrashOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cnf, err := crashOne(CrashApp{Name: name, Want: "violation", Policy: mirrorCrashPolicy}, CrashOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if flat.Kind != cnf.Kind {
			t.Errorf("%s: fail-closed outcome differs: flat %q vs mirrored %q (%s / %s)",
				name, flat.Kind, cnf.Kind, flat.Detail, cnf.Detail)
		}
		if cnf.Kind != "violation" {
			t.Errorf("%s: mirrored crash app classified %q, want violation (%s)", name, cnf.Kind, cnf.Detail)
		}
	}
}
