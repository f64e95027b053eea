package harness

import (
	"fmt"
	"strings"
	"testing"

	"turnstile/internal/core"
	"turnstile/internal/corpus"
	"turnstile/internal/dift"
	"turnstile/internal/faults"
	"turnstile/internal/guard"
	"turnstile/internal/instrument"
	"turnstile/internal/interp"
)

// genValue renders a written value canonically: tracker boxes are
// unwrapped recursively and containers print structurally, so a digest
// never depends on boxing strategy, heap addresses or ref IDs (exhaustive
// instrumentation boxes property values that selective leaves raw).
func genValue(v any, depth int) string {
	if depth > 8 {
		return "…"
	}
	switch u := dift.Unwrap(v).(type) {
	case *interp.Object:
		var b strings.Builder
		b.WriteString("{")
		for i, k := range u.Keys() {
			if i > 0 {
				b.WriteString(", ")
			}
			val, _ := u.Get(k)
			fmt.Fprintf(&b, "%s: %s", k, genValue(val, depth+1))
		}
		b.WriteString("}")
		return b.String()
	case *interp.Array:
		parts := make([]string, len(u.Elems))
		for i, el := range u.Elems {
			parts[i] = genValue(el, depth+1)
		}
		return "[" + strings.Join(parts, ", ") + "]"
	default:
		return fmt.Sprintf("%v", u)
	}
}

// The metamorphic battery: every generated stratum, at many seeds, is run
// under pairs of configurations that must be observably equivalent —
// bytecode VM vs tree-walker, flat vs mirrored-CNF policies,
// selective vs exhaustive instrumentation transparency, chaos replay
// under a shared fault schedule, and fail-closed crash agreement. The
// generator gives these relations breadth the hand-written corpora cannot:
// every (stratum, seed) coordinate is a fresh application.

// metaSeeds is the per-stratum seed sweep; with all strata this comfortably
// exceeds the 5-strata × 10-seeds floor the battery promises.
const metaSeeds = 10

// metaApps enumerates the battery's population: every stratum at each of
// metaSeeds derived seeds, with sizes spread by the seed itself.
func metaApps(t *testing.T) []*corpus.GenApp {
	t.Helper()
	var apps []*corpus.GenApp
	for _, stratum := range corpus.GenStratumNames() {
		for s := 0; s < metaSeeds; s++ {
			seed := uint64(0xC0FFEE)*uint64(s+1) + 7
			app, err := corpus.Generate(stratum, seed, s)
			if err != nil {
				t.Fatal(err)
			}
			if err := app.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
			apps = append(apps, app)
		}
	}
	return apps
}

// genVariant is one deployment configuration of a generated app.
type genVariant struct {
	mode       instrument.Mode
	engine     interp.Engine
	policy     string // empty selects ga.Policy
	schedule   *faults.Schedule
	limits     *guard.Limits
	failClosed bool
	enforce    bool
}

// genRun deploys a generated app under one variant, pumps its schedule,
// and renders the observable record. labelFree strips label text from the
// violation lines (used by the flat≡mirror relation, where the two runs
// name different labels by construction). Deploy errors become part of the
// record — equivalence relations must agree on failures too.
func genRun(ga *corpus.GenApp, v genVariant, labelFree bool) string {
	copts := core.DefaultOptions()
	copts.Mode = v.mode
	copts.ImplicitFlows = true
	copts.Enforce = v.enforce
	copts.Engine = v.engine
	copts.Faults = v.schedule
	copts.Guard = v.limits
	copts.FailClosed = v.failClosed
	policy := v.policy
	if policy == "" {
		policy = ga.Policy
	}
	var b strings.Builder
	app, err := core.Manage(ga.Files, policy, copts)
	if err != nil {
		fmt.Fprintf(&b, "deploy error: %s\n", genScrub(firstLine(err.Error()), labelFree))
		return b.String()
	}
	for i := 0; i < ga.Messages && len(ga.Sources) > 0; i++ {
		if err := app.Emit(ga.Sources[i%len(ga.Sources)], ga.Event, ga.Payload(i)); err != nil {
			fmt.Fprintf(&b, "msg %d: %s\n", i, genScrub(firstLine(err.Error()), labelFree))
		}
	}
	for _, w := range app.Writes() {
		fmt.Fprintf(&b, "write: %s.%s %s %s\n", w.Module, w.Op, w.Target, genValue(w.Value, 0))
	}
	if app.IP.Faults != nil {
		b.WriteString("faults:\n")
		b.WriteString(app.IP.Faults.TraceString())
	}
	for _, viol := range app.Violations() {
		if labelFree {
			fmt.Fprintf(&b, "violation: %s %s\n", viol.Site, viol.Op)
		} else {
			fmt.Fprintf(&b, "violation: %v\n", viol.Error())
		}
	}
	if !labelFree {
		fmt.Fprintf(&b, "stats: %+v\n", app.Tracker.Stats())
	}
	return b.String()
}

// genScrub canonicalizes an error line for label-free digests: enforcement
// errors spell out label sets, which legitimately differ between a flat
// policy and its mirror.
func genScrub(line string, labelFree bool) string {
	if !labelFree {
		return line
	}
	if i := strings.Index(line, "PrivacyViolation"); i >= 0 {
		return line[:i] + "PrivacyViolation"
	}
	return line
}

// requireAgreement diffs two digests app-by-app.
func requireAgreement(t *testing.T, what string, apps []*corpus.GenApp, a, b func(*corpus.GenApp) string) {
	t.Helper()
	type pair struct{ left, right string }
	pairs, err := mapIndexed(len(apps), 0, func(i int) (pair, error) {
		return pair{a(apps[i]), b(apps[i])}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		if p.left != p.right {
			t.Errorf("%s: %s (stratum %s, seed %d) diverged:\n-- left --\n%s\n-- right --\n%s",
				what, apps[i].Name, apps[i].Stratum, apps[i].Seed,
				firstDiffContext(p.left, p.right), firstDiffContext(p.right, p.left))
		}
	}
}

// TestGenMetamorphicVMWalker: the bytecode VM and the tree-walker
// must be observably identical on every generated app, at every stratum
// and seed — writes, violations with full label text, and tracker
// statistics. This is the generator-breadth arm of the VM differential
// gates (the hand-written corpus arm lives in vm_diff_test.go).
func TestGenMetamorphicVMWalker(t *testing.T) {
	apps := metaApps(t)
	base := genVariant{mode: instrument.Exhaustive}
	requireAgreement(t, "vm≡walker", apps,
		func(ga *corpus.GenApp) string { return genRun(ga, base, false) },
		func(ga *corpus.GenApp) string {
			v := base
			v.engine = interp.EngineWalker
			return genRun(ga, v, false)
		})
}

// TestGenMetamorphicVMCrashAgreement: under a tight guard budget with the
// tracker fail-closed and enforcement on, the VM and the tree-walker must
// agree on the entire outcome — which budget error (if any) kills the
// app, at which site, and what was written before it died. This is the
// strongest parity claim the VM makes: identical step-charge ordering,
// not just identical results.
func TestGenMetamorphicVMCrashAgreement(t *testing.T) {
	apps := metaApps(t)
	lim := guard.Limits{Fuel: 60_000, MaxDepth: 64, MaxAlloc: 1 << 16}
	base := genVariant{mode: instrument.Exhaustive, limits: &lim, failClosed: true, enforce: true}
	requireAgreement(t, "crash vm≡walker", apps,
		func(ga *corpus.GenApp) string { return genRun(ga, base, false) },
		func(ga *corpus.GenApp) string {
			v := base
			v.engine = interp.EngineWalker
			return genRun(ga, v, false)
		})
}

// TestGenMetamorphicMirrorCNF: replacing the flat policy with its
// isomorphic mirrored-clause copy must not change any flow decision: same
// writes, same message errors, same violation sites and ops.
func TestGenMetamorphicMirrorCNF(t *testing.T) {
	apps := metaApps(t)
	base := genVariant{mode: instrument.Exhaustive}
	requireAgreement(t, "flat≡mirror", apps,
		func(ga *corpus.GenApp) string { return genRun(ga, base, true) },
		func(ga *corpus.GenApp) string {
			v := base
			v.policy = ga.MirrorPolicy
			return genRun(ga, v, true)
		})
}

// TestGenMetamorphicTransparency: instrumentation must not change what the
// application does — selective and exhaustive deployments must produce the
// same sink writes and message errors (violation records legitimately
// differ: selective instrumentation checks fewer sites by design, which is
// the paper's whole trade-off).
func TestGenMetamorphicTransparency(t *testing.T) {
	apps := metaApps(t)
	digest := func(ga *corpus.GenApp, mode instrument.Mode) string {
		full := genRun(ga, genVariant{mode: mode}, false)
		var b strings.Builder
		for _, line := range strings.Split(full, "\n") {
			if strings.HasPrefix(line, "violation:") || strings.HasPrefix(line, "stats:") {
				continue
			}
			b.WriteString(line)
			b.WriteByte('\n')
		}
		return b.String()
	}
	requireAgreement(t, "selective≡exhaustive", apps,
		func(ga *corpus.GenApp) string { return digest(ga, instrument.Selective) },
		func(ga *corpus.GenApp) string { return digest(ga, instrument.Exhaustive) })
}

// TestGenMetamorphicChaos: under one seeded fault schedule, selective and
// exhaustive deployments must agree on the complete failure-path account —
// the fault event trace, the sink trace, and the per-message errors.
func TestGenMetamorphicChaos(t *testing.T) {
	apps := metaApps(t)
	digest := func(ga *corpus.GenApp, mode instrument.Mode) string {
		sched := faults.Generate(int64(ga.Seed%1_000_003), ga.Name)
		full := genRun(ga, genVariant{mode: mode, schedule: sched}, false)
		var b strings.Builder
		for _, line := range strings.Split(full, "\n") {
			if strings.HasPrefix(line, "violation:") || strings.HasPrefix(line, "stats:") {
				continue
			}
			b.WriteString(line)
			b.WriteByte('\n')
		}
		return b.String()
	}
	requireAgreement(t, "chaos sel≡exh", apps,
		func(ga *corpus.GenApp) string { return digest(ga, instrument.Selective) },
		func(ga *corpus.GenApp) string { return digest(ga, instrument.Exhaustive) })
}
