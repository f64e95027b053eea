package harness

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"turnstile/internal/corpus"
	"turnstile/internal/interp"
	"turnstile/internal/taint"
)

// The bytecode VM's corpus-wide semantics gates: the tree-walker is the
// differential oracle, and the VM must be indistinguishable from it on
// everything observable — sink traces, violations, tracker statistics,
// console output, error outcomes — across every runnable app, at every
// worker count, under fault injection and under the attack corpus.

// engineSignature runs all three versions of one app on one engine, with
// an optional shared pipeline cache, and renders everything observable
// into a canonical string: the per-message error outcomes, the full sink
// trace, the recorded violations, the tracker statistics and the console
// output. Two engines are equivalent iff their signatures are
// byte-identical.
func engineSignature(app *corpus.App, cache *PipelineCache, engine interp.Engine, messages int) (string, error) {
	prep, err := PrepareAppEngine(app, cache, engine)
	if err != nil {
		return "", fmt.Errorf("%s: %w", app.Name, err)
	}
	var b strings.Builder
	for _, r := range []*Runner{prep.Original, prep.Selective, prep.Exhaustive} {
		fmt.Fprintf(&b, "== %s/%s\n", app.Name, r.Mode)
		for i := 0; i < messages; i++ {
			if err := r.Process(i); err != nil {
				fmt.Fprintf(&b, "msg %d: %v\n", i, err)
			}
		}
		for _, w := range r.IP.IO.Writes {
			fmt.Fprintf(&b, "write: %s.%s %s %v\n", w.Module, w.Op, w.Target, w.Value)
		}
		if r.IP.Tracker != nil {
			for _, v := range r.IP.Tracker.Violations() {
				fmt.Fprintf(&b, "violation: %v\n", v.Error())
			}
			fmt.Fprintf(&b, "stats: %+v\n", r.IP.Tracker.Stats())
		}
		for _, line := range r.IP.ConsoleOut {
			fmt.Fprintf(&b, "console: %s\n", line)
		}
	}
	return b.String(), nil
}

// vmCorpusSignatures computes every runnable app's signature on one
// engine with the given worker count.
func vmCorpusSignatures(t *testing.T, engine interp.Engine, parallel, messages int) []string {
	t.Helper()
	runnable := corpus.Runnable(corpus.All())
	sigs, err := mapIndexed(len(runnable), parallel, func(i int) (string, error) {
		return engineSignature(runnable[i], nil, engine, messages)
	})
	if err != nil {
		t.Fatal(err)
	}
	return sigs
}

// TestVMDifferentialFullCorpus compares the VM against the slot-env
// tree-walker on the full corpus, sequentially and with 8
// workers: byte-identical signatures, independent of worker count.
func TestVMDifferentialFullCorpus(t *testing.T) {
	const messages = 25
	runnable := corpus.Runnable(corpus.All())
	if len(runnable) == 0 {
		t.Fatal("no runnable corpus apps")
	}

	vmSeq := vmCorpusSignatures(t, interp.EngineVM, 1, messages)
	walkSeq := vmCorpusSignatures(t, interp.EngineWalker, 1, messages)
	for i := range vmSeq {
		if vmSeq[i] != walkSeq[i] {
			t.Errorf("%s: VM and tree-walker diverged:\n--- vm\n%s--- walker\n%s",
				runnable[i].Name, vmSeq[i], walkSeq[i])
		}
	}

	vmPar := vmCorpusSignatures(t, interp.EngineVM, 8, messages)
	walkPar := vmCorpusSignatures(t, interp.EngineWalker, 8, messages)
	for i := range vmSeq {
		if vmSeq[i] != vmPar[i] {
			t.Errorf("%s: VM signature depends on worker count", runnable[i].Name)
		}
		if walkSeq[i] != walkPar[i] {
			t.Errorf("%s: tree-walker signature depends on worker count", runnable[i].Name)
		}
	}
}

// TestVMSharedCacheBothModes is the regression test for the pipeline
// cache's engine keying: one PipelineCache serves VM and tree-walker
// preparations concurrently (run under -race in verify.sh). Before the
// keying fix both modes aliased onto one entry, so whichever mode lost
// the singleflight race executed the other's artifact and the harness
// silently stopped being differential.
func TestVMSharedCacheBothModes(t *testing.T) {
	const messages = 25
	cache := NewCache()
	runnable := corpus.Runnable(corpus.All())
	if len(runnable) > 6 {
		runnable = runnable[:6]
	}

	sigs := make([][]string, len(interp.Engines))
	for m := range sigs {
		sigs[m] = make([]string, len(runnable))
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(interp.Engines)*len(runnable))
	for m, engine := range interp.Engines {
		for i, app := range runnable {
			wg.Add(1)
			go func(m, i int, engine interp.Engine, app *corpus.App) {
				defer wg.Done()
				sig, err := engineSignature(app, cache, engine, messages)
				if err != nil {
					errs <- err
					return
				}
				sigs[m][i] = sig
			}(m, i, engine, app)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, app := range runnable {
		if sigs[0][i] != sigs[1][i] {
			t.Errorf("%s: engines diverge when sharing one cache:\n--- vm\n%s--- walker\n%s",
				app.Name, sigs[0][i], sigs[1][i])
		}
	}

	// artifact separation: the VM-mode entry carries compiled bytecode,
	// the walker-mode entry must not
	app := runnable[0]
	_, _, vmMod, err := cache.AnalyzedFor(app.Name+".js", app.Source, taint.DefaultOptions(), interp.EngineVM)
	if err != nil {
		t.Fatal(err)
	}
	if vmMod == nil {
		t.Error("VM-mode cache entry has no compiled module")
	}
	_, _, walkMod, err := cache.AnalyzedFor(app.Name+".js", app.Source, taint.DefaultOptions(), interp.EngineWalker)
	if err != nil {
		t.Fatal(err)
	}
	if walkMod != nil {
		t.Error("walker-mode cache entry leaked a compiled module")
	}
}

// TestVMChaosEquivalence replays the fault-injection battery on both
// engines with the same seed: fault traces, message errors, surviving
// sink writes and the three-version equivalence verdicts must agree
// app for app.
func TestVMChaosEquivalence(t *testing.T) {
	apps := corpus.All()
	vmRes, err := RunChaos(apps, ChaosOptions{Seed: 3, Messages: 8, Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	walkRes, err := RunChaos(apps, ChaosOptions{Seed: 3, Messages: 8, Cache: NewCache(), Engine: interp.EngineWalker})
	if err != nil {
		t.Fatal(err)
	}
	if len(vmRes.Apps) != len(walkRes.Apps) {
		t.Fatalf("app count: vm %d, walker %d", len(vmRes.Apps), len(walkRes.Apps))
	}
	for i, va := range vmRes.Apps {
		wa := walkRes.Apps[i]
		if va != wa {
			t.Errorf("%s: chaos outcomes diverge:\nvm:     %+v\nwalker: %+v", va.App, va, wa)
		}
	}
	if vmRes.Equivalent != walkRes.Equivalent {
		t.Errorf("equivalent count: vm %d, walker %d", vmRes.Equivalent, walkRes.Equivalent)
	}
}

// TestVMAttackEquivalence runs the adversarial corpus on both engines:
// the rendered attack report (containment verdicts, violations, typed
// failure classes) must be byte-identical.
func TestVMAttackEquivalence(t *testing.T) {
	vmRes, err := RunAttackCorpus(AttackOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	walkRes, err := RunAttackCorpus(AttackOptions{Parallel: 1, Engine: interp.EngineWalker})
	if err != nil {
		t.Fatal(err)
	}
	if vmTxt, walkTxt := RenderAttack(vmRes), RenderAttack(walkRes); vmTxt != walkTxt {
		t.Errorf("attack report diverges between engines:\n--- vm\n%s--- walker\n%s", vmTxt, walkTxt)
	}
}
