package harness

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"turnstile/internal/asttest"
	"turnstile/internal/corpus"
	"turnstile/internal/dift"
	"turnstile/internal/parser"
	"turnstile/internal/resolve"
	"turnstile/internal/taint"
)

// This file is the race-proofing battery for the parallel experiment
// engine: it drives the full pipeline (parse → analyze → instrument →
// load → replay) from many goroutines at once and asserts that nothing
// observable — violation counts, sink writes, rendered tables — differs
// from the sequential run. `go test -race ./...` over these tests is a
// tier-1 gate (see README).

// replaySignature is everything observable about one app's replay: sink
// writes, console output, and the trackers' violation/labelling activity.
type replaySignature struct {
	App                  string
	Writes               string
	Console              int
	SelStats, ExhStats   dift.Stats
	SelPaths             int
	SelInvokes, ExhInvok int
}

// replayApp prepares one app (optionally through a shared cache) and
// feeds it msgs messages on all three versions.
func replayApp(app *corpus.App, cache *PipelineCache, msgs int) (replaySignature, error) {
	prep, err := PrepareAppCached(app, cache)
	if err != nil {
		return replaySignature{}, err
	}
	for i := 0; i < msgs; i++ {
		for _, r := range []*Runner{prep.Original, prep.Selective, prep.Exhaustive} {
			if err := r.Process(i); err != nil {
				return replaySignature{}, fmt.Errorf("%s message %d: %w", r.Mode, i, err)
			}
		}
	}
	var w strings.Builder
	for _, sw := range prep.Original.IP.IO.WritesTo("fs") {
		fmt.Fprintf(&w, "%v;", sw.Value)
	}
	return replaySignature{
		App:        app.Name,
		Writes:     w.String(),
		Console:    len(prep.Original.IP.ConsoleOut),
		SelStats:   prep.Selective.IP.Tracker.Stats(),
		ExhStats:   prep.Exhaustive.IP.Tracker.Stats(),
		SelPaths:   len(prep.Analysis.Paths),
		SelInvokes: prep.SelectiveResult.Invokes,
		ExhInvok:   prep.ExhaustiveResult.Invokes,
	}, nil
}

// TestConcurrentPrepareReplayEquivalence runs PrepareApp + workload
// replay for every runnable corpus app from 8 goroutines simultaneously
// (sharing one pipeline cache) and asserts that each goroutine observes
// exactly the violation counts, tracker activity, and sink output of the
// sequential reference run.
func TestConcurrentPrepareReplayEquivalence(t *testing.T) {
	const goroutines = 8
	const msgs = 8
	apps := corpus.Runnable(corpus.All())
	if len(apps) != 27 {
		t.Fatalf("runnable apps = %d, want 27", len(apps))
	}

	// sequential reference, no cache
	want := make(map[string]replaySignature, len(apps))
	for _, app := range apps {
		sig, err := replayApp(app, nil, msgs)
		if err != nil {
			t.Fatalf("sequential %s: %v", app.Name, err)
		}
		want[app.Name] = sig
	}

	cache := NewCache()
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*len(apps))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, app := range apps {
				sig, err := replayApp(app, cache, msgs)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d %s: %v", g, app.Name, err)
					return
				}
				if sig != want[app.Name] {
					errs <- fmt.Errorf("goroutine %d %s:\n got %+v\nwant %+v", g, app.Name, sig, want[app.Name])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s := cache.Stats(); s.Entries != len(apps) {
		t.Errorf("cache entries = %d, want %d (stats %+v)", s.Entries, len(apps), s)
	}
}

// TestE1RenderDeterminism runs E1 under every scheduling mode — the
// sequential paper methodology, the 8-worker pool, and cold and warm
// shared-cache variants — and asserts byte-identical rendered Figure 10
// and Table 2 output.
func TestE1RenderDeterminism(t *testing.T) {
	apps := corpus.All()
	table2 := RenderTable2(RunTable2())

	cache := NewCache()
	variants := []struct {
		name string
		opts E1Options
	}{
		{"sequential", E1Options{Parallel: 1}},
		{"parallel-8", E1Options{Parallel: 8}},
		{"parallel-8-cold-cache", E1Options{Parallel: 8, Cache: cache}},
		{"parallel-8-warm-cache", E1Options{Parallel: 8, Cache: cache}},
		{"sequential-warm-cache", E1Options{Parallel: 1, Cache: cache}},
	}
	var ref string
	for _, v := range variants {
		res, err := RunE1With(apps, v.opts)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		out := RenderFigure10(res)
		if ref == "" {
			ref = out
		} else if out != ref {
			t.Errorf("%s rendered Figure 10 differs from sequential run:\n%s\n--- want ---\n%s", v.name, out, ref)
		}
		if got := RenderTable2(RunTable2()); got != table2 {
			t.Errorf("%s: Table 2 render not stable", v.name)
		}
	}
	s := cache.Stats()
	if s.Entries != len(apps) {
		t.Errorf("cache entries = %d, want %d", s.Entries, len(apps))
	}
	if s.Hits == 0 {
		t.Error("warm cache runs recorded no hits")
	}
}

// TestE1ParallelMatchesSequential checks the full result structure (not
// just the render) for a parallel run: rows in corpus order, identical
// counts and aggregates.
func TestE1ParallelMatchesSequential(t *testing.T) {
	apps := corpus.All()
	seq, err := RunE1(apps)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunE1With(apps, E1Options{Parallel: 16, Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Rows) != len(par.Rows) {
		t.Fatalf("rows: %d vs %d", len(seq.Rows), len(par.Rows))
	}
	for i := range seq.Rows {
		s, p := seq.Rows[i], par.Rows[i]
		if s.App != p.App || s.Category != p.Category || s.Manual != p.Manual ||
			s.Turnstile != p.Turnstile || s.Baseline != p.Baseline {
			t.Errorf("row %d differs: %+v vs %+v", i, s, p)
		}
	}
	if seq.TurnstileTotal != par.TurnstileTotal || seq.BaselineTotal != par.BaselineTotal ||
		seq.ManualTotal != par.ManualTotal || seq.AppsOnlyTurnstile != par.AppsOnlyTurnstile ||
		seq.AppsBothFound != par.AppsBothFound || seq.AppsNeither != par.AppsNeither {
		t.Errorf("aggregates differ: %+v vs %+v", seq, par)
	}
}

// TestMeasureAppsParallelOrder checks that parallel E2 measurement
// returns apps in corpus order with plausible profiles.
func TestMeasureAppsParallelOrder(t *testing.T) {
	apps := corpus.All()
	subset := []*corpus.App{
		corpus.ByName(apps, "modbus"),
		corpus.ByName(apps, "nlp.js"),
		corpus.ByName(apps, "watson"),
		corpus.ByName(apps, "sensor-logger"),
	}
	opts := E2Options{Messages: 20, Warmup: 3, Repeats: 1, Parallel: 4, Cache: NewCache()}
	ms, err := MeasureApps(subset, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(subset) {
		t.Fatalf("measurements = %d", len(ms))
	}
	for i, m := range ms {
		if m.App != subset[i].Name {
			t.Errorf("measurement %d = %s, want %s (order must be deterministic)", i, m.App, subset[i].Name)
		}
		if len(m.Original) != opts.Messages || len(m.Selective) != opts.Messages || len(m.Exhaustive) != opts.Messages {
			t.Errorf("%s: profile lengths %d/%d/%d", m.App, len(m.Original), len(m.Selective), len(m.Exhaustive))
		}
	}
}

// TestParallelE1Speedup demonstrates the acceptance criterion: on a
// machine with at least 4 cores, the parallel E1 path is at least 2×
// faster than the sequential one (with identical rendered output, which
// TestE1RenderDeterminism already pins down).
func TestParallelE1Speedup(t *testing.T) {
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs to demonstrate the 2x speedup, have %d", runtime.NumCPU())
	}
	if testing.Short() {
		t.Skip("timing test")
	}
	apps := corpus.All()
	// warm up allocators and caches once
	if _, err := RunE1(apps); err != nil {
		t.Fatal(err)
	}
	best := 0.0
	for attempt := 0; attempt < 3 && best < 2; attempt++ {
		t0 := time.Now()
		if _, err := RunE1(apps); err != nil {
			t.Fatal(err)
		}
		seq := time.Since(t0)
		t0 = time.Now()
		if _, err := RunE1With(apps, E1Options{Parallel: runtime.NumCPU()}); err != nil {
			t.Fatal(err)
		}
		par := time.Since(t0)
		if ratio := float64(seq) / float64(par); ratio > best {
			best = ratio
		}
	}
	t.Logf("best parallel E1 speedup on %d CPUs: %.2fx", runtime.NumCPU(), best)
	if best < 2 {
		t.Errorf("parallel E1 speedup = %.2fx, want >= 2x on %d CPUs", best, runtime.NumCPU())
	}
}

// TestPrepareLeavesCachedOriginalUntouched: the instrumented versions are
// stamped and resolved in place, so the ownership rule is what keeps the
// cache's shared original intact. After all three versions of every
// runnable app are prepared from one cache, each cached original still
// equals a fresh parse and resolve, positions and resolver annotations
// included.
func TestPrepareLeavesCachedOriginalUntouched(t *testing.T) {
	cache := NewCache()
	for _, app := range corpus.Runnable(corpus.All()) {
		if _, err := PrepareAppCached(app, cache); err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		file := app.Name + ".js"
		cached, _, err := cache.Analyzed(file, app.Source, taint.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		fresh := parser.MustParse(file, app.Source)
		resolve.Resolve(fresh)
		if d := asttest.Diff(cached, fresh); d != "" {
			t.Fatalf("%s: preparing the versions changed the cached original: %s", app.Name, d)
		}
	}
}
