package main

import (
	"fmt"
	"runtime"
	"time"

	"turnstile/internal/core"
	"turnstile/internal/corpus"
	"turnstile/internal/harness"
	"turnstile/internal/instrument"
	"turnstile/internal/interp"
)

// coldBench is the cold-deploy workload: a seeded generated corpus across
// all seven strata, deployed under the generated-corpus scoring
// configuration, plus the runnable corpus apps under the paper's default
// options. Every deploy pays parse → analyze → instrument → print →
// re-parse → resolve → compile → init while execution does little, and the
// strata's must-catch flows keep the tracker's violation path hot. Rounds
// repeat the same corpus; core.Manage keeps nothing between calls, so
// every deploy is a cold start.
type coldBench struct {
	tally
	sz       sizes
	seed     uint64
	gen      []*corpus.GenApp
	runnable []*corpus.App
	setupS   []float64
	// per-deploy minimum across rounds, µs: the generated apps, and the
	// runnable apps per version
	genUS []float64
	minUS [nVersions][]float64
}

func newColdBench(seed int64, sz sizes) *coldBench {
	return &coldBench{sz: sz, seed: splitmix(uint64(seed))}
}

// genOptions is the generated-corpus scoring configuration
// (harness.RunGenCorpus): exhaustive, implicit flows, audit.
func genOptions() core.Options {
	opts := core.DefaultOptions()
	opts.Mode = instrument.Exhaustive
	opts.ImplicitFlows = true
	opts.Enforce = false
	return opts
}

// setup generates the corpus several times, keeping the last, and runs
// the ground-truth gate, untimed: the generated-corpus scorer on the same
// (N, seed) must miss no must-catch flow and flag no sanctioned one.
func (w *coldBench) setup() error {
	w.runnable = runnableApps(w.sz.apps)
	for k := 0; k < w.sz.setups; k++ {
		runtime.GC()
		t := time.Now()
		gen, err := corpus.GenCorpus(w.sz.gen, w.seed)
		if err != nil {
			return err
		}
		w.setupS = append(w.setupS, time.Since(t).Seconds())
		w.gen = gen
	}
	res, err := harness.RunGenCorpus(harness.GenOptions{N: w.sz.gen, Seed: w.seed, Parallel: 2})
	if err != nil {
		return err
	}
	if res.FN != 0 || res.FP != 0 || res.Passed != len(res.Apps) {
		w.gate("generated corpus (N=%d): %d missed, %d false positives, %d/%d apps passed",
			res.N, res.FN, res.FP, res.Passed, len(res.Apps))
	}
	return nil
}

// round deploys every app and pumps each with its own messages. The
// runnable apps are also deployed uninstrumented and exhaustively, for the
// overhead ratios. A traced round replays each managed deploy stage by
// stage instead of calling core.Manage.
func (w *coldBench) round(td *traceData) (time.Duration, error) {
	runtime.GC()
	var wall time.Duration
	genUS := make([]float64, len(w.gen))
	for i, ga := range w.gen {
		t0 := time.Now()
		managed, d, err := w.deploy(td, deploySpec{req: ga.Name, sources: ga.Files, policy: ga.Policy, opts: genOptions()})
		if err != nil {
			return 0, err
		}
		genUS[i] = us(d)
		if len(ga.Sources) > 0 {
			w.pump(td, vExh, managed.IP, ga.Name, ga.Messages, func(i int) error {
				return managed.Emit(ga.Sources[i%len(ga.Sources)], ga.Event, ga.Payload(i))
			})
		}
		wall += time.Since(t0)
	}

	var round [nVersions][]float64
	for _, app := range w.runnable {
		t0 := time.Now()
		sources := map[string]string{app.Name + ".js": app.Source}
		var ip *interp.Interp
		var err error
		d := timeIt(func() { ip, err = plainLoad(app) })
		w.op(err)
		if err != nil {
			return 0, err
		}
		round[vOrig] = append(round[vOrig], us(d))
		w.pump(td, vOrig, ip, app.Name, w.sz.pump, func(i int) error {
			return emit(ip, app.SourceName, "data", app.Message(i))
		})

		for _, v := range []int{vSel, vExh} {
			opts := core.DefaultOptions()
			if v == vExh {
				opts.Mode = instrument.Exhaustive
			}
			managed, d, err := w.deploy(td, deploySpec{req: app.Name + "/" + versionNames[v], sources: sources, policy: app.PolicyJSON, opts: opts})
			if err != nil {
				return 0, err
			}
			round[v] = append(round[v], us(d))
			if v == vSel {
				w.pump(td, vSel, managed.IP, app.Name, w.sz.pump, func(i int) error {
					return managed.Emit(app.SourceName, "data", app.Message(i))
				})
			}
		}
		wall += time.Since(t0)
	}
	if td == nil {
		w.genUS = minInto(w.genUS, genUS)
		for v := range round {
			w.minUS[v] = minInto(w.minUS[v], round[v])
		}
	}
	return wall, nil
}

// deploy times one managed deployment: core.Manage when untraced, the
// stage-by-stage replay when traced.
func (w *coldBench) deploy(td *traceData, spec deploySpec) (*core.ManagedApp, time.Duration, error) {
	var app *core.ManagedApp
	var err error
	d := timeIt(func() {
		if td != nil {
			app, err = td.replay(spec)
		} else {
			app, err = core.Manage(spec.sources, spec.policy, spec.opts)
		}
	})
	w.op(err)
	if err != nil {
		return nil, 0, fmt.Errorf("deploying %s: %w", spec.req, err)
	}
	if td != nil {
		td.ops++
	}
	return app, d, nil
}

// pump feeds n messages into a freshly deployed app.
func (w *coldBench) pump(td *traceData, v int, ip *interp.Interp, req string, n int, send func(int) error) {
	rec := td.recorder()
	done := td.observe(v, ip, n)
	for i := 0; i < n; i++ {
		id := rec.begin("interp.emit", req, i)
		var err error
		d := timeIt(func() { err = send(i) })
		rec.end(id)
		w.op(err)
		if td != nil {
			td.emitUS[v] = append(td.emitUS[v], us(d))
		}
	}
	done()
}

// replaySpecs is empty: a traced cold-deploy round replays its deploys
// itself.
func (w *coldBench) replaySpecs() []deploySpec { return nil }

// e2e reports the managed deploys (the generated apps under their
// configuration and the runnable apps selectively, the paper's
// deployment) and the runnable apps' deploy overheads.
func (w *coldBench) e2e() (map[string]float64, map[string]int) {
	deploys := append(append([]float64(nil), w.genUS...), w.minUS[vSel]...)
	var ovSel, ovExh []float64
	for i := range w.minUS[vOrig] {
		ovSel = append(ovSel, w.minUS[vSel][i]/w.minUS[vOrig][i])
		ovExh = append(ovExh, w.minUS[vExh][i]/w.minUS[vOrig][i])
	}
	return map[string]float64{
			"setup_s":      median(w.setupS),
			"p50_us":       pct(deploys, 0.5),
			"p99_us":       pct(deploys, 0.99),
			"ops_per_s":    float64(len(deploys)) / (sum(deploys) / 1e6),
			"overhead_sel": geomean(ovSel),
			"overhead_exh": geomean(ovExh),
		}, map[string]int{
			"setup_s": len(w.setupS), "p50_us": len(deploys), "p99_us": len(deploys), "ops_per_s": len(deploys),
			"overhead_sel": len(ovSel), "overhead_exh": len(ovExh),
		}
}
