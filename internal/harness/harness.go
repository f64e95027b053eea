// Package harness runs the paper's experiments end-to-end and renders the
// tables and figures of §6:
//
//   - Table 2 — framework popularity from the synthetic GitHub index.
//   - Figure 10 / E1 — per-app privacy-sensitive dataflow detection,
//     Turnstile vs the CodeQL-equivalent baseline vs manual ground truth,
//     plus the analysis-time comparison.
//   - Figures 11 and 12 / E2 — relative run-time of the 27 instrumentable
//     applications under selective and exhaustive instrumentation across
//     input rates from 2 to 1000 Hz.
package harness

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"turnstile/internal/baseline"
	"turnstile/internal/corpus"
	"turnstile/internal/ghindex"
	"turnstile/internal/interp"
	"turnstile/internal/taint"
	"turnstile/internal/workload"
)

// ---------------------------------------------------------------------------
// Table 2

// Table2Row is one framework row.
type Table2Row = ghindex.SearchResult

// RunTable2 builds the synthetic index and performs the signature searches.
func RunTable2() []Table2Row {
	return ghindex.Table2(ghindex.Build())
}

// RenderTable2 formats the rows like the paper's Table 2.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: Publicly available repositories per IoT framework\n")
	fmt.Fprintf(&b, "%-16s %14s %24s\n", "Framework", "Search Results", "Number of Repositories")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %14d %16d (%.1f%%)\n", r.Framework, r.Results, r.Repos, r.RepoShare)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E1: static code-path selection (Figure 10 + analysis timing)

// Figure10Row is one application's detection results.
type Figure10Row struct {
	App          string
	Category     string
	Manual       int
	Turnstile    int
	Baseline     int
	TurnstileDur time.Duration
	BaselineDur  time.Duration
}

// E1Result aggregates experiment E1.
type E1Result struct {
	Rows           []Figure10Row
	ManualTotal    int
	TurnstileTotal int
	BaselineTotal  int
	// Timing aggregates (§6.1 "Computation Time").
	TurnstileMean, TurnstileMax time.Duration
	BaselineMean, BaselineMax   time.Duration
	// Speedup is baseline mean / turnstile mean (the paper reports ~67×).
	Speedup float64
	// Category tallies used in the paper's discussion.
	AppsOnlyTurnstile int // Turnstile found paths, baseline none
	AppsNeither       int // neither found any
	AppsBothFound     int
}

// E1Options configures how RunE1With schedules the per-app analyses.
type E1Options struct {
	// Parallel is the worker count; 0 selects GOMAXPROCS, 1 is the
	// sequential path. Result order is index-deterministic either way.
	Parallel int
	// Cache, when non-nil, memoizes parse + analysis per app so warm
	// reruns skip both (see PipelineCache).
	Cache *PipelineCache
}

// RunE1 analyzes every corpus app with both analyzers, sequentially and
// uncached — the paper's original single-goroutine methodology.
func RunE1(apps []*corpus.App) (*E1Result, error) {
	return RunE1With(apps, E1Options{Parallel: 1})
}

// RunE1With analyzes every corpus app with both analyzers, fanning the
// per-app work across a bounded worker pool. Rows are collected in corpus
// order and every aggregate is computed in a deterministic sequential
// pass, so the rendered detection tables are byte-identical to a
// sequential run.
func RunE1With(apps []*corpus.App, opts E1Options) (*E1Result, error) {
	rows, err := mapIndexed(len(apps), opts.Parallel, func(i int) (Figure10Row, error) {
		app := apps[i]
		file := app.Name + ".js"
		var tr *taint.Result
		var br *baseline.Result
		if opts.Cache != nil {
			var err error
			if _, tr, err = opts.Cache.Analyzed(file, app.Source, taint.DefaultOptions()); err != nil {
				return Figure10Row{}, fmt.Errorf("harness: %s: %w", app.Name, err)
			}
			if br, err = opts.Cache.Baseline(file, app.Source, taint.DefaultOptions()); err != nil {
				return Figure10Row{}, fmt.Errorf("harness: %s: %w", app.Name, err)
			}
		} else {
			files, err := app.Files()
			if err != nil {
				return Figure10Row{}, err
			}
			tr = taint.Analyze(files, taint.DefaultOptions())
			br = baseline.Analyze(files)
		}
		return Figure10Row{
			App:          app.Name,
			Category:     app.Category.String(),
			Manual:       app.GroundTruth,
			Turnstile:    len(tr.Paths),
			Baseline:     len(br.Paths),
			TurnstileDur: tr.Duration,
			BaselineDur:  br.Duration,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &E1Result{Rows: rows}
	var tTotal, bTotal time.Duration
	for _, row := range rows {
		res.ManualTotal += row.Manual
		res.TurnstileTotal += row.Turnstile
		res.BaselineTotal += row.Baseline
		tTotal += row.TurnstileDur
		bTotal += row.BaselineDur
		if row.TurnstileDur > res.TurnstileMax {
			res.TurnstileMax = row.TurnstileDur
		}
		if row.BaselineDur > res.BaselineMax {
			res.BaselineMax = row.BaselineDur
		}
		switch {
		case row.Turnstile > 0 && row.Baseline == 0:
			res.AppsOnlyTurnstile++
		case row.Turnstile > 0 && row.Baseline > 0:
			res.AppsBothFound++
		case row.Turnstile == 0 && row.Baseline == 0:
			res.AppsNeither++
		}
	}
	n := time.Duration(len(apps))
	if n > 0 {
		res.TurnstileMean = tTotal / n
		res.BaselineMean = bTotal / n
	}
	if res.TurnstileMean > 0 {
		res.Speedup = float64(res.BaselineMean) / float64(res.TurnstileMean)
	}
	return res, nil
}

// RenderFigure10 formats the deterministic half of E1: the per-app
// detection table and the category tallies. Its output depends only on
// the corpus, never on measured durations, so sequential, parallel, cold-
// and warm-cache runs must render byte-identically (the determinism tests
// and golden files assert exactly this).
func RenderFigure10(res *E1Result) string {
	var b strings.Builder
	b.WriteString("Figure 10: privacy-sensitive dataflows per application\n")
	fmt.Fprintf(&b, "%-18s %-18s %7s %10s %8s\n", "Application", "Category", "Manual", "Turnstile", "CodeQL*")
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%-18s %-18s %7d %10d %8d\n", r.App, r.Category, r.Manual, r.Turnstile, r.Baseline)
	}
	fmt.Fprintf(&b, "%-18s %-18s %7d %10d %8d\n", "TOTAL", "", res.ManualTotal, res.TurnstileTotal, res.BaselineTotal)
	fmt.Fprintf(&b, "\napps where only Turnstile found paths: %d\n", res.AppsOnlyTurnstile)
	fmt.Fprintf(&b, "apps where both found paths:           %d\n", res.AppsBothFound)
	fmt.Fprintf(&b, "apps where neither found paths:        %d\n", res.AppsNeither)
	return b.String()
}

// RenderE1 formats the Figure 10 data and the timing summary.
func RenderE1(res *E1Result) string {
	var b strings.Builder
	b.WriteString(RenderFigure10(res))
	fmt.Fprintf(&b, "\nanalysis time: turnstile mean %v (max %v); baseline mean %v (max %v); speedup %.1fx\n",
		res.TurnstileMean, res.TurnstileMax, res.BaselineMean, res.BaselineMax, res.Speedup)
	b.WriteString("(*CodeQL-equivalent baseline analyzer)\n")
	return b.String()
}

// ---------------------------------------------------------------------------
// E2: run-time performance overhead (Figures 11 and 12)

// AppMeasurement holds the measured per-message service times of the three
// versions of one application.
type AppMeasurement struct {
	App        string
	Original   workload.Service
	Selective  workload.Service
	Exhaustive workload.Service
	// Scale is the workload-size normalization applied inside the queue
	// simulation. The corpus applications are miniaturized replicas of the
	// paper's subjects (dictionaries of hundreds of tokens instead of full
	// NLP corpora, short frame descriptors instead of megapixel frames);
	// all three versions' measured service times are multiplied by Scale
	// so the service-time-to-arrival-period regime matches the paper's
	// full-size workloads. The overhead ratios themselves are measured,
	// never synthesized: Scale shifts only where on the rate axis the
	// idle→saturated crossover falls.
	Scale float64
}

func (m *AppMeasurement) scaled(s workload.Service) workload.Service {
	k := m.Scale
	if k <= 0 {
		k = 1
	}
	out := make(workload.Service, len(s))
	for i, d := range s {
		out[i] = time.Duration(float64(d) * k)
	}
	return out
}

// RelSelective returns t/t_og for the selectively-managed version at hz.
func (m *AppMeasurement) RelSelective(hz float64) float64 {
	return workload.RelativeRuntime(m.scaled(m.Selective), m.scaled(m.Original), hz)
}

// RelExhaustive returns t/t_og for the exhaustively-managed version at hz.
func (m *AppMeasurement) RelExhaustive(hz float64) float64 {
	return workload.RelativeRuntime(m.scaled(m.Exhaustive), m.scaled(m.Original), hz)
}

// E2Options configures the overhead experiment.
type E2Options struct {
	// Messages per run (the paper uses 1000).
	Messages int
	// Warmup messages executed before measurement.
	Warmup int
	// Repeats averages service profiles over repeated runs (paper: 10).
	Repeats int
	// ServiceScale is the workload-size normalization (see
	// AppMeasurement.Scale); 0 selects the default.
	ServiceScale float64
	// Parallel is the MeasureApps worker count; 0 selects GOMAXPROCS, 1
	// measures sequentially. Each app's three versions always stay on one
	// worker, interleaved per repeat, so the overhead *ratios* remain
	// apples-to-apples; only absolute service times pick up scheduling
	// noise from neighbouring workers.
	Parallel int
	// Cache, when non-nil, memoizes each app's parse + analysis across
	// PrepareApp calls and experiment reruns.
	Cache *PipelineCache
	// Engine runs every version on the VM (default) or the tree-walker.
	Engine interp.Engine
}

// DefaultServiceScale normalizes the miniaturized corpus workloads to the
// paper's service-time regime (full-size camera frames take ~10-100 ms to
// process; the corpus messages take a fraction of a millisecond).
const DefaultServiceScale = 16

// DefaultE2Options returns a configuration sized for interactive runs.
func DefaultE2Options() E2Options {
	return E2Options{Messages: 200, Warmup: 20, Repeats: 3, ServiceScale: DefaultServiceScale}
}

// MeasureApps prepares and measures every runnable app, fanning the
// per-app preparation and measurement across opts.Parallel workers.
// Measurements are collected in corpus order regardless of worker
// interleaving.
func MeasureApps(apps []*corpus.App, opts E2Options) ([]AppMeasurement, error) {
	if opts.Messages == 0 {
		d := DefaultE2Options()
		d.Parallel, d.Cache, d.Engine = opts.Parallel, opts.Cache, opts.Engine
		opts = d
	}
	runnable := corpus.Runnable(apps)
	return mapIndexed(len(runnable), opts.Parallel, func(i int) (AppMeasurement, error) {
		m, err := MeasureApp(runnable[i], opts)
		if err != nil {
			return AppMeasurement{}, fmt.Errorf("harness: %s: %w", runnable[i].Name, err)
		}
		return *m, nil
	})
}

// MeasureApp measures one app's three versions.
func MeasureApp(app *corpus.App, opts E2Options) (*AppMeasurement, error) {
	prep, err := PrepareAppEngine(app, opts.Cache, opts.Engine)
	if err != nil {
		return nil, err
	}
	// one measurement pass of a single version
	pass := func(r *Runner) (workload.Service, error) {
		// a clean heap between passes keeps one version's garbage from
		// being charged to the next version's measurements; with multiple
		// measurement workers a forced global GC would instead stall every
		// other worker mid-pass, so it is only done when measuring alone
		if opts.Parallel <= 1 {
			runtime.GC()
		}
		for i := 0; i < opts.Warmup; i++ {
			if err := r.Process(i); err != nil {
				return nil, err
			}
		}
		return workload.Measure(opts.Messages, r.Process)
	}
	// merge keeps the per-message minimum across repeats — the standard
	// low-noise estimator for service time
	merge := func(acc, s workload.Service) workload.Service {
		if acc == nil {
			return s
		}
		for i := range acc {
			if s[i] < acc[i] {
				acc[i] = s[i]
			}
		}
		return acc
	}
	m := &AppMeasurement{App: app.Name, Scale: opts.ServiceScale}
	if m.Scale == 0 {
		m.Scale = DefaultServiceScale
	}
	// the three versions are measured interleaved within each repeat so
	// slow drift (CPU frequency, heap growth) affects them equally
	for rep := 0; rep < max(1, opts.Repeats); rep++ {
		s, err := pass(prep.Original)
		if err != nil {
			return nil, fmt.Errorf("original: %w", err)
		}
		m.Original = merge(m.Original, s)
		if s, err = pass(prep.Selective); err != nil {
			return nil, fmt.Errorf("selective: %w", err)
		}
		m.Selective = merge(m.Selective, s)
		if s, err = pass(prep.Exhaustive); err != nil {
			return nil, fmt.Errorf("exhaustive: %w", err)
		}
		m.Exhaustive = merge(m.Exhaustive, s)
	}
	return m, nil
}

// Figure11Point is one input-rate sample of the Fig. 11 bands.
type Figure11Point struct {
	Rate                      float64
	SelMin, SelMedian, SelMax float64
	ExhMin, ExhMedian, ExhMax float64
}

// Figure11 computes the min/median/max relative run-time bands across apps
// for each input rate.
func Figure11(ms []AppMeasurement, rates []float64) []Figure11Point {
	if rates == nil {
		rates = workload.Rates
	}
	var points []Figure11Point
	for _, hz := range rates {
		var sel, exh []float64
		for i := range ms {
			sel = append(sel, ms[i].RelSelective(hz))
			exh = append(exh, ms[i].RelExhaustive(hz))
		}
		sort.Float64s(sel)
		sort.Float64s(exh)
		points = append(points, Figure11Point{
			Rate:      hz,
			SelMin:    sel[0],
			SelMedian: workload.Percentile(sel, 0.5),
			SelMax:    sel[len(sel)-1],
			ExhMin:    exh[0],
			ExhMedian: workload.Percentile(exh, 0.5),
			ExhMax:    exh[len(exh)-1],
		})
	}
	return points
}

// RenderFigure11 formats the band data.
func RenderFigure11(points []Figure11Point) string {
	var b strings.Builder
	b.WriteString("Figure 11: relative run-time vs input rate (min/median/max across 27 apps)\n")
	fmt.Fprintf(&b, "%8s | %26s | %26s\n", "rate Hz", "selective (min/med/max)", "exhaustive (min/med/max)")
	for _, p := range points {
		fmt.Fprintf(&b, "%8.0f | %7.3f %8.3f %8.3f | %7.3f %8.3f %8.3f\n",
			p.Rate, p.SelMin, p.SelMedian, p.SelMax, p.ExhMin, p.ExhMedian, p.ExhMax)
	}
	return b.String()
}

// Figure12Row is one app's relative run-times at the two highlighted rates.
type Figure12Row struct {
	App            string
	Sel30, Exh30   float64
	Sel250, Exh250 float64
}

// Figure12 computes per-app relative run-times at 30 Hz and 250 Hz.
func Figure12(ms []AppMeasurement) []Figure12Row {
	var rows []Figure12Row
	for i := range ms {
		rows = append(rows, Figure12Row{
			App:    ms[i].App,
			Sel30:  ms[i].RelSelective(30),
			Exh30:  ms[i].RelExhaustive(30),
			Sel250: ms[i].RelSelective(250),
			Exh250: ms[i].RelExhaustive(250),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].App < rows[j].App })
	return rows
}

// RenderFigure12 formats the per-app comparison.
func RenderFigure12(rows []Figure12Row) string {
	var b strings.Builder
	b.WriteString("Figure 12: relative run-time per application at 30 Hz and 250 Hz\n")
	fmt.Fprintf(&b, "%-18s | %9s %9s | %9s %9s\n", "application", "sel@30", "exh@30", "sel@250", "exh@250")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s | %9.3f %9.3f | %9.3f %9.3f\n", r.App, r.Sel30, r.Exh30, r.Sel250, r.Exh250)
	}
	return b.String()
}

// OverheadSummary extracts the headline numbers of §6.2 from the band data.
type OverheadSummary struct {
	WorstSelective30  float64 // paper: ≈15.8% → 1.158
	WorstExhaustive30 float64 // paper: ≈153.8% → 2.538
	MedianSelLow      float64 // median at 2 Hz (paper: ≈0.2% → 1.002)
	MedianSelHigh     float64 // median at 1000 Hz (paper: ≈22% → 1.22)
	AcceptableSel     int     // apps with median overhead < 20% across rates
	AcceptableExh     int
}

// Summarize computes the headline claims from the measurements.
func Summarize(ms []AppMeasurement, points []Figure11Point) OverheadSummary {
	var s OverheadSummary
	for _, p := range points {
		if p.Rate == 30 {
			s.WorstSelective30 = p.SelMax
			s.WorstExhaustive30 = p.ExhMax
		}
		if p.Rate == 2 {
			s.MedianSelLow = p.SelMedian
		}
		if p.Rate == 1000 {
			s.MedianSelHigh = p.SelMedian
		}
	}
	// an app is "acceptable" when its median relative run-time across the
	// rate sweep stays below 1.2 (a 20% overhead, §6.2)
	for i := range ms {
		var sel, exh []float64
		for _, hz := range workload.Rates {
			sel = append(sel, ms[i].RelSelective(hz))
			exh = append(exh, ms[i].RelExhaustive(hz))
		}
		sort.Float64s(sel)
		sort.Float64s(exh)
		if workload.Percentile(sel, 0.5) < 1.2 {
			s.AcceptableSel++
		}
		if workload.Percentile(exh, 0.5) < 1.2 {
			s.AcceptableExh++
		}
	}
	return s
}
