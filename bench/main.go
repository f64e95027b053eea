// Command bench is the repository's wall-clock benchmark. It runs one
// workload for a fixed time, checks the outputs, and prints every
// end-to-end metric (or, with --trace 1, every per-layer metric from one
// extra traced round) followed by a one-line JSON result:
//
//	bench --workload stream-corpus --seed 1 --seconds 20 --trace 0
//	bench -compare a.jsonl b.jsonl
//
// Each run also appends its result, with environment metadata, to
// <out>/results.jsonl; a traced run writes <out>/<workload>.trace.json in
// Chrome trace-event format. See README.md for the metrics and workloads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// sizes are the workload sizes; they are constants of the benchmark, not
// flags, so every run of one commit does the same work.
type sizes struct {
	apps      int // runnable corpus apps (0 = all) for stream-corpus and cold-deploy
	setups    int // set-ups per stream-corpus and cold-deploy run
	minRounds int // rounds run even when --seconds has passed
	// stream-corpus
	warmup, msgs int
	// cold-deploy
	gen  int // generated apps per round
	pump int // messages pumped into each runnable app after deploy
	// serve-durable
	tenants, genTenants, serveMsgs int
}

// fullSizes keep each round near one to two and a half seconds on a
// 2-core host, so a 20-second run holds about ten to fifteen rounds and
// every minimum is taken over samples spread across the run.
var fullSizes = sizes{
	setups: 5, minRounds: 3,
	warmup: 5, msgs: 50,
	gen: 2000, pump: 3,
	tenants: 8, genTenants: 4, serveMsgs: 50,
}

var workloadNames = []string{"stream-corpus", "cold-deploy", "serve-durable"}

// bench is one benchmark workload.
type bench interface {
	// setup builds what the rounds measure.
	setup() error
	// round runs one round and returns the wall time of its measured work;
	// td is nil except in the traced round.
	round(td *traceData) (time.Duration, error)
	// replaySpecs are deployments the traced round replays stage by stage
	// besides any the round itself replays.
	replaySpecs() []deploySpec
	// e2e returns the end-to-end metrics and the samples behind each.
	e2e() (map[string]float64, map[string]int)
	counts() *tally
}

// tally counts operations, keeps the first few failures for the report,
// and records correctness-gate failures.
type tally struct {
	attempted, failed int
	firstErrs         []string
	problems          []string
}

func (t *tally) counts() *tally { return t }

// op counts one operation and whether it failed.
func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.firstErrs) < 10 {
			t.firstErrs = append(t.firstErrs, err.Error())
		}
	}
}

// gate records a correctness-gate failure.
func (t *tally) gate(format string, args ...any) {
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

func newWorkload(name string, seed int64, sz sizes, outDir string) (bench, error) {
	switch name {
	case "stream-corpus":
		return newStreamBench(seed, sz), nil
	case "cold-deploy":
		return newColdBench(seed, sz), nil
	case "serve-durable":
		return newServeBench(seed, sz, outDir), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of results.jsonl: the result plus what produced it.
type record struct {
	Workload    string         `json:"workload"`
	Seed        int64          `json:"seed"`
	Seconds     int            `json:"seconds"`
	Trace       bool           `json:"trace"`
	Rounds      int            `json:"rounds"`
	Samples     map[string]int `json:"samples,omitempty"`
	Problems    []string       `json:"problems,omitempty"`
	FirstErrors []string       `json:"first_errors,omitempty"`
	Env         env            `json:"env"`
	result
}

type env struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Revision   string `json:"revision"`
	Sizes      string `json:"sizes"`
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	sz       sizes
	outDir   string
	spec     string // path of BENCHMARK.json
}

// run executes one benchmark run.
func run(cfg config, log io.Writer) (*record, error) {
	spec, err := readSpec(cfg.spec)
	if err != nil {
		return nil, err
	}
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.sz, cfg.outDir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
	}
	heapMB := liveHeapMB()

	var walls []float64
	start := time.Now()
	for r := 0; r < cfg.sz.minRounds || time.Since(start) < cfg.seconds; r++ {
		d, err := w.round(nil)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", cfg.workload, r, err)
		}
		walls = append(walls, d.Seconds())
	}

	rec := &record{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: int(cfg.seconds / time.Second),
		Trace: cfg.trace, Rounds: len(walls), Env: environment(cfg.sz),
	}
	var values map[string]float64
	defs := spec.EndToEnd
	if cfg.trace {
		defs = spec.PerLayer
		values, err = tracedRound(w, median(walls), heapMB, cfg, log)
		if err != nil {
			return nil, err
		}
	} else {
		values, rec.Samples = w.e2e()
	}
	t := w.counts()
	rec.Problems, rec.FirstErrors = t.problems, t.firstErrs
	rec.result = result{
		Correct:   len(t.problems) == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   make(map[string]metric, len(values)),
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s: the run has no value for %s", cfg.spec, d.Name)
		}
		rec.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		return nil, fmt.Errorf("%s lists %d metrics, the run reports %d", cfg.spec, len(defs), len(values))
	}
	return rec, nil
}

// tracedRound runs one more round with spans, counters and runtime
// statistics attached, replays the workload's deploys stage by stage, and
// writes the trace. baseWall is the untraced rounds' median wall time.
func tracedRound(w bench, baseWall, heapMB float64, cfg config, log io.Writer) (map[string]float64, error) {
	td := newTraceData()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	wall, err := w.round(td)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, fmt.Errorf("traced round: %w", err)
	}
	for _, spec := range w.replaySpecs() {
		if _, err := td.replay(spec); err != nil {
			return nil, fmt.Errorf("replaying %s: %w", spec.req, err)
		}
	}
	manage, bad, err := checkReplays(td.specs, td.replayed)
	if err != nil {
		return nil, err
	}
	for _, b := range bad {
		w.counts().gate("%s", b)
	}
	stats := selfTimes(td.rec.spans)
	fmt.Fprintf(log, "\nself time by span (traced round and deploy replays)\n%s", renderSelfTimes(stats))
	path := filepath.Join(cfg.outDir, cfg.workload+".trace.json")
	if err := writeChromeTrace(path, td.rec.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "trace: %s (%d spans)\n", path, len(td.rec.spans))
	overhead := wall.Seconds()/baseWall - 1
	return layerMetrics(td, stats, manage, memBetween(&m0, &m1), heapMB, overhead), nil
}

func environment(sz sizes) env {
	e := env{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPU: "unknown", Revision: "unknown", Sizes: fmt.Sprintf("%+v", sz),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Revision = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			e.Revision += "+modified"
		}
	}
	return e
}

// splitmix is SplitMix64, the repository's seed-mixing idiom.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func main() {
	workloadName := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured time per run, in seconds")
	trace := flag.Int("trace", 0, "1 runs one extra traced round and reports the per-layer metrics")
	compare := flag.Bool("compare", false, "compare two result sets: -compare a.jsonl b.jsonl")
	outDir := flag.String("out", filepath.Join("bench", "out"), "directory for results.jsonl, traces and serve state")
	spec := flag.String("spec", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.jsonl b.jsonl")
			os.Exit(2)
		}
		outside, err := compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if outside > 0 {
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: --trace takes 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		workload: *workloadName, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, sz: fullSizes, outDir: *outDir, spec: *spec,
	}
	rec, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	printReport(os.Stdout, rec)
	if err := appendResult(filepath.Join(cfg.outDir, "results.jsonl"), rec); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rec.Correct {
		os.Exit(1)
	}
}

// printReport prints the human-readable summary.
func printReport(out io.Writer, rec *record) {
	fmt.Fprintf(out, "\n%s  seed %d  rounds %d  trace %v\n", rec.Workload, rec.Seed, rec.Rounds, rec.Trace)
	fmt.Fprintf(out, "env: %s GOMAXPROCS=%d nproc=%d cpu=%q rev=%s\n",
		rec.Env.GoVersion, rec.Env.GOMAXPROCS, rec.Env.NumCPU, rec.Env.CPU, rec.Env.Revision)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-28s %16s  %-7s %s\n", "metric", "value", "unit", "samples")
	for _, n := range names {
		m := rec.Metrics[n]
		samples := ""
		if k, ok := rec.Samples[n]; ok {
			samples = fmt.Sprint(k)
		}
		fmt.Fprintf(out, "%-28s %16.4f  %-7s %s\n", n, m.Value, m.Unit, samples)
	}
	fmt.Fprintf(out, "operations: %d attempted, %d failed\n", rec.Attempted, rec.Failed)
	for _, e := range rec.FirstErrors {
		fmt.Fprintf(out, "failed: %s\n", e)
	}
	for _, p := range rec.Problems {
		fmt.Fprintf(out, "GATE FAILED: %s\n", p)
	}
}

// appendResult appends one result line to the results file.
func appendResult(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(line, '\n'))
	return errors.Join(err, f.Close())
}
