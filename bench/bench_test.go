package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestEstimators(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := pct(xs, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := pct(xs, 1); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if xs[0] != 5 {
		t.Error("pct sorted its input in place")
	}
	if got := pct(nil, 0.99); got != 0 {
		t.Errorf("pct of no samples = %v, want 0", got)
	}
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %v, want 4", got)
	}
	acc := minInto(nil, []float64{3, 1, 2})
	acc = minInto(acc, []float64{2, 5, 2})
	acc = minInto(acc, []float64{4, 0.5, 3})
	if want := []float64{2, 0.5, 2}; !equalFloats(acc, want) {
		t.Errorf("minInto = %v, want %v", acc, want)
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "root", Start: 0, End: 10 * ms, Parent: -1},
		{Name: "a", Start: 1 * ms, End: 3 * ms, Parent: 0},
		{Name: "b", Start: 2 * ms, End: 5 * ms, Parent: 0},  // overlaps a: union 1..5
		{Name: "b", Start: 8 * ms, End: 12 * ms, Parent: 0}, // clipped to the parent's 8..10
		{Name: "c", Start: 3 * ms, End: 4 * ms, Parent: 2},  // grandchild under the first b
		{Name: "other", Start: 20 * ms, End: 21 * ms, Parent: -1},
	}
	got := map[string]selfStat{}
	for _, st := range selfTimes(spans) {
		got[st.Name] = st
	}
	want := map[string]selfStat{
		"root":  {Name: "root", Count: 1, Total: 10 * ms, Self: 4 * ms},
		"a":     {Name: "a", Count: 1, Total: 2 * ms, Self: 2 * ms},
		"b":     {Name: "b", Count: 2, Total: 7 * ms, Self: 6 * ms},
		"c":     {Name: "c", Count: 1, Total: 1 * ms, Self: 1 * ms},
		"other": {Name: "other", Count: 1, Total: 1 * ms, Self: 1 * ms},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d span names, want %d: %v", len(got), len(want), got)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
	if rec := (*recorder)(nil); rec.begin("x", "", -1) != -1 {
		t.Error("a nil recorder must be a no-op")
	}
}

const specPath = "../BENCHMARK.json"

func readDefinition(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestDefinitionNames(t *testing.T) {
	d := readDefinition(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+ (max 64, starting alphanumeric)", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range d.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, m := range d.EndToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range d.PerLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
	}
}

// TestWorkloadsMatchCode holds BENCHMARK.json's workloads to the ones the
// benchmark runs; every run checks its metrics against the file itself.
func TestWorkloadsMatchCode(t *testing.T) {
	var workloads []string
	for _, w := range readDefinition(t).Workloads {
		workloads = append(workloads, w.Name)
	}
	if !equalStrings(workloads, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", workloads, workloadNames)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCompareFlagsOutOfBound(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 []float64, setup float64) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		for _, v := range p50 {
			rec := record{Workload: "stream-corpus", result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{
				"p50_us":  {Value: v, Unit: "us"},
				"setup_s": {Value: setup, Unit: "s"},
			}}}
			line, _ := json.Marshal(rec)
			f.Write(append(line, '\n'))
		}
		// a traced run's values are not end-to-end samples
		line, _ := json.Marshal(record{Workload: "stream-corpus", Trace: true, result: result{Metrics: map[string]metric{"p50_us": {Value: 1e9}}}})
		f.Write(append(line, '\n'))
		return path
	}
	a := write("a.jsonl", []float64{100, 101, 99}, 1.0)
	b := write("b.jsonl", []float64{150, 151, 149}, 1.01)
	outside, err := compareFiles(io.Discard, specPath, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if outside != 1 {
		t.Errorf("outside = %d, want 1 (p50_us moved 50%%, setup_s 1%%)", outside)
	}
	if outside, err = compareFiles(io.Discard, specPath, a, a); err != nil || outside != 0 {
		t.Errorf("a set against itself: outside = %d, err = %v", outside, err)
	}
}

// tinySizes keeps every workload's smoke run well under a second of work.
var tinySizes = sizes{
	apps: 2, setups: 2, minRounds: 2,
	warmup: 2, msgs: 5,
	gen: 14, pump: 2,
	tenants: 2, genTenants: 1, serveMsgs: 4,
}

// TestSmokeWorkloads runs every workload untraced and traced at tiny
// sizes: the gates must pass, no operation may fail, and each run must
// report exactly the metrics BENCHMARK.json lists (run checks that), the
// end-to-end ones positive.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			out := t.TempDir()
			rec, err := run(config{workload: w, seed: 7, trace: traced, sz: tinySizes, outDir: out, spec: specPath}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v errors=%v",
					w, traced, rec.Correct, rec.Attempted, rec.Failed, rec.Problems, rec.FirstErrors)
			}
			if traced {
				data, err := os.ReadFile(filepath.Join(out, w+".trace.json"))
				var trace struct {
					TraceEvents []chromeEvent `json:"traceEvents"`
				}
				if err == nil {
					err = json.Unmarshal(data, &trace)
				}
				if err != nil || len(trace.TraceEvents) == 0 {
					t.Errorf("%s: trace file unreadable or empty: %v", w, err)
				}
				continue
			}
			for n, m := range rec.Metrics {
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v, want a positive number", w, n, m.Value)
				}
			}
		}
	}
}
