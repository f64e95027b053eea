package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is BENCHMARK.json, the benchmark's definition: the workloads
// and every metric with its unit, direction and, end to end, the bound by
// which it may worsen. It is the one list of metric names: a run must
// report exactly the metrics it lists.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readSpec loads the benchmark definition.
func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// readRecords loads the untraced runs of a results.jsonl file and groups
// their end-to-end values by workload and metric.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = make(map[string][]float64)
		}
		for name, m := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// compareFiles prints, for every end-to-end metric and workload present
// in both result sets, the two medians, their ratio and whether the
// change stays within the metric's bound in either direction. It returns
// how many pairs fall outside.
func compareFiles(out io.Writer, specPath, pathA, pathB string) (int, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return 0, err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return 0, err
	}
	var workloads []string
	for w := range a {
		if b[w] != nil {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	fmt.Fprintf(out, "%-14s %-13s %5s %5s %14s %14s %8s %6s  %s\n",
		"workload", "metric", "n(a)", "n(b)", "median a", "median b", "b/a", "bound", "verdict")
	outside := 0
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[w][m.Name], b[w][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			r := ratio(mb, ma)
			verdict := "within"
			if change := r - 1; math.Abs(change) > m.Bound {
				outside++
				verdict = "OUTSIDE (worse)"
				if (change < 0) == (m.Better == "lower") {
					verdict = "OUTSIDE (better)"
				}
			}
			fmt.Fprintf(out, "%-14s %-13s %5d %5d %14.4f %14.4f %8.4f %6.2f  %s\n",
				w, m.Name, len(va), len(vb), ma, mb, r, m.Bound, verdict)
		}
	}
	return outside, nil
}
