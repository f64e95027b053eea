package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"turnstile/internal/corpus"
	"turnstile/internal/harness"
	"turnstile/internal/interp"
)

// streamBench is the stream-corpus workload: every runnable corpus app's
// original, selective and exhaustive versions (the paper's E2 subjects)
// are deployed once, then fed the same message stream round after round.
// The execute layers do all the timed work; the original version runs no
// tracker, so a tracker-only change moves the overhead ratios while the
// original's latency stays put.
type streamBench struct {
	tally
	sz     sizes
	offset int // first message index, from the seed
	apps   []*corpus.App
	preps  []*harness.PreparedApp
	setupS []float64
	// minUS[app][version][msg] is the per-message minimum across rounds.
	minUS [][nVersions][]float64
}

func newStreamBench(seed int64, sz sizes) *streamBench {
	return &streamBench{sz: sz, offset: int(splitmix(uint64(seed)) % 1000)}
}

// setup prepares every app's three versions, several times, keeping the
// last set for the rounds.
func (w *streamBench) setup() error {
	w.apps = runnableApps(w.sz.apps)
	for k := 0; k < w.sz.setups; k++ {
		preps := make([]*harness.PreparedApp, len(w.apps))
		runtime.GC()
		t := time.Now()
		for i, app := range w.apps {
			p, err := harness.PrepareApp(app)
			if err != nil {
				return fmt.Errorf("preparing %s: %w", app.Name, err)
			}
			preps[i] = p
		}
		w.setupS = append(w.setupS, time.Since(t).Seconds())
		w.preps = preps
	}
	w.minUS = make([][nVersions][]float64, len(w.apps))
	return nil
}

// round streams warm-up plus timed messages through each app's versions,
// interleaved per app so drift hits all three alike, and requires the
// instrumented versions' sink traces to equal the original's.
func (w *streamBench) round(td *traceData) (time.Duration, error) {
	rec := td.recorder()
	var wall time.Duration
	n := w.sz.warmup + w.sz.msgs
	// a clean heap keeps the previous round's garbage off this round's
	// timings; the collection itself is not timed
	runtime.GC()
	for j, p := range w.preps {
		runners := [nVersions]*harness.Runner{p.Original, p.Selective, p.Exhaustive}
		var traces [nVersions]string
		t0 := time.Now()
		for v, r := range runners {
			done := td.observe(v, r.IP, n)
			req := p.App.Name + "/" + versionNames[v]
			samples := make([]float64, w.sz.msgs)
			for k := 0; k < n; k++ {
				id := rec.begin("interp.emit", req, w.offset+k)
				t := time.Now()
				err := r.Process(w.offset + k)
				d := time.Since(t)
				rec.end(id)
				w.op(err)
				if k >= w.sz.warmup {
					samples[k-w.sz.warmup] = us(d)
				}
			}
			done()
			if td != nil {
				td.emitUS[v] = append(td.emitUS[v], samples...)
				td.ops += n
			} else {
				w.minUS[j][v] = minInto(w.minUS[j][v], samples)
			}
			traces[v] = sinkTrace(r.IP)
		}
		wall += time.Since(t0)
		for v := vSel; v < nVersions; v++ {
			if traces[v] != traces[vOrig] {
				w.gate("%s: %s sink trace differs from the original's", p.App.Name, versionNames[v])
			}
		}
		// the gate has read the traces; dropping them keeps the heap from
		// growing with run length
		for _, r := range runners {
			r.IP.IO.Reset()
		}
	}
	return wall, nil
}

// replaySpecs are the apps' managed deploys, in the audit posture the
// prepared versions run under.
func (w *streamBench) replaySpecs() []deploySpec { return managedSpecs(w.apps, nil) }

func (w *streamBench) e2e() (map[string]float64, map[string]int) {
	var sel []float64
	var ovSel, ovExh []float64
	for _, m := range w.minUS {
		sel = append(sel, m[vSel]...)
		ovSel = append(ovSel, sum(m[vSel])/sum(m[vOrig]))
		ovExh = append(ovExh, sum(m[vExh])/sum(m[vOrig]))
	}
	return map[string]float64{
			"setup_s":      median(w.setupS),
			"p50_us":       pct(sel, 0.5),
			"p99_us":       pct(sel, 0.99),
			"ops_per_s":    float64(len(sel)) / (sum(sel) / 1e6),
			"overhead_sel": geomean(ovSel),
			"overhead_exh": geomean(ovExh),
		}, map[string]int{
			"setup_s": len(w.setupS), "p50_us": len(sel), "p99_us": len(sel), "ops_per_s": len(sel),
			"overhead_sel": len(ovSel), "overhead_exh": len(ovExh),
		}
}

// sinkTrace renders an interpreter's sink writes the way the chaos
// harness compares versions.
func sinkTrace(ip *interp.Interp) string {
	var b strings.Builder
	for _, w := range ip.IO.Writes {
		fmt.Fprintf(&b, "%s.%s %s %v\n", w.Module, w.Op, w.Target, w.Value)
	}
	return b.String()
}

// runnableApps returns the runnable corpus apps, the first n when n > 0.
func runnableApps(n int) []*corpus.App {
	apps := corpus.Runnable(corpus.All())
	if n > 0 && n < len(apps) {
		apps = apps[:n]
	}
	return apps
}
