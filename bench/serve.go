package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"turnstile/internal/corpus"
	"turnstile/internal/durable"
	"turnstile/internal/harness"
	"turnstile/internal/interp"
	"turnstile/internal/serve"
)

// serveBench is the serve-durable workload: the daemon hosting the
// harness fleet (corpus tenants plus generated-app tenants) durably on a
// FileStore, so every admission and commit is an appended, fsynced WAL
// record with periodic snapshots; then a fresh daemon restarts on the same
// store and recovers every tenant by replaying its WAL. Each corpus tenant
// also gets two twins on the same arrival trace, one hosting the app's
// original program and one its exhaustive version, which the overhead
// ratios compare against. A durable-layer change shows here and nowhere
// else.
//
// The daemon runs a worker per tenant, so all tenants progress together
// on the host's cores: a tenant and its twins see the same machine, and
// the wall time does not depend on which tenant a smaller worker pool
// happens to start last. Quotas are unbounded, so no arrival is denied,
// shed or abandoned.
type serveBench struct {
	tally
	sz       sizes
	seed     int64
	stateDir string
	apps     []*corpus.App // app of corpus tenant i and its twins
	version  []int         // per tenant
	// next is the fleet the first round runs, built by setup so the live
	// heap after set-up counts a deployed fleet
	next []serve.TenantConfig
	// per tenant, per arrival: minimum across rounds, µs
	processUS, commitUS [][]float64
	setupS, runS        []float64 // per round
}

func newServeBench(seed int64, sz sizes, outDir string) *serveBench {
	return &serveBench{sz: sz, seed: seed, stateDir: filepath.Join(outDir, "serve-state")}
}

// Tenant layout: the harness fleet's corpus tenants, its generated-app
// tenants, then an (original, exhaustive) twin pair per corpus tenant.
func (w *serveBench) origTwin(i int) int { return len(w.apps) + w.sz.genTenants + 2*i }
func (w *serveBench) exhTwin(i int) int  { return w.origTwin(i) + 1 }

func (w *serveBench) setup() error {
	if err := os.RemoveAll(w.stateDir); err != nil {
		return err
	}
	w.apps = runnableApps(w.sz.tenants)
	for range w.apps {
		w.version = append(w.version, vSel)
	}
	for g := 0; g < w.sz.genTenants; g++ {
		w.version = append(w.version, vExh)
	}
	for range w.apps {
		w.version = append(w.version, vOrig, vExh)
	}
	w.processUS = make([][]float64, len(w.version))
	w.commitUS = make([][]float64, len(w.version))
	var err error
	w.next, err = w.buildFleet()
	return err
}

// buildFleet deploys a fresh fleet (fleets are single-use: drivers are
// stateful).
func (w *serveBench) buildFleet() ([]serve.TenantConfig, error) {
	fleet, err := harness.BuildServeFleet(harness.ServeFleetOptions{
		Tenants: len(w.apps), Messages: w.sz.serveMsgs, Seed: w.seed,
		GenTenants: w.sz.genTenants, GenSeed: splitmix(uint64(w.seed)),
	})
	if err != nil {
		return nil, err
	}
	for i, app := range w.apps {
		base := fleet[i]
		if !strings.HasSuffix(base.Name, "-"+app.Name) {
			return nil, fmt.Errorf("tenant %s does not host %s", base.Name, app.Name)
		}
		ip, err := plainLoad(app)
		if err != nil {
			return nil, err
		}
		lim := serve.DefaultTenantLimits()
		exh, err := serve.NewAppDriver(serve.AppConfig{
			Name: base.Name + "-exh", Sources: map[string]string{app.Name + ".js": app.Source},
			PolicyJSON: app.PolicyJSON, SourceName: app.SourceName, Limits: &lim, Exhaustive: true,
		})
		if err != nil {
			return nil, err
		}
		fleet = append(fleet,
			serve.TenantConfig{Name: base.Name + "-orig", Arrivals: base.Arrivals, Driver: &plainDriver{ip: ip, source: app.SourceName}},
			serve.TenantConfig{Name: base.Name + "-exh", Arrivals: base.Arrivals, Driver: exh})
	}
	if len(fleet) != len(w.version) {
		return nil, fmt.Errorf("fleet has %d tenants, want %d", len(fleet), len(w.version))
	}
	for i := range fleet {
		fleet[i].Quota = serve.Quota{DrainBudget: -1}
	}
	return fleet, nil
}

// round runs the fleet durably to completion, then restarts a fresh
// daemon on the same store; the restart's report must be byte-identical
// to the uninterrupted run's. The restart is the round's set-up sample:
// the time until a restarted daemon has redeployed and recovered.
func (w *serveBench) round(td *traceData) (time.Duration, error) {
	rec := td.recorder()
	dir := w.stateDir
	fleet := w.next
	w.next = nil
	if fleet == nil {
		var err error
		if fleet, err = w.buildFleet(); err != nil {
			return 0, err
		}
	}
	clocks := make([]*tenantClock, len(fleet))
	byWAL := make(map[string]*tenantClock, len(fleet))
	var observed []func()
	for i := range fleet {
		c := newTenantClock(len(fleet[i].Arrivals))
		clocks[i] = c
		byWAL[serve.WALName(fleet[i].Name)] = c
		if td != nil {
			observed = append(observed, td.observe(w.version[i], tenantInterp(fleet[i].Driver), len(fleet[i].Arrivals)))
		}
		fleet[i].Driver = wrapDriver(fleet[i].Driver, c, rec, fleet[i].Name)
	}
	var st *serveTrace
	if td != nil {
		st = &td.serve
	}

	fs, err := durable.NewFileStore(dir)
	if err != nil {
		return 0, err
	}
	var rep *serve.Report
	wall := timeIt(func() {
		err = rec.do("serve.run", "", func() (err error) {
			rep, err = (&serve.Server{Tenants: fleet, Store: &timedStore{Store: fs, rec: rec, byWAL: byWAL, st: st}}).Run(len(fleet))
			return err
		})
	})
	if cerr := fs.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	for _, done := range observed {
		done()
	}
	w.account(rep)

	var rep2 *serve.Report
	restart := timeIt(func() {
		err = rec.do("serve.restart", "", func() error {
			fleet2, err := w.buildFleet()
			if err != nil {
				return err
			}
			fs2, err := durable.NewFileStore(dir)
			if err != nil {
				return err
			}
			rep2, err = (&serve.Server{Tenants: fleet2, Store: &timedStore{Store: fs2, rec: rec, st: st}}).Run(len(fleet))
			if cerr := fs2.Close(); err == nil {
				err = cerr
			}
			return err
		})
	})
	if err != nil {
		return 0, fmt.Errorf("restart: %w", err)
	}
	if rep2.Render() != rep.Render() {
		w.gate("the restarted daemon's report differs from the uninterrupted run's")
	}
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}

	if td != nil {
		s := &td.serve
		s.wall += wall
		for _, t := range rep.Tenants {
			s.processed += t.Processed
			s.refused += t.Denied + t.Shed + t.Abandoned
			td.ops += t.Processed
		}
		for i, c := range clocks {
			td.emitUS[w.version[i]] = append(td.emitUS[w.version[i]], c.processUS...)
			s.busy += time.Duration(sum(c.processUS) * float64(time.Microsecond))
			if w.version[i] != vOrig {
				s.processUS = append(s.processUS, c.processUS...)
			}
		}
		return wall, nil
	}
	w.setupS = append(w.setupS, restart.Seconds())
	w.runS = append(w.runS, wall.Seconds())
	for i, c := range clocks {
		w.processUS[i] = minInto(w.processUS[i], c.processUS)
		w.commitUS[i] = minInto(w.commitUS[i], c.commitUS)
	}
	return wall, nil
}

// account counts every arrival as attempted and every refused, dropped
// or failed one as failed.
func (w *serveBench) account(rep *serve.Report) {
	for _, t := range rep.Tenants {
		w.attempted += t.Admitted + t.Denied
		w.failed += t.Denied + t.Shed + t.Abandoned + t.Errors + t.Throws + t.Budget
		if t.Poisoned || t.Crashed {
			w.gate("tenant %s ended poisoned=%v crashed=%v %s", t.Name, t.Poisoned, t.Crashed, t.PoisonReason)
		}
	}
}

// replaySpecs are the corpus tenants' managed deploys, under the guard
// budget serve.NewAppDriver gives them.
func (w *serveBench) replaySpecs() []deploySpec {
	lim := serve.DefaultTenantLimits()
	return managedSpecs(w.apps, &lim)
}

func (w *serveBench) e2e() (map[string]float64, map[string]int) {
	var commits, ovSel, ovExh []float64
	// quotas are unbounded, so every arrival is processed
	processed := 0
	for i, v := range w.version {
		if v != vOrig {
			commits = append(commits, w.commitUS[i]...)
		}
		processed += len(w.processUS[i])
	}
	for i := range w.apps {
		orig := sum(w.processUS[w.origTwin(i)])
		ovSel = append(ovSel, sum(w.processUS[i])/orig)
		ovExh = append(ovExh, sum(w.processUS[w.exhTwin(i)])/orig)
	}
	return map[string]float64{
			"setup_s":      median(w.setupS),
			"p50_us":       pct(commits, 0.5),
			"p99_us":       pct(commits, 0.99),
			"ops_per_s":    float64(processed) / pct(w.runS, 0),
			"overhead_sel": geomean(ovSel),
			"overhead_exh": geomean(ovExh),
		}, map[string]int{
			"setup_s": len(w.setupS), "p50_us": len(commits), "p99_us": len(commits), "ops_per_s": len(w.runS),
			"overhead_sel": len(ovSel), "overhead_exh": len(ovExh),
		}
}

// plainDriver hosts an app's original, uninstrumented program: the
// daemon-side baseline of the overhead ratios.
type plainDriver struct {
	ip     *interp.Interp
	source string
}

func (d *plainDriver) Process(i int, payload string) serve.Outcome {
	before := d.ip.Steps()
	err := emit(d.ip, d.source, "data", payload)
	out := serve.Outcome{Kind: serve.OutcomeOK, Steps: d.ip.Steps() - before}
	if err != nil {
		out.Kind, out.Detail = serve.OutcomeError, err.Error()
	}
	return out
}

// Reload is never scheduled: the fleet has no policy reloads.
func (d *plainDriver) Reload(string) error { return nil }

func (d *plainDriver) Fingerprint() string { return sinkTrace(d.ip) }

// tenantInterp returns the interpreter behind a fleet driver.
func tenantInterp(d serve.Driver) *interp.Interp {
	if p, ok := d.(*plainDriver); ok {
		return p.ip
	}
	return d.(*serve.AppDriver).App().IP
}

// tenantClock times one tenant's messages from outside the daemon:
// Driver.Process, and from Process start to the return of the WAL sync
// that commits the message. Only the tenant's own worker touches it.
type tenantClock struct {
	processUS, commitUS []float64 // by arrival index
	pending             int       // arrival awaiting its commit sync, -1 none
	start               time.Time
}

func newTenantClock(n int) *tenantClock {
	return &tenantClock{processUS: make([]float64, n), commitUS: make([]float64, n), pending: -1}
}

// timedDriver times Process calls of the driver it wraps.
type timedDriver struct {
	serve.Driver
	clock *tenantClock
	rec   *recorder
	name  string
}

func (d *timedDriver) Process(i int, payload string) serve.Outcome {
	start := time.Now()
	out := d.Driver.Process(i, payload)
	end := time.Now()
	d.rec.leaf("serve.process", d.name, i, start, end)
	d.clock.processUS[i] = us(end.Sub(start))
	d.clock.pending, d.clock.start = i, start
	return out
}

// timedProber keeps the wrapped driver's StateProber extension visible,
// so the durable path still labels payloads and carries poison state.
type timedProber struct {
	*timedDriver
	serve.StateProber
}

func wrapDriver(d serve.Driver, c *tenantClock, rec *recorder, name string) serve.Driver {
	td := &timedDriver{Driver: d, clock: c, rec: rec, name: name}
	if p, ok := d.(serve.StateProber); ok {
		return &timedProber{td, p}
	}
	return td
}

// timedStore times the durable store's operations, which tenant workers
// call concurrently, and closes each tenant's pending commit when the WAL
// sync after its Process returns. byWAL is read-only during a run.
type timedStore struct {
	durable.Store
	rec   *recorder
	byWAL map[string]*tenantClock
	st    *serveTrace // nil when untraced
}

func (s *timedStore) Append(name string, data []byte) error {
	t := time.Now()
	err := s.Store.Append(name, data)
	s.record("durable.append", name, t, time.Now(), len(data))
	return err
}

func (s *timedStore) Sync(name string) error {
	t := time.Now()
	err := s.Store.Sync(name)
	end := time.Now()
	s.record("durable.sync", name, t, end, 0)
	if c := s.byWAL[name]; c != nil && c.pending >= 0 {
		c.commitUS[c.pending] = us(end.Sub(c.start))
		c.pending = -1
	}
	return err
}

func (s *timedStore) WriteFile(name string, data []byte) error {
	t := time.Now()
	err := s.Store.WriteFile(name, data)
	s.record("durable.snapshot", name, t, time.Now(), 0)
	return err
}

func (s *timedStore) ReadFile(name string) ([]byte, error) {
	t := time.Now()
	data, err := s.Store.ReadFile(name)
	s.record("durable.read", name, t, time.Now(), 0)
	return data, err
}

// record adds one store operation to the trace.
func (s *timedStore) record(op, name string, start, end time.Time, bytes int) {
	s.rec.leaf(op, name, -1, start, end)
	st := s.st
	if st == nil {
		return
	}
	d := end.Sub(start)
	st.mu.Lock()
	defer st.mu.Unlock()
	switch op {
	case "durable.append":
		st.appendUS = append(st.appendUS, us(d))
		st.bytes += int64(bytes)
	case "durable.sync":
		st.syncUS = append(st.syncUS, us(d))
	case "durable.snapshot":
		st.snapshot += d
	case "durable.read":
		st.read += d
	}
}
