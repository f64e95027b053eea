package harness

import (
	"encoding/json"
	"fmt"
	"strings"

	"turnstile/internal/corpus"
	"turnstile/internal/serve"
	"turnstile/internal/telemetry"
	"turnstile/internal/workload"
)

// This file is the serve-daemon battery: a hostile tenant built from the
// crash and attack corpora, fleet construction, the solo-vs-mixed
// isolation gate, and the soak benchmark behind BENCH_serve.json.

// hostileSteps is the synthetic service cost of one hostile message. Each
// hostile message re-deploys and detonates an entire adversarial
// application, so its cost dwarfs a single well-behaved Emit; a fixed
// constant keeps the hostile tenant's queue dynamics deterministic (the
// crash pipeline returns no ManagedApp on the failure paths, so measured
// steps are not available there).
const hostileSteps = 120_000

// HostileTenantName is the reserved name of the adversarial tenant.
const HostileTenantName = "tenant-hostile"

// HostileDriver is a serve.Driver that alternates the PR-4 crash corpus
// and the PR-6 attack corpus: message 2k detonates crash app k mod 12
// under fail-closed budgets, message 2k+1 runs attack app k mod 10 in
// exhaustive audit mode. Every message deploys a fresh universe, so the
// tenant keeps attacking at full strength for the whole soak. The driver
// is deterministic: outcomes depend only on the message index.
type HostileDriver struct {
	log strings.Builder
}

// NewHostileDriver returns a fresh hostile tenant driver.
func NewHostileDriver() *HostileDriver { return &HostileDriver{} }

// Process detonates one adversarial app and classifies the wreckage.
func (d *HostileDriver) Process(i int, payload string) serve.Outcome {
	out := serve.Outcome{Steps: hostileSteps}
	if i%2 == 0 {
		apps := CrashApps()
		ca := apps[(i/2)%len(apps)]
		res, err := crashOne(ca, CrashOptions{})
		if err != nil {
			out.Kind, out.Detail = serve.OutcomeError, firstLine(err.Error())
		} else {
			out.Kind, out.Detail = crashOutcomeKind(res.Kind), res.Detail
		}
		fmt.Fprintf(&d.log, "msg %d crash %s kind=%s\n", i, ca.Name, out.Kind)
		return out
	}
	apps := corpus.AttackApps()
	aa := apps[(i/2)%len(apps)]
	res := attackOne(aa, AttackOptions{})
	switch {
	case res.Err != "":
		out.Kind, out.Detail = serve.OutcomeError, res.Err
	case res.Caught > 0:
		out.Kind = serve.OutcomeViolation
		out.Detail = fmt.Sprintf("%d flow(s) flagged", res.Caught)
	default:
		out.Kind = serve.OutcomeOK
	}
	fmt.Fprintf(&d.log, "msg %d attack %s kind=%s caught=%d\n", i, aa.Name, out.Kind, res.Caught)
	return out
}

// crashOutcomeKind folds the crash taxonomy (fuel/depth/alloc/deadline,
// pipeline stages, violation, throw, runtime, none) onto serve's five
// outcome kinds.
func crashOutcomeKind(kind string) serve.OutcomeKind {
	switch kind {
	case "none":
		return serve.OutcomeOK
	case "violation":
		return serve.OutcomeViolation
	case "throw":
		return serve.OutcomeThrow
	case "runtime", "untyped":
		return serve.OutcomeError
	default: // budget kinds and pipeline stages: contained resource kills
		return serve.OutcomeBudget
	}
}

// Reload is accepted and ignored: the hostile tenant has no policy worth
// swapping, and a reload must never be a way to crash the daemon.
func (d *HostileDriver) Reload(policyJSON string) error { return nil }

// Fingerprint returns the deterministic detonation log.
func (d *HostileDriver) Fingerprint() string { return d.log.String() }

// ServeFleetOptions configures fleet construction for the battery and the
// soak.
type ServeFleetOptions struct {
	// Tenants is the number of well-behaved tenants (corpus apps,
	// round-robin).
	Tenants int
	// Messages is the arrival-trace length per tenant.
	Messages int
	// Seed drives every tenant's arrival trace (pure function of
	// (seed, tenant name)).
	Seed int64
	// Hostile prepends the adversarial tenant at index 0.
	Hostile bool
	// GenTenants appends tenants running seeded-generator apps (the
	// pump-driven strata, deployed in exhaustive audit mode) after the
	// demo tenants, so the soak exercises the generated flow families
	// under daemon quotas and guard epochs.
	GenTenants int
	// GenSeed is the generated-tenant corpus seed.
	GenSeed uint64
	// MaxGap is the maximum inter-arrival gap in ticks; 0 selects 60.
	MaxGap int64
	// Metrics, when non-nil, receives every tenant's drain-time counter
	// flush.
	Metrics *telemetry.Metrics
}

// BuildServeFleet constructs a fresh fleet: n well-behaved demo tenants,
// optionally with the hostile tenant prepended. Every call builds new
// driver universes, so fleets are single-use (a Driver is stateful).
func BuildServeFleet(opts ServeFleetOptions) ([]serve.TenantConfig, error) {
	if opts.MaxGap == 0 {
		opts.MaxGap = 60
	}
	tenants, err := serve.DemoFleet(opts.Tenants, opts.Messages, opts.Seed, serve.DefaultQuota(), opts.MaxGap)
	if err != nil {
		return nil, err
	}
	for i := range tenants {
		tenants[i].Metrics = opts.Metrics
	}
	if opts.GenTenants > 0 {
		gen, err := genServeTenants(opts)
		if err != nil {
			return nil, err
		}
		tenants = append(tenants, gen...)
	}
	if opts.Hostile {
		// the hostile tenant gets a deeper queue with a tighter lag bound:
		// admission lets its burst in, then shedding dead-letters the
		// laggards — so the soak exercises both pressure valves
		hostile := serve.TenantConfig{
			Name:     HostileTenantName,
			Quota:    serve.Quota{MaxQueue: 16, MaxLagTicks: 400, DrainBudget: 4},
			Arrivals: workload.GenerateTrace(opts.Seed, HostileTenantName, opts.Messages, opts.MaxGap),
			Driver:   NewHostileDriver(),
			Metrics:  opts.Metrics,
		}
		tenants = append([]serve.TenantConfig{hostile}, tenants...)
	}
	return tenants, nil
}

// genServeTenants builds the generated-app tenants: the seeded corpus is
// walked in order and every app with a pump-driven source becomes one
// tenant (load-time-only strata have no per-message work for a daemon to
// drive). Each tenant deploys its full multi-file app in exhaustive audit
// mode under the default guard budget, and arrivals follow the same
// (seed, name)-keyed traces as the demo fleet.
func genServeTenants(opts ServeFleetOptions) ([]serve.TenantConfig, error) {
	var tenants []serve.TenantConfig
	// pump-driven strata are a fixed fraction of the taxonomy, so a few
	// over-generation rounds always cover the requested tenant count
	for n := 4 * opts.GenTenants; len(tenants) < opts.GenTenants; n *= 2 {
		apps, err := corpus.GenCorpus(n, opts.GenSeed)
		if err != nil {
			return nil, err
		}
		tenants = tenants[:0]
		for _, app := range apps {
			if len(app.Sources) == 0 {
				continue
			}
			if len(tenants) == opts.GenTenants {
				break
			}
			name := fmt.Sprintf("tenant-gen-%02d-%s", len(tenants), app.Stratum)
			lim := serve.DefaultTenantLimits()
			driver, err := serve.NewAppDriver(serve.AppConfig{
				Name:       name,
				Sources:    app.Files,
				PolicyJSON: app.Policy,
				SourceName: app.Sources[0],
				Event:      app.Event,
				Limits:     &lim,
				Exhaustive: true,
			})
			if err != nil {
				return nil, err
			}
			tenants = append(tenants, serve.TenantConfig{
				Name:     name,
				Quota:    serve.DefaultQuota(),
				Arrivals: workload.GenerateTrace(opts.Seed, name, opts.Messages, opts.MaxGap),
				Driver:   driver,
				Metrics:  opts.Metrics,
			})
		}
	}
	return tenants, nil
}

// ServeIsolationOptions configures the isolation battery.
type ServeIsolationOptions struct {
	Tenants  int
	Messages int
	Seed     int64
}

// ServeIsolationTenant is one well-behaved tenant's verdict: whether its
// complete observable account — fingerprint, every counter, the clock,
// the latency percentiles — was byte-identical between its solo run and
// its runs inside the hostile fleet at worker counts 1 and 8.
type ServeIsolationTenant struct {
	Name  string
	Match bool
	Diffs []string
}

// ServeIsolationResult aggregates the battery.
type ServeIsolationResult struct {
	Tenants []ServeIsolationTenant
	Passed  int
	// HostileDeterministic reports whether the hostile tenant itself
	// replayed byte-identically across worker counts.
	HostileDeterministic bool
}

// RunServeIsolation proves hostile-tenant isolation the strong way: each
// well-behaved tenant is run solo (alone on the daemon), then the full
// fleet with the hostile tenant at index 0 is run at parallel 1 and
// parallel 8, and every tenant's account must be byte-identical across
// all three runs. Any cross-tenant interference — latency contamination,
// mailbox starvation, breaker trips, tracker poisoning — would perturb a
// counter, the fingerprint, or a percentile and fail the comparison.
func RunServeIsolation(opts ServeIsolationOptions) (*ServeIsolationResult, error) {
	mixed1, err := runServeFleet(opts, 1)
	if err != nil {
		return nil, err
	}
	mixed8, err := runServeFleet(opts, 8)
	if err != nil {
		return nil, err
	}
	res := &ServeIsolationResult{
		HostileDeterministic: tenantAccount(mixed1.Tenants[0]) == tenantAccount(mixed8.Tenants[0]),
	}
	// mixed reports: hostile at 0, well-behaved tenants at 1..n
	for i := 1; i < len(mixed1.Tenants); i++ {
		solo, err := runServeSolo(opts, i-1)
		if err != nil {
			return nil, err
		}
		t := ServeIsolationTenant{Name: solo.Name, Match: true}
		for _, cmp := range []struct {
			run string
			rep *serve.TenantReport
		}{{"mixed@1", mixed1.Tenants[i]}, {"mixed@8", mixed8.Tenants[i]}} {
			if got, want := tenantAccount(cmp.rep), tenantAccount(solo); got != want {
				t.Match = false
				t.Diffs = append(t.Diffs, fmt.Sprintf("%s diverged from solo:\n--- solo ---\n%s--- %s ---\n%s", cmp.run, want, cmp.run, got))
			}
		}
		if t.Match {
			res.Passed++
		}
		res.Tenants = append(res.Tenants, t)
	}
	return res, nil
}

// runServeFleet builds and runs the full hostile fleet at one worker count.
func runServeFleet(opts ServeIsolationOptions, parallel int) (*serve.Report, error) {
	fleet, err := BuildServeFleet(ServeFleetOptions{
		Tenants: opts.Tenants, Messages: opts.Messages, Seed: opts.Seed, Hostile: true,
	})
	if err != nil {
		return nil, err
	}
	return (&serve.Server{Tenants: fleet}).Run(parallel)
}

// runServeSolo runs well-behaved tenant i alone on a fresh daemon.
func runServeSolo(opts ServeIsolationOptions, i int) (*serve.TenantReport, error) {
	fleet, err := BuildServeFleet(ServeFleetOptions{
		Tenants: opts.Tenants, Messages: opts.Messages, Seed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	return serve.RunTenant(fleet[i])
}

// tenantAccount renders a tenant's complete observable account as one
// comparable string: every counter, the clock, the latency percentiles,
// the DLQ, and the driver fingerprint.
func tenantAccount(r *serve.TenantReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "admitted=%d processed=%d denied=%d shed=%d drained=%d abandoned=%d reloads=%d\n",
		r.Admitted, r.Processed, r.Denied, r.Shed, r.Drained, r.Abandoned, r.Reloads)
	fmt.Fprintf(&b, "ok=%d viol=%d budget=%d throw=%d err=%d\n",
		r.OK, r.Violations, r.Budget, r.Throws, r.Errors)
	fmt.Fprintf(&b, "clock=%d p50=%d p99=%d\n", r.ClockEnd, r.LatencyP(0.50), r.LatencyP(0.99))
	for _, d := range r.DLQ {
		fmt.Fprintf(&b, "dlq idx=%d arrival=%d reason=%s payload=%s\n", d.Idx, d.Arrival, d.Reason, d.Payload)
	}
	b.WriteString(r.Fingerprint)
	return b.String()
}

// RenderServeIsolation formats the battery verdict; deterministic.
func RenderServeIsolation(res *ServeIsolationResult) string {
	var b strings.Builder
	b.WriteString("serve isolation battery (solo vs hostile fleet @ parallel 1 and 8)\n")
	for _, t := range res.Tenants {
		verdict := "identical"
		if !t.Match {
			verdict = "DIVERGED"
		}
		fmt.Fprintf(&b, "  %-28s %s\n", t.Name, verdict)
		for _, d := range t.Diffs {
			fmt.Fprintf(&b, "    %s\n", strings.ReplaceAll(d, "\n", "\n    "))
		}
	}
	hostile := "deterministic across worker counts"
	if !res.HostileDeterministic {
		hostile = "NONDETERMINISTIC across worker counts"
	}
	fmt.Fprintf(&b, "  %-28s %s\n", HostileTenantName, hostile)
	fmt.Fprintf(&b, "verdict: %d/%d tenant(s) isolated\n", res.Passed, len(res.Tenants))
	return b.String()
}

// ServeSoakOptions configures the soak benchmark.
type ServeSoakOptions struct {
	Tenants  int
	Messages int
	Seed     int64
	Hostile  bool
	// GenTenants appends seeded-generator tenants (see ServeFleetOptions).
	GenTenants int
	GenSeed    uint64
	Parallel   int
}

// ServeSoakTenant is one tenant's soak row (the JSON artifact schema).
type ServeSoakTenant struct {
	Name       string  `json:"name"`
	Admitted   int     `json:"admitted"`
	Processed  int     `json:"processed"`
	Denied     int     `json:"denied"`
	Shed       int     `json:"shed"`
	Drained    int     `json:"drained"`
	Abandoned  int     `json:"abandoned"`
	Reloads    int     `json:"reloads"`
	OK         int     `json:"ok"`
	Violations int     `json:"violations"`
	Budget     int     `json:"budget"`
	Throws     int     `json:"throws"`
	Errors     int     `json:"errors"`
	P50Ticks   int64   `json:"p50_ticks"`
	P99Ticks   int64   `json:"p99_ticks"`
	ClockEnd   int64   `json:"clock_end_ticks"`
	MsgPerSec  float64 `json:"msg_per_sec"`
}

// ServeSoakResult is the soak summary: configuration, per-tenant rows and
// fleet totals. Everything is counted on the virtual clock, so the JSON
// is byte-identical for a fixed seed at any worker count.
type ServeSoakResult struct {
	Seed       int64             `json:"seed"`
	Tenants    int               `json:"tenants"`
	Messages   int               `json:"messages_per_tenant"`
	Hostile    bool              `json:"hostile_tenant"`
	GenTenants int               `json:"gen_tenants,omitempty"`
	GenSeed    uint64            `json:"gen_seed,omitempty"`
	Rows       []ServeSoakTenant `json:"per_tenant"`
	Processed  int               `json:"total_processed"`
	Denied     int               `json:"total_denied"`
	Shed       int               `json:"total_shed"`
	Violation  int               `json:"total_violations"`
	MsgPerSec  float64           `json:"sustained_msg_per_sec"`

	report *serve.Report
}

// RunServeSoak drives the fleet to completion and summarizes it.
func RunServeSoak(opts ServeSoakOptions) (*ServeSoakResult, error) {
	fleet, err := BuildServeFleet(ServeFleetOptions{
		Tenants: opts.Tenants, Messages: opts.Messages, Seed: opts.Seed, Hostile: opts.Hostile,
		GenTenants: opts.GenTenants, GenSeed: opts.GenSeed,
	})
	if err != nil {
		return nil, err
	}
	rep, err := (&serve.Server{Tenants: fleet}).Run(opts.Parallel)
	if err != nil {
		return nil, err
	}
	res := &ServeSoakResult{
		Seed: opts.Seed, Tenants: opts.Tenants, Messages: opts.Messages, Hostile: opts.Hostile,
		GenTenants: opts.GenTenants, GenSeed: opts.GenSeed,
		report: rep,
	}
	var longest int64
	for _, t := range rep.Tenants {
		res.Rows = append(res.Rows, ServeSoakTenant{
			Name: t.Name, Admitted: t.Admitted, Processed: t.Processed, Denied: t.Denied,
			Shed: t.Shed, Drained: t.Drained, Abandoned: t.Abandoned, Reloads: t.Reloads,
			OK: t.OK, Violations: t.Violations, Budget: t.Budget, Throws: t.Throws, Errors: t.Errors,
			P50Ticks: t.LatencyP(0.50), P99Ticks: t.LatencyP(0.99), ClockEnd: t.ClockEnd,
			MsgPerSec: t.Throughput(),
		})
		res.Processed += t.Processed
		res.Denied += t.Denied
		res.Shed += t.Shed
		res.Violation += t.Violations
		if t.ClockEnd > longest {
			longest = t.ClockEnd
		}
	}
	if longest > 0 {
		res.MsgPerSec = float64(res.Processed) * 1000 / float64(longest)
	}
	return res, nil
}

// RenderServeSoak formats the soak report: the daemon's tenant table plus
// fleet totals. Deterministic for a fixed seed at any worker count.
func RenderServeSoak(res *ServeSoakResult) string {
	var b strings.Builder
	b.WriteString(res.report.Render())
	fmt.Fprintf(&b, "fleet: processed=%d denied=%d shed=%d violations=%d sustained=%.1f msg/s\n",
		res.Processed, res.Denied, res.Shed, res.Violation, res.MsgPerSec)
	return b.String()
}

// ExportServeSoakJSON serializes the soak summary (the BENCH_serve.json
// artifact).
func ExportServeSoakJSON(res *ServeSoakResult) ([]byte, error) {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
