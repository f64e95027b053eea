package main

import (
	"runtime"
	"sync"
	"time"

	"turnstile/internal/core"
	"turnstile/internal/harness"
	"turnstile/internal/interp"
	"turnstile/internal/telemetry"
)

// Application versions, as in the paper's §6.2: the original program,
// and the selectively and exhaustively instrumented ones.
const (
	vOrig = iota
	vSel
	vExh
	nVersions
)

var versionNames = [nVersions]string{"orig", "sel", "exh"}

// traceData is what a traced round records besides its spans.
type traceData struct {
	rec    *recorder
	counts layerCounts
	// mets holds one telemetry registry per version, attached to the
	// interpreters while they execute messages.
	mets       [nVersions]*telemetry.Metrics
	msgs       [nVersions]int64
	steps      [nVersions]int64
	emitUS     [nVersions][]float64 // per-message execute time, µs
	env        interp.EnvStats
	violations int
	ops        int // operations the traced round performed

	// specs are the deployments replayed stage by stage, with the
	// instrumented sources each replay produced.
	specs    []deploySpec
	replayed []map[string]string

	serve serveTrace
}

// serveTrace is the daemon and durable-store side of a traced round. The
// store fields are written by the daemon's tenant workers under mu.
type serveTrace struct {
	processUS  []float64 // Driver.Process of managed tenants
	busy, wall time.Duration
	processed  int
	refused    int

	mu               sync.Mutex
	appendUS, syncUS []float64
	bytes            int64
	snapshot, read   time.Duration
}

func newTraceData() *traceData {
	td := &traceData{rec: newRecorder()}
	for v := range td.mets {
		td.mets[v] = telemetry.NewMetrics()
	}
	return td
}

// recorder returns the span recorder, nil when td is (untraced rounds).
func (td *traceData) recorder() *recorder {
	if td == nil {
		return nil
	}
	return td.rec
}

// observe attaches version v's registry to ip before it executes msgs
// messages and returns the function that, called afterwards, folds ip's
// step, fast-path and violation deltas into td. A no-op when untraced.
func (td *traceData) observe(v int, ip *interp.Interp, msgs int) func() {
	if td == nil {
		return func() {}
	}
	ip.EnableTelemetry(td.mets[v], nil)
	steps, env, viol := ip.Steps(), ip.EnvStats(), violations(ip)
	return func() {
		e := ip.EnvStats()
		td.msgs[v] += int64(msgs)
		td.steps[v] += ip.Steps() - steps
		td.env.SlotReads += e.SlotReads - env.SlotReads
		td.env.DynReads += e.DynReads - env.DynReads
		td.env.ICHits += e.ICHits - env.ICHits
		td.env.ICMisses += e.ICMisses - env.ICMisses
		td.violations += violations(ip) - viol
	}
}

// replay deploys spec stage by stage and keeps its instrumented sources
// for the byte-equality check against core.Manage.
func (td *traceData) replay(spec deploySpec) (*core.ManagedApp, error) {
	app, err := replayManage(td.rec, spec, &td.counts)
	if err != nil {
		return nil, err
	}
	td.specs = append(td.specs, spec)
	td.replayed = append(td.replayed, app.Instrumented)
	return app, nil
}

func violations(ip *interp.Interp) int {
	if ip.Tracker == nil {
		return 0
	}
	return len(ip.Tracker.Violations())
}

// difOps sums the tracker-operation counters of one registry (the op set
// of the repository's overhead breakdown).
func difOps(m *telemetry.Metrics) int64 {
	var n int64
	for _, op := range harness.OpOrder {
		n += m.CounterValue("dift." + op)
	}
	return n
}

// memDelta is the Go runtime's allocation and collection over a round.
type memDelta struct {
	allocBytes uint64
	cycles     uint32
	pause      time.Duration
}

func memBetween(a, b *runtime.MemStats) memDelta {
	return memDelta{
		allocBytes: b.TotalAlloc - a.TotalAlloc,
		cycles:     b.NumGC - a.NumGC,
		pause:      time.Duration(b.PauseTotalNs - a.PauseTotalNs),
	}
}

// liveHeapMB collects garbage and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// layerMetrics turns a traced round into the per-layer metrics. manage is
// the summed core.Manage time of the replayed deploys; traceOverhead is
// the traced round's wall time against the untraced rounds' median. A
// layer the workload does not exercise reads 0.
func layerMetrics(td *traceData, stats []selfStat, manage time.Duration, mem memDelta, heapMB, traceOverhead float64) map[string]float64 {
	selfMS := func(name string) float64 { return ms(selfOf(stats, name)) }
	var stages time.Duration
	for _, name := range stageNames {
		stages += selfOf(stats, name)
	}
	c := &td.counts
	s := &td.serve
	hit := td.mets[vSel].CounterValue("policy.cache.hit") + td.mets[vExh].CounterValue("policy.cache.hit")
	miss := td.mets[vSel].CounterValue("policy.cache.miss") + td.mets[vExh].CounterValue("policy.cache.miss")
	perMsg := func(n int64, v int) float64 { return ratio(float64(n), float64(td.msgs[v])) }
	// pct reads 0 for no samples
	p50 := func(xs []float64) float64 { return pct(xs, 0.5) }
	p99 := func(xs []float64) float64 { return pct(xs, 0.99) }
	return map[string]float64{
		"parser.parse_ms":   selfMS("parser.parse"),
		"parser.reparse_ms": selfMS("parser.reparse"),
		"parser.nodes_in":   float64(c.nodesIn),
		"parser.nodes_out":  float64(c.nodesOut),

		"taint.analyze_ms": selfMS("taint.analyze"),
		"taint.paths":      float64(c.paths),

		"instrument.rewrite_ms": selfMS("instrument.rewrite"),
		"instrument.sites_sel":  float64(c.sitesSel),
		"instrument.sites_exh":  float64(c.sitesExh),
		"instrument.growth":     ratio(float64(c.nodesOut), float64(c.nodesIn)),

		"printer.print_ms": selfMS("printer.print"),
		"printer.bytes":    float64(c.printBytes),

		"resolve.resolve_ms":   selfMS("resolve.resolve"),
		"resolve.dynamic_frac": ratio(float64(c.dynamic), float64(c.resolved+c.dynamic)),

		"vm.compile_ms":     selfMS("vm.compile"),
		"vm.instrs":         float64(c.instrs),
		"vm.delegated_frac": ratio(float64(c.delegated), float64(c.instrs)),
		"vm.nocapture_frac": ratio(float64(c.noCapture), float64(c.chunks)),

		"policy.parse_ms":        selfMS("policy.parse"),
		"policy.reach_hit_ratio": ratio(float64(hit), float64(hit+miss)),

		"interp.init_ms":            selfMS("interp.init"),
		"interp.emit_orig_us":       p50(td.emitUS[vOrig]),
		"interp.emit_sel_us":        p50(td.emitUS[vSel]),
		"interp.emit_exh_us":        p50(td.emitUS[vExh]),
		"interp.steps_per_msg_orig": perMsg(td.steps[vOrig], vOrig),
		"interp.steps_per_msg_sel":  perMsg(td.steps[vSel], vSel),
		"interp.steps_per_msg_exh":  perMsg(td.steps[vExh], vExh),
		"interp.ic_hit_ratio":       ratio(float64(td.env.ICHits), float64(td.env.ICHits+td.env.ICMisses)),
		"interp.dyn_read_frac":      ratio(float64(td.env.DynReads), float64(td.env.DynReads+td.env.SlotReads)),

		"dift.ops_per_msg_sel": perMsg(difOps(td.mets[vSel]), vSel),
		"dift.ops_per_msg_exh": perMsg(difOps(td.mets[vExh]), vExh),
		"dift.violations":      float64(td.violations),

		"core.manage_ms":      ms(manage),
		"core.stage_coverage": ratio(float64(stages), float64(manage)),

		"serve.process_us_p50": p50(s.processUS),
		"serve.process_us_p99": p99(s.processUS),
		"serve.busy_frac":      ratio(float64(s.busy), float64(s.wall)*float64(runtime.GOMAXPROCS(0))),
		"serve.refused":        float64(s.refused),

		"durable.append_us_p50": p50(s.appendUS),
		"durable.append_us_p99": p99(s.appendUS),
		"durable.sync_us_p50":   p50(s.syncUS),
		"durable.sync_us_p99":   p99(s.syncUS),
		"durable.syncs_per_msg": ratio(float64(len(s.syncUS)), float64(s.processed)),
		"durable.bytes_per_msg": ratio(float64(s.bytes), float64(s.processed)),
		"durable.snapshot_ms":   ms(s.snapshot),
		"durable.read_ms":       ms(s.read),

		"gc.alloc_kb_per_op": ratio(float64(mem.allocBytes)/1024, float64(td.ops)),
		"gc.cycles":          float64(mem.cycles),
		"gc.pause_ms":        ms(mem.pause),
		"gc.heap_mb":         heapMB,

		"bench.trace_overhead_frac": traceOverhead,
	}
}
