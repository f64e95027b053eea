package dift

import (
	"os"
	"testing"

	"turnstile/internal/policy"
	"turnstile/internal/telemetry"
)

// BenchmarkDIFTOps measures a representative tracker op mix — Derive,
// Track, Check and InvokeCheck over labelled values on an allowed flow —
// in three variants:
//
//	reference  a test-local copy of the hot path with no telemetry fields
//	           at all (the tracker as it was before the telemetry layer)
//	disabled   the real tracker with telemetry detached (t.tel == nil)
//	enabled    the real tracker with a metrics registry attached
//
// The disabled/reference pair is the regression gate: the telemetry-off
// path must cost no more than one predictable nil-check branch per op.
// scripts/verify.sh runs TestDisabledOverheadGate (below) to hold that
// line.

// disabledOverheadThreshold is the documented noise threshold for the
// gate: min-of-5 disabled ns/op must stay within 40% of min-of-5
// reference ns/op. The true branch cost is low single-digit percent; the
// margin absorbs scheduler and allocator noise on shared machines.
const disabledOverheadThreshold = 1.40

func benchPolicy(tb testing.TB) *policy.Policy {
	tb.Helper()
	r, err := policy.ParseRule("employee -> customer")
	if err != nil {
		tb.Fatal(err)
	}
	p, err := policy.New(nil, []policy.Rule{r}, nil, policy.FlowComparable)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// benchFixture is the shared workload shape: data labelled employee, a
// receiver labelled customer (the flow is allowed, so no violations
// accumulate across iterations), and a scratch object for Derive.
func benchFixture(tb testing.TB, tr *Tracker) (data, recv, tmp *tObj) {
	tb.Helper()
	data, recv, tmp = newObj(), newObj(), newObj()
	if _, err := tr.Label(data, constLabeller("employee")); err != nil {
		tb.Fatal(err)
	}
	if _, err := tr.Label(recv, constLabeller("customer")); err != nil {
		tb.Fatal(err)
	}
	return data, recv, tmp
}

func runOpMix(tr *Tracker, data, recv, tmp *tObj) {
	tr.Derive(tmp, data)
	tr.Track(42)
	_ = tr.Check(data, recv, "bench")
	_ = tr.InvokeCheck(recv, []any{data}, "bench")
}

func benchDisabled(b *testing.B) {
	tr := NewTracker(benchPolicy(b), tAdapter{})
	data, recv, tmp := benchFixture(b, tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOpMix(tr, data, recv, tmp)
	}
}

func benchEnabled(b *testing.B) {
	tr := NewTracker(benchPolicy(b), tAdapter{})
	tr.EnableTelemetry(telemetry.NewMetrics(), nil)
	data, recv, tmp := benchFixture(b, tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOpMix(tr, data, recv, tmp)
	}
}

func benchReference(b *testing.B) {
	tr := NewTracker(benchPolicy(b), tAdapter{})
	data, recv, tmp := benchFixture(b, tr)
	ref := newRefTracker(tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref.runOpMix(data, recv, tmp)
	}
}

func BenchmarkDIFTOps(b *testing.B) {
	b.Run("reference", benchReference)
	b.Run("disabled", benchDisabled)
	b.Run("enabled", benchEnabled)
}

// TestDisabledOverheadGate is the verify.sh regression gate on the
// telemetry-disabled path. It is opt-in (TURNSTILE_BENCH_GATE=1) because
// it costs ~10s of benchmarking and wall-clock comparisons do not belong
// in the default -race test sweep.
func TestDisabledOverheadGate(t *testing.T) {
	if os.Getenv("TURNSTILE_BENCH_GATE") == "" {
		t.Skip("set TURNSTILE_BENCH_GATE=1 to run the disabled-path overhead gate")
	}
	minOf := func(f func(b *testing.B)) float64 {
		best := 0.0
		for i := 0; i < 5; i++ {
			r := testing.Benchmark(f)
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			if best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	ref := minOf(benchReference)
	dis := minOf(benchDisabled)
	ratio := dis / ref
	t.Logf("reference %.1f ns/op, disabled %.1f ns/op, ratio %.3f (threshold %.2f)",
		ref, dis, ratio, disabledOverheadThreshold)
	if ratio > disabledOverheadThreshold {
		t.Errorf("telemetry-disabled op mix is %.2fx the pre-telemetry reference (threshold %.2fx): "+
			"the disabled path must stay a single nil-check per op", ratio, disabledOverheadThreshold)
	}
}

// --- refTracker: the pre-telemetry hot path, verbatim minus t.tel ----------

// refTracker replays the tracker's Derive/Track/Check/InvokeCheck logic
// (owned-accumulator collection included) with no telemetry fields in the
// struct at all. It exists only as the benchmark baseline; keep it in
// lockstep with the real methods when the hot path changes.
type refTracker struct {
	pol     *policy.Policy
	adapter ValueAdapter
	stats   Stats
}

// newRefTracker shares the real tracker's policy and adapter; labels live
// on the values, so both variants operate on identically-labelled values.
func newRefTracker(t *Tracker) *refTracker {
	return &refTracker{pol: t.Policy, adapter: t.Adapter}
}

func (r *refTracker) runOpMix(data, recv, tmp *tObj) {
	r.derive(tmp, data)
	r.track(42)
	_ = r.check(data, recv, "bench")
	_ = r.invokeCheck(recv, []any{data}, "bench")
}

func (r *refTracker) labelsOf(v any) policy.LabelSet {
	if ref, ok := v.(Ref); ok {
		return ref.labelSlot().get(confidentiality)
	}
	return nil
}

// attachOwned mirrors Tracker.attachOwned: ls is fresh and stored as is.
func (r *refTracker) attachOwned(v any, ls policy.LabelSet) any {
	if ref, ok := v.(Ref); ok {
		rec := ref.labelSlot().record()
		for l := range rec.sets[confidentiality] {
			ls[l] = struct{}{}
		}
		rec.sets[confidentiality] = ls
		return v
	}
	if !r.adapter.IsReference(v) {
		r.stats.Boxed++
		b := &labelledBox{Box: Box{Val: v}}
		b.rec = &b.own
		b.own.sets[confidentiality] = ls
		return &b.Box
	}
	return v
}

func (r *refTracker) derive(result any, sources ...any) any {
	r.stats.Derived++
	c := refCollector{r: r}
	for _, s := range sources {
		c.join(r.labelsOf(s))
	}
	if c.acc.Empty() {
		return result
	}
	return r.attachOwned(result, c.acc)
}

func (r *refTracker) track(v any) any {
	if _, ok := v.(Ref); ok {
		return v
	}
	if r.adapter.IsReference(v) {
		return v
	}
	r.stats.Boxed++
	return &Box{Val: v}
}

func (r *refTracker) plain(v any) bool {
	if _, isRef := v.(Ref); isRef {
		return false
	}
	return !r.adapter.IsReference(v)
}

func (r *refTracker) dataLabels(v any) policy.LabelSet {
	if b, ok := v.(*Box); ok && r.plain(b.Val) {
		return b.get(confidentiality)
	}
	if r.plain(v) {
		return nil
	}
	c := refCollector{r: r}
	c.walk(v, 0)
	return c.acc
}

// refCollector mirrors collector on the flat confidentiality walk.
type refCollector struct {
	r    *refTracker
	acc  policy.LabelSet
	seen map[*Labels]struct{}
}

func (c *refCollector) join(ls policy.LabelSet) {
	if len(ls) == 0 {
		return
	}
	if c.acc == nil {
		c.acc = make(policy.LabelSet, len(ls))
	}
	for l := range ls {
		c.acc[l] = struct{}{}
	}
}

func (c *refCollector) root(v any) {
	clear(c.seen)
	c.walk(v, 0)
}

func (c *refCollector) walk(v any, depth int) {
	r := c.r
	if depth > maxCollectDepth {
		if _, isRef := v.(Ref); !isRef {
			if _, isArr := r.adapter.Elements(v); !isArr {
				return
			}
		}
		c.join(topSet)
		return
	}
	b, isBox := v.(*Box)
	if isBox && r.plain(b.Val) {
		c.join(b.get(confidentiality))
		return
	}
	elems, isArr := r.adapter.Elements(v)
	if ref, ok := v.(Ref); ok {
		l := ref.labelSlot()
		if isArr || isBox {
			if _, dup := c.seen[l]; dup {
				return
			}
			if c.seen == nil {
				c.seen = make(map[*Labels]struct{})
			}
			c.seen[l] = struct{}{}
		}
		c.join(l.get(confidentiality))
	}
	if isArr {
		for _, el := range elems {
			c.walk(el, depth+1)
		}
		return
	}
	if isBox {
		c.walk(b.Val, depth+1)
	}
}

func (r *refTracker) receiverLabels(recv any, args []any) policy.LabelSet {
	ref, ok := recv.(Ref)
	if !ok {
		return nil
	}
	rec := ref.labelSlot().rec
	if rec == nil {
		return nil
	}
	ls := rec.sets[confidentiality]
	if rec.invoke != nil {
		raw := make([]any, len(args))
		for i, a := range args {
			raw[i] = Unwrap(a)
		}
		if dyn, err := rec.invoke(Unwrap(recv), raw); err == nil {
			ls = ls.Union(dyn)
		}
	}
	return ls
}

func (r *refTracker) verdict(dl, rl policy.LabelSet) error {
	if r.pol.Graph.FlowAllowed(dl, rl, r.pol.Mode) {
		return nil
	}
	r.stats.Violations++
	return nil
}

func (r *refTracker) check(data, recv any, site string) error {
	r.stats.Checks++
	dl := r.dataLabels(data)
	if dl.Empty() {
		return nil
	}
	rl := r.receiverLabels(recv, nil)
	return r.verdict(dl, rl)
}

func (r *refTracker) invokeCheck(fnVal any, args []any, site string) error {
	r.stats.Checks++
	c := refCollector{r: r}
	for _, a := range args {
		c.root(a)
	}
	dl := c.acc
	if dl.Empty() {
		return nil
	}
	rl := r.receiverLabels(fnVal, args)
	return r.verdict(dl, rl)
}
