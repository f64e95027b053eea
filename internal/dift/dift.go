// Package dift implements Turnstile's Inlined Dynamic Information Flow
// Tracker (§4.4). The tracker is self-contained: it depends only on the
// policy package and an adapter over the host runtime's values, so it can
// be fused into any application (platform-independence, C2).
//
// Labels live on the values they describe. Every reference-type runtime
// value embeds a Labels slot holding its privacy labels, its integrity
// facts and its $invoke labeller, so a value that dies takes its labels
// with it and the tracker keeps no per-value state. Value-type instances
// are wrapped in a Box, which embeds the same slot, to give two equal
// values distinct labels, exactly as the paper wraps JavaScript primitives
// (§4.4, "Tracking privacy-sensitive information flow"). Boxes are
// unwrapped on writes to sinks so that external interfaces see native
// values.
package dift

import (
	"encoding/json"
	"fmt"

	"turnstile/internal/policy"
	"turnstile/internal/telemetry"
)

// Ref is implemented by the runtime's reference values, the values that
// carry labels of their own; only embedding Labels provides its method.
type Ref interface{ labelSlot() *Labels }

// Labels is the slot a tracked value embeds: a pointer to its labels,
// allocated on first attach. A copy of the value shares them unless the
// copy's slot is reset to the zero value.
type Labels struct{ rec *labelRec }

func (l *Labels) labelSlot() *Labels { return l }

// labelRec holds a value's label sets, indexed by labelKind, and its
// $invoke labeller. No attach path stores an empty set.
type labelRec struct {
	sets   [2]policy.LabelSet
	invoke policy.LabelFunc
}

// labelKind selects a set: privacy labels (DataLabels) or integrity facts
// (DataIntegrity).
type labelKind uint8

const (
	confidentiality labelKind = iota
	integrity
)

func (l *Labels) get(k labelKind) policy.LabelSet {
	if l.rec == nil {
		return nil
	}
	return l.rec.sets[k]
}

func (l *Labels) record() *labelRec {
	if l.rec == nil {
		l.rec = new(labelRec)
	}
	return l.rec
}

// Box wraps a value-type instance so it can be tracked. The runtime's
// property/element accesses treat boxes transparently (the MiniJS
// interpreter unwraps them at primitive-operation sites, the analogue of
// the paper's JavaScript Proxy interception).
type Box struct {
	Labels
	Val any
}

// labelledBox is a box allocated together with its label record, so
// labelling a primitive costs one allocation.
type labelledBox struct {
	Box
	own labelRec
}

func (b *Box) String() string { return fmt.Sprintf("Box(%v)", b.Val) }

// Unwrap removes a Box wrapper, returning the native value.
func Unwrap(v any) any {
	if b, ok := v.(*Box); ok {
		return b.Val
	}
	return v
}

// ValueAdapter lets the tracker traverse runtime values without a
// dependency on the interpreter package.
type ValueAdapter interface {
	// Property returns the named property of v, if v has properties.
	Property(v any, name string) (any, bool)
	// SetProperty overwrites the named property; reports success.
	SetProperty(v any, name string, val any) bool
	// Elements returns the element slice of v, if v is an array.
	Elements(v any) ([]any, bool)
	// SetElement overwrites element i; reports success.
	SetElement(v any, i int, val any) bool
	// IsReference reports whether v carries identity of its own. A value
	// that is neither a Ref nor a reference must have no elements and no
	// properties: label collection treats it as a leaf. Go strings,
	// float64s, bools and nil are never references.
	IsReference(v any) bool
}

// PropertyLister is an optional extension of ValueAdapter: adapters that
// can enumerate an object's property names let the CNF-mode tracker walk
// object graphs during label collection, closing the dynamic-property
// label-smuggling hole (a secret stashed under a computed key on an
// otherwise clean object). Flat-policy trackers never consult it, so the
// flat collection path — and its cost — is unchanged.
type PropertyLister interface {
	PropertyNames(v any) ([]string, bool)
}

// Violation records one forbidden flow detected at run time.
type Violation struct {
	Site string // source location or API description
	Op   string // "check" or "invoke"
	Data policy.LabelSet
	Recv policy.LabelSet
	// Reason distinguishes policy denials ("" — the rule DAG forbade the
	// flow) from fail-closed denials ("degraded" — the tracker was poisoned
	// by an internal inconsistency and denies everything).
	Reason string
}

func (v *Violation) Error() string {
	switch v.Reason {
	case "":
		return fmt.Sprintf("dift: policy violation at %s (%s): data %v may not flow to receiver %v",
			v.Site, v.Op, v.Data, v.Recv)
	case "degraded":
		return fmt.Sprintf("dift: flow denied at %s (%s): tracker %s", v.Site, v.Op, v.Reason)
	default:
		// CNF-rule refusals (robust-declassification, opaque-endorsement,
		// unknown-declassifier, ...) carry no receiver.
		return fmt.Sprintf("dift: %s denied at %s: %s (data %v)", v.Op, v.Site, v.Reason, v.Data)
	}
}

// MarshalJSON renders the violation for audit logs.
func (v *Violation) MarshalJSON() ([]byte, error) {
	type row struct {
		Site   string   `json:"site"`
		Op     string   `json:"op"`
		Data   []string `json:"data"`
		Recv   []string `json:"receiver"`
		Reason string   `json:"reason,omitempty"`
	}
	toStrings := func(ls policy.LabelSet) []string {
		out := make([]string, 0, len(ls))
		for _, l := range ls.Slice() {
			out = append(out, string(l))
		}
		return out
	}
	return json.Marshal(row{Site: v.Site, Op: v.Op, Data: toStrings(v.Data), Recv: toStrings(v.Recv), Reason: v.Reason})
}

// Stats counts tracker activity; used by the benchmarks and tests.
type Stats struct {
	Labelled   int // label() applications
	Boxed      int // value-type wrappings
	Derived    int // label propagations (binaryOp/assign/derive)
	Checks     int // flow checks
	Violations int
}

// Tracker is one inlined DIF Tracker instance (the τ of Fig. 2b).
// A tracker is created at application startup with the application's IFC
// policy and is not safe for concurrent use (MiniJS, like Node.js, is
// single-threaded per application).
type Tracker struct {
	Policy  *policy.Policy
	Adapter ValueAdapter

	// Enforce selects enforcement mode: violating flows are blocked and
	// reported as errors. When false the tracker audits: violations are
	// recorded but flows proceed.
	Enforce bool

	// OnViolation, when set, observes each violation as it is found.
	OnViolation func(*Violation)

	// FailClosed selects fail-closed mode: any internal tracker
	// inconsistency — collect-depth overflow, a recovered panic inside a
	// tracker op — poisons the tracker, after which every sink check
	// denies with reason "degraded" regardless of Enforce. Off (the
	// default), the tracker still never drops labels silently (truncation
	// joins policy.Top), but panics propagate to the stage boundary and
	// audit mode keeps auditing.
	FailClosed bool

	violations []*Violation
	stats      Stats

	// degraded/degradedReason form the poison latch (see Poison).
	degraded       bool
	degradedReason string

	// tel, when non-nil, holds the pre-resolved telemetry handles. Every
	// hook below guards on this one field, so the telemetry-off hot path
	// costs a single predictable branch per operation (the benchmark gate
	// in scripts/verify.sh holds that line).
	tel *telHooks

	// implicit-flow tracking (see implicit.go)
	implicit bool
	pcStack  []policy.LabelSet

	// CNF extension (see declass.go). cnf gates every clause-aware code
	// path and is derived from Policy.HasCNF at construction; props deepens
	// collection over object properties when the adapter supports
	// enumeration; pcInteg mirrors pcStack with the integrity meet of each
	// scope's conditions.
	cnf     bool
	props   PropertyLister
	pcInteg []policy.LabelSet
}

// telHooks bundles the counter handles for the tracker's per-operation
// metrics, resolved once in EnableTelemetry, plus the optional tracer.
type telHooks struct {
	metrics *telemetry.Metrics
	tracer  *telemetry.Tracer

	label, binaryOp, assign, check, invoke, track, box, violation *telemetry.Counter
	checkLabels                                                   *telemetry.Histogram
}

// EnableTelemetry attaches a metrics registry and/or structured tracer to
// the tracker and its policy graph. Counter handles are resolved here so
// the per-operation hooks are lock-free atomic adds. Passing two nils
// detaches telemetry.
func (t *Tracker) EnableTelemetry(m *telemetry.Metrics, tr *telemetry.Tracer) {
	if m == nil && tr == nil {
		t.tel = nil
		if t.Policy != nil && t.Policy.Graph != nil {
			t.Policy.Graph.SetMetrics(nil)
		}
		return
	}
	h := &telHooks{metrics: m, tracer: tr}
	if m != nil {
		h.label = m.Counter("dift.label")
		h.binaryOp = m.Counter("dift.binaryOp")
		h.assign = m.Counter("dift.assign")
		h.check = m.Counter("dift.check")
		h.invoke = m.Counter("dift.invoke")
		h.track = m.Counter("dift.track")
		h.box = m.Counter("dift.box")
		h.violation = m.Counter("dift.violation")
		h.checkLabels = m.Histogram("dift.check.labels")
	}
	t.tel = h
	if t.Policy != nil && t.Policy.Graph != nil {
		t.Policy.Graph.SetMetrics(m)
	}
}

// Telemetry returns the attached metrics registry (nil when disabled).
func (t *Tracker) Telemetry() *telemetry.Metrics {
	if t.tel == nil {
		return nil
	}
	return t.tel.metrics
}

// Tracer returns the attached structured tracer (nil when disabled).
func (t *Tracker) Tracer() *telemetry.Tracer {
	if t.tel == nil {
		return nil
	}
	return t.tel.tracer
}

// LabelStrings converts a label set to its sorted string form for trace
// events (LabelSet.Slice is sorted, keeping traces deterministic).
func LabelStrings(ls policy.LabelSet) []string {
	if ls.Empty() {
		return nil
	}
	sl := ls.Slice()
	out := make([]string, len(sl))
	for i, l := range sl {
		out[i] = string(l)
	}
	return out
}

// NewTracker creates a tracker bound to a policy and value adapter. A
// policy carrying the CNF extension (exchange rules, declassifiers or
// endorsements) switches the tracker onto the clause-aware paths; a flat
// policy keeps every hot path identical to the pre-CNF tracker.
func NewTracker(p *policy.Policy, adapter ValueAdapter) *Tracker {
	t := &Tracker{Policy: p, Adapter: adapter}
	if p != nil && p.HasCNF() {
		t.cnf = true
		t.props, _ = adapter.(PropertyLister)
	}
	return t
}

// SwapPolicy atomically replaces the tracker's policy — the serve
// daemon's hot-reload primitive, called only between messages (the
// tracker, like its interpreter, is single-threaded, so "between
// messages" is all the atomicity there is). Existing value labels are
// kept: labels name information categories, and a new policy reinterprets
// the same categories with new rules. The CNF gate and property lister
// are recomputed from the new policy, and the reachability-cache telemetry
// is re-bound so cache counters follow the live graph.
func (t *Tracker) SwapPolicy(p *policy.Policy) {
	t.Policy = p
	t.cnf = p != nil && p.HasCNF()
	t.props = nil
	if t.cnf {
		t.props, _ = t.Adapter.(PropertyLister)
	}
	if h := t.tel; h != nil && h.metrics != nil && p != nil && p.Graph != nil {
		p.Graph.SetMetrics(h.metrics)
	}
}

// Violations returns the violations recorded so far.
func (t *Tracker) Violations() []*Violation { return t.violations }

// Stats returns a copy of the activity counters.
func (t *Tracker) Stats() Stats { return t.stats }

// Poison marks the tracker degraded. The latch is sticky and keeps the
// first reason; in fail-closed mode every subsequent sink check denies
// with reason "degraded". The interpreter calls this when a resource
// guard trips, and the tracker calls it on its own internal failures.
func (t *Tracker) Poison(reason string) {
	if t.degraded {
		return
	}
	t.degraded = true
	t.degradedReason = reason
	if h := t.tel; h != nil {
		if h.metrics != nil {
			h.metrics.Counter("dift.poisoned").Inc()
		}
		t.trace(telemetry.Event{Op: "poison", Detail: reason})
	}
}

// Degraded reports whether the tracker has been poisoned, and why.
func (t *Tracker) Degraded() (bool, string) { return t.degraded, t.degradedReason }

// PoisonState is the tracker's exportable integrity latch — the one piece
// of monitor state that must survive the monitor's own host process. A
// durable layer persists it with every state transition and hands it back
// on recovery, so a crash-restart cycle can never launder a poisoned
// tracker into a clean one.
type PoisonState struct {
	Degraded bool   `json:"degraded,omitempty"`
	Reason   string `json:"reason,omitempty"`
}

// ExportPoison snapshots the poison latch for persistence.
func (t *Tracker) ExportPoison() PoisonState {
	return PoisonState{Degraded: t.degraded, Reason: t.degradedReason}
}

// RestorePoison re-arms the latch from a persisted state. Restoring a
// degraded state forces fail-closed mode regardless of the tracker's
// configured posture: a recovered tracker that cannot vouch for the state
// it was rebuilt from must deny every sink, even if it was deployed in
// audit mode — recovery is exactly the moment fail-open is unacceptable.
// Restoring a clean state is a no-op (the latch only ever arms).
func (t *Tracker) RestorePoison(ps PoisonState) {
	if !ps.Degraded {
		return
	}
	t.FailClosed = true
	reason := ps.Reason
	if reason == "" {
		reason = "restored degraded state"
	}
	t.Poison(reason)
}

// denyDegraded records and returns the fail-closed denial for a sink
// check against a poisoned tracker. It bypasses Enforce: fail-closed
// means no flow is permitted once the tracker cannot vouch for its own
// state, even in audit mode.
func (t *Tracker) denyDegraded(op, site string) error {
	v := &Violation{Site: site, Op: op, Reason: "degraded"}
	t.violations = append(t.violations, v)
	t.stats.Violations++
	if h := t.tel; h != nil {
		if h.violation != nil {
			h.violation.Inc()
		}
		t.trace(telemetry.Event{Op: "violation", Site: site, Detail: "degraded"})
	}
	if t.OnViolation != nil {
		t.OnViolation(v)
	}
	return v
}

// recoverOp is deferred by the fail-closed variants of the public tracker
// ops: a panic inside the op poisons the tracker and becomes a degraded
// denial instead of unwinding into the host runtime. Outside fail-closed
// mode ops do not defer it, so panics propagate to the stage boundary
// (guard.Contain) unchanged.
func (t *Tracker) recoverOp(op, site string, errp *error) {
	if r := recover(); r != nil {
		t.Poison(fmt.Sprintf("panic in tracker op %s: %v", op, r))
		*errp = t.denyDegraded(op, site)
	}
}

// countBox records one value-type wrapping.
func (t *Tracker) countBox() {
	t.stats.Boxed++
	if h := t.tel; h != nil && h.box != nil {
		h.box.Inc()
	}
}

// LabelsOf returns the labels attached to v (nil when untracked).
func (t *Tracker) LabelsOf(v any) policy.LabelSet {
	if r, ok := v.(Ref); ok {
		return r.labelSlot().get(confidentiality)
	}
	return nil
}

// Attach binds labels to v. Value-type values are boxed; the (possibly
// boxed) value is returned and must replace v at the call site.
func (t *Tracker) Attach(v any, ls policy.LabelSet) any {
	if ls.Empty() {
		return v
	}
	return t.attachOwned(confidentiality, v, ls.Clone())
}

// attachOwned binds a non-empty set the caller hands over to v as its set
// of kind k: the set is stored as is, with v's existing labels merged into
// it, so a freshly collected union costs no further copy.
func (t *Tracker) attachOwned(k labelKind, v any, ls policy.LabelSet) any {
	if r, ok := v.(Ref); ok {
		rec := r.labelSlot().record()
		for l := range rec.sets[k] {
			ls[l] = struct{}{}
		}
		rec.sets[k] = ls
		return v
	}
	if !t.Adapter.IsReference(v) {
		t.countBox()
		b := &labelledBox{Box: Box{Val: v}}
		b.rec = &b.own
		b.own.sets[k] = ls
		return &b.Box
	}
	return v
}

// Label implements the label(target, labeller) API method (Table 1): it
// evaluates the value-dependent privacy label of v using the given
// labeller specification and attaches it. The returned value replaces v.
func (t *Tracker) Label(v any, l *policy.Labeller) (out any, err error) {
	if t.FailClosed {
		name := ""
		if l != nil {
			name = l.Name
		}
		out = v // keep the unlabelled value if the op panics
		defer t.recoverOp("label", name, &err)
	}
	t.stats.Labelled++
	if h := t.tel; h != nil {
		if h.label != nil {
			h.label.Inc()
		}
		out, err := t.applyLabeller(v, l)
		if h.tracer != nil {
			name := ""
			if l != nil {
				name = l.Name
			}
			t.trace(telemetry.Event{Op: "label", Site: name, Labels: LabelStrings(t.LabelsOf(out))})
		}
		return out, err
	}
	return t.applyLabeller(v, l)
}

// trace records one event on the attached tracer (telemetry-on path only).
func (t *Tracker) trace(ev telemetry.Event) {
	if h := t.tel; h != nil && h.tracer != nil {
		h.tracer.Record(ev)
	}
}

func (t *Tracker) applyLabeller(v any, l *policy.Labeller) (any, error) {
	switch {
	case l == nil:
		return v, nil
	case l.Fn != nil:
		ls, err := l.Fn(Unwrap(v))
		if err != nil {
			return v, fmt.Errorf("dift: label function for %q: %w", l.Name, err)
		}
		return t.Attach(v, ls), nil
	case l.Invoke != nil:
		// attach a dynamic labeller to the function value; evaluated when
		// the function is invoked (the mailer.sendMail case of Fig. 7).
		if r, ok := v.(Ref); ok {
			r.labelSlot().record().invoke = l.Invoke
			return v, nil
		}
		return v, fmt.Errorf("dift: $invoke labeller %q applied to non-reference value %T", l.Name, v)
	case l.Map != nil:
		elems, ok := t.Adapter.Elements(v)
		if !ok {
			return v, fmt.Errorf("dift: $map labeller %q applied to non-array value %T", l.Name, v)
		}
		var union policy.LabelSet
		for i, el := range elems {
			labelled, err := t.applyLabeller(el, l.Map)
			if err != nil {
				return v, err
			}
			if labelled != el {
				t.Adapter.SetElement(v, i, labelled)
			}
			union = union.Union(t.LabelsOf(labelled))
		}
		// the array itself carries the union of its element labels, so a
		// flow of the whole array is as constrained as its elements.
		return t.Attach(v, union), nil
	case l.Props != nil:
		for name, sub := range l.Props {
			pv, ok := t.Adapter.Property(v, name)
			if !ok {
				continue
			}
			labelled, err := t.applyLabeller(pv, sub)
			if err != nil {
				return v, err
			}
			if labelled != pv {
				t.Adapter.SetProperty(v, name, labelled)
			}
			t.Attach(v, t.LabelsOf(labelled))
		}
		return v, nil
	}
	return v, nil
}

// Track wraps a value-type v unconditionally, with no labels attached.
// Exhaustive instrumentation tracks every value it touches — the paper
// observes that this converts e.g. every dictionary string of nlp.js into a
// heap-allocated object (§6.2), which is exactly the overhead source the
// selective strategy avoids.
func (t *Tracker) Track(v any) any {
	if h := t.tel; h != nil && h.track != nil {
		h.track.Inc()
	}
	if _, ok := v.(Ref); ok {
		return v
	}
	if t.Adapter.IsReference(v) {
		return v
	}
	t.countBox()
	return &Box{Val: v}
}

// Derive implements label propagation for derived values (the binaryOp,
// assignment and invoke rules of Fig. 5): result's label becomes the union
// of the sources' labels. The returned value replaces result.
func (t *Tracker) Derive(result any, sources ...any) (out any) {
	if t.FailClosed {
		out = result // a panicking derive poisons; the raw value is safe
		// because every later sink check now denies
		defer func() {
			if r := recover(); r != nil {
				t.Poison(fmt.Sprintf("panic in tracker op derive: %v", r))
			}
		}()
	}
	t.stats.Derived++
	if h := t.tel; h != nil && h.binaryOp != nil {
		h.binaryOp.Inc()
	}
	c := collector{t: t}
	for _, s := range sources {
		c.join(t.LabelsOf(s))
	}
	c.joinPC()
	if t.cnf {
		out = result
		if !c.acc.Empty() {
			out = t.attachOwned(confidentiality, out, c.acc)
		}
		return t.deriveIntegrity(out, sources)
	}
	if c.acc.Empty() {
		return result
	}
	return t.attachOwned(confidentiality, result, c.acc)
}

// DataLabels collects the labels of v and, for containers, of the values
// reachable from it. Collection is cycle-safe. This is what a sink check
// inspects: sending an object leaks everything reachable from it. The
// result may be the set stored on v (a plain value's box): treat it as
// read-only.
func (t *Tracker) DataLabels(v any) policy.LabelSet {
	return t.collectFrom(confidentiality, v)
}

// collectFrom runs one collection of kind k from root v. A plain value
// reaches nothing, and a box around one is a leaf: both answer straight
// from the value without starting a walk.
func (t *Tracker) collectFrom(k labelKind, v any) policy.LabelSet {
	if b, ok := v.(*Box); ok && t.plain(b.Val) {
		return b.get(k)
	}
	if t.plain(v) {
		return nil
	}
	c := collector{t: t, kind: k}
	c.walk(v, 0)
	return c.acc
}

// plain reports whether v carries no identity of its own: it has no label
// slot and, by the ValueAdapter contract, no elements or properties.
func (t *Tracker) plain(v any) bool {
	if _, isRef := v.(Ref); isRef {
		return false
	}
	return !t.Adapter.IsReference(v)
}

const maxCollectDepth = 12

// topSet is the ⊤ singleton joined on truncation; hoisted so the bound
// check stays allocation-free.
var topSet = policy.NewLabelSet(policy.Top)

// collector gathers the label sets reachable from one or more roots. Two
// invariants keep it cheap without changing what it collects:
//
//   - The accumulator acc is owned: it is allocated by the first non-empty
//     join, grows in place, and is never shared until it is handed to the
//     caller (Attach-style callers store it without a copy).
//   - Boxes hold only non-reference values (Attach and Track box nothing
//     else), so a box around a plain value is a leaf that cannot close a
//     cycle. It skips the seen set, which is allocated only when the walk
//     descends into a container reference.
type collector struct {
	t *Tracker
	// kind selects the set collected and the truncation polarity: the
	// confidentiality walk joins ⊤ past the depth bound; the integrity
	// walk just stops, because losing integrity facts is fail-safe.
	kind labelKind
	acc  policy.LabelSet
	seen map[*Labels]struct{}
}

// join adds ls to the accumulator in place.
func (c *collector) join(ls policy.LabelSet) {
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

// joinPC adds the current pc label (every open scope) when implicit-flow
// tracking is on.
func (c *collector) joinPC() {
	if !c.t.implicit {
		return
	}
	for _, s := range c.t.pcStack {
		c.join(s)
	}
}

// root walks one more root. Each root starts with an empty cycle set, so
// the union over several roots equals the union of their separate
// collections.
func (c *collector) root(v any) {
	clear(c.seen)
	c.walk(v, 0)
}

func (c *collector) walk(v any, depth int) {
	switch v.(type) {
	case string, float64, bool, nil:
		// a plain scalar is a leaf without labels at any depth (see
		// IsReference), so it skips the probes below
		return
	}
	t := c.t
	if depth > maxCollectDepth {
		// Truncating a plain value is lossless — it carries no identity
		// and reaches nothing — but truncating a Ref or a container may
		// hide labels below this point, and silently returning would
		// under-taint (fail-open). Join ⊤ instead — the sink check then
		// denies — and in fail-closed mode poison the tracker outright.
		// This also covers the `seen` cycle guard: a revisit can only lose
		// labels if the first visit truncated, and that truncation already
		// joined ⊤.
		if c.kind != confidentiality {
			return
		}
		if _, isRef := v.(Ref); !isRef {
			if _, isArr := t.Adapter.Elements(v); !isArr {
				return
			}
		}
		c.join(topSet)
		if t.FailClosed {
			t.Poison(fmt.Sprintf("collect depth overflow (> %d)", maxCollectDepth))
		}
		return
	}
	b, isBox := v.(*Box)
	if isBox && t.plain(b.Val) {
		c.join(b.get(c.kind))
		return
	}
	elems, isArr := t.Adapter.Elements(v)
	if r, ok := v.(Ref); ok {
		l := r.labelSlot()
		// only a reference the walk descends into can close a cycle
		if isArr || isBox || t.props != nil {
			if _, dup := c.seen[l]; dup {
				return
			}
			if c.seen == nil {
				c.seen = make(map[*Labels]struct{})
			}
			c.seen[l] = struct{}{}
		}
		c.join(l.get(c.kind))
	}
	if isArr {
		for _, el := range elems {
			c.walk(el, depth+1)
		}
		return
	}
	if isBox {
		c.walk(b.Val, depth+1)
		return
	}
	// CNF mode walks object properties too: a compound policy's attack
	// surface includes stashing a secret under a dynamically computed key,
	// so collection must be exhaustive over the object graph. The flat path
	// skips this (properties are labelled onto the holder by the labeller
	// specs), keeping pre-CNF collection costs and output intact. props is
	// non-nil only in CNF mode.
	if t.props != nil {
		if names, ok := t.props.PropertyNames(v); ok {
			for _, n := range names {
				if pv, found := t.Adapter.Property(v, n); found {
					c.walk(pv, depth+1)
				}
			}
		}
	}
}

// CollectProperties extends DataLabels over an object's properties. It is
// split from DataLabels so the adapter can decide which values have
// enumerable properties.
func (t *Tracker) CollectProperties(v any, names []string) policy.LabelSet {
	union := t.DataLabels(v)
	for _, n := range names {
		if pv, ok := t.Adapter.Property(v, n); ok {
			union = union.Union(t.DataLabels(pv))
		}
	}
	return union
}

// Check implements check(data, receiver) (Table 1): it verifies that the
// privacy rules allow data to flow into receiver. In enforcement mode a
// violation is returned as an error; in audit mode it is recorded and nil
// is returned.
func (t *Tracker) Check(data, recv any, site string) (err error) {
	if t.FailClosed {
		if t.degraded {
			t.stats.Checks++
			return t.denyDegraded("check", site)
		}
		defer t.recoverOp("check", site, &err)
	}
	t.stats.Checks++
	dl := t.pcAugment(t.DataLabels(data))
	if t.cnf {
		dl = t.exchanged(dl, data)
	}
	if h := t.tel; h != nil {
		if h.check != nil {
			h.check.Inc()
			h.checkLabels.Observe(int64(len(dl)))
		}
		// mirror the telemetry-off control flow exactly: receiverLabels may
		// run a MiniJS $invoke labeller, so it must only be called when the
		// off path would call it, or the two runs' step counts diverge
		if dl.Empty() {
			t.trace(telemetry.Event{Op: "check", Site: site})
			return nil
		}
		rl := t.receiverLabels(recv, nil)
		t.trace(telemetry.Event{Op: "check", Site: site, Labels: LabelStrings(dl), Recv: LabelStrings(rl)})
		return t.verdict(dl, rl, "check", site)
	}
	if dl.Empty() {
		return nil
	}
	rl := t.receiverLabels(recv, nil)
	return t.verdict(dl, rl, "check", site)
}

// receiverLabels computes the labels of a sink/receiver value. If the
// receiver has a dynamic $invoke labeller, it is evaluated with the call
// arguments.
func (t *Tracker) receiverLabels(recv any, args []any) policy.LabelSet {
	ls := t.LabelsOf(recv)
	if r, ok := recv.(Ref); ok {
		if rec := r.labelSlot().rec; rec != nil && rec.invoke != nil {
			raw := make([]any, len(args))
			for i, a := range args {
				raw[i] = Unwrap(a)
			}
			if dyn, err := rec.invoke(Unwrap(recv), raw); err == nil {
				ls = ls.Union(dyn)
			}
		}
	}
	return ls
}

// InvokeCheck implements the flow check of invoke(target, func, args)
// (Table 1): each argument must be allowed to flow into the function
// receiver. It returns the error (blocking the call) in enforcement mode.
// The caller performs the actual invocation and then labels the returned
// value with DeriveInvoke.
func (t *Tracker) InvokeCheck(fnVal any, args []any, site string) error {
	return t.InvokeCheckTarget(fnVal, nil, args, site)
}

// InvokeCheckTarget is InvokeCheck with the receiver object included: the
// labels of both the function value and the object it was read from (the
// storage/db objects of §5 carry region labels on the object itself)
// constrain the flow, as do their dynamic $invoke labellers.
func (t *Tracker) InvokeCheckTarget(fnVal, target any, args []any, site string) (err error) {
	if t.FailClosed {
		if t.degraded {
			t.stats.Checks++
			return t.denyDegraded("invoke", site)
		}
		defer t.recoverOp("invoke", site, &err)
	}
	t.stats.Checks++
	c := collector{t: t}
	for _, a := range args {
		c.root(a)
	}
	c.joinPC()
	dl := c.acc
	if t.cnf {
		dl = t.exchanged(dl, args...)
	}
	if h := t.tel; h != nil {
		if h.invoke != nil {
			h.invoke.Inc()
			h.checkLabels.Observe(int64(len(dl)))
		}
		// as in Check: receiverLabels may execute a labeller, so it is only
		// reached when the telemetry-off path would reach it
		if dl.Empty() {
			t.trace(telemetry.Event{Op: "invoke", Site: site})
			return nil
		}
		rl := t.receiverLabels(fnVal, args)
		if target != nil {
			rl = rl.Union(t.receiverLabels(target, args))
		}
		t.trace(telemetry.Event{Op: "invoke", Site: site, Labels: LabelStrings(dl), Recv: LabelStrings(rl)})
		return t.verdict(dl, rl, "invoke", site)
	}
	if dl.Empty() {
		return nil
	}
	rl := t.receiverLabels(fnVal, args)
	if target != nil {
		rl = rl.Union(t.receiverLabels(target, args))
	}
	return t.verdict(dl, rl, "invoke", site)
}

// DeriveInvoke labels a function's return value with the compound label of
// its arguments (the invoke rule of Fig. 5).
func (t *Tracker) DeriveInvoke(result any, args []any) any {
	return t.Derive(result, args...)
}

func (t *Tracker) verdict(dl, rl policy.LabelSet, op, site string) error {
	if t.Policy.Graph.FlowAllowed(dl, rl, t.Policy.Mode) {
		return nil
	}
	v := &Violation{Site: site, Op: op, Data: dl.Clone(), Recv: rl.Clone()}
	t.violations = append(t.violations, v)
	t.stats.Violations++
	if h := t.tel; h != nil {
		if h.violation != nil {
			h.violation.Inc()
		}
		t.trace(telemetry.Event{Op: "violation", Site: site, Detail: op,
			Labels: LabelStrings(dl), Recv: LabelStrings(rl)})
	}
	if t.OnViolation != nil {
		t.OnViolation(v)
	}
	if t.Enforce {
		return v
	}
	return nil
}

// UnwrapDeep removes Box wrappers from v and, for arrays, from its
// elements, so values written to external sinks are native (§4.4: "wrapped
// values are unwrapped upon writing to a sink object").
func (t *Tracker) UnwrapDeep(v any) any {
	v = Unwrap(v)
	if elems, ok := t.Adapter.Elements(v); ok {
		for i, el := range elems {
			if b, isBox := el.(*Box); isBox {
				t.Adapter.SetElement(v, i, b.Val)
			}
		}
	}
	return v
}
