package dift

import (
	"errors"
	"strings"
	"testing"

	"turnstile/internal/policy"
)

// nest wraps v in n levels of single-element arrays.
func nest(v any, n int) any {
	for i := 0; i < n; i++ {
		v = newArr(v)
	}
	return v
}

// TestCollectTruncationJoinsTop is the fail-open regression test from the
// issue: a labelled value buried 13 levels deep must still deny at a sink.
// Before this fix, collect silently returned past maxCollectDepth, so the
// label was dropped and the flow was allowed.
func TestCollectTruncationJoinsTop(t *testing.T) {
	tr := tracker(t, "Alpha -> Beta")

	secret := tr.Attach("secret", policy.NewLabelSet("Alpha"))
	deep := nest(secret, maxCollectDepth+1) // labelled value at depth 13

	dl := tr.DataLabels(deep)
	if !dl.Contains(policy.Top) {
		t.Fatalf("truncated collection did not join ⊤: got %v", dl)
	}

	sink := newObj()
	err := tr.Check(deep, sink, "deep-sink")
	if err == nil {
		t.Fatal("depth-13 labelled structure reached the sink without a violation (fail-open)")
	}
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("expected *Violation, got %T: %v", err, err)
	}
	if !v.Data.Contains(policy.Top) {
		t.Fatalf("violation data labels missing ⊤: %v", v.Data)
	}
}

// TestCollectWithinDepthIsExact: at exactly the depth bound no precision is
// lost and no ⊤ appears, so the fix is invisible to well-behaved data.
func TestCollectWithinDepthIsExact(t *testing.T) {
	tr := tracker(t, "Alpha -> Beta")
	secret := tr.Attach("secret", policy.NewLabelSet("Alpha"))
	deep := nest(secret, maxCollectDepth) // labelled value at depth 12: reachable

	dl := tr.DataLabels(deep)
	if dl.Contains(policy.Top) {
		t.Fatalf("in-budget collection joined ⊤: %v", dl)
	}
	if !dl.Contains("Alpha") {
		t.Fatalf("in-budget collection lost the label: %v", dl)
	}
	if deg, reason := tr.Degraded(); deg {
		t.Fatalf("in-budget collection poisoned the tracker: %s", reason)
	}
}

// TestCollectTruncationFailClosedPoisons: with FailClosed on, a truncated
// collection poisons the tracker, and the poison is sticky: even checks on
// shallow, unlabelled data deny afterwards.
func TestCollectTruncationFailClosedPoisons(t *testing.T) {
	tr := tracker(t, "Alpha -> Beta")
	tr.FailClosed = true

	secret := tr.Attach("secret", policy.NewLabelSet("Alpha"))
	tr.DataLabels(nest(secret, maxCollectDepth+5))

	deg, reason := tr.Degraded()
	if !deg {
		t.Fatal("collect overflow did not poison the fail-closed tracker")
	}
	if !strings.Contains(reason, "collect depth overflow") {
		t.Fatalf("unexpected poison reason: %q", reason)
	}

	err := tr.Check("plain string", newObj(), "later-sink")
	var v *Violation
	if !errors.As(err, &v) || v.Reason != "degraded" {
		t.Fatalf("poisoned tracker allowed a sink check: %v", err)
	}
	if !strings.Contains(v.Error(), "degraded") {
		t.Fatalf("violation text missing reason: %q", v.Error())
	}
	if err := tr.InvokeCheck(newObj(), []any{"x"}, "later-invoke"); err == nil {
		t.Fatal("poisoned tracker allowed an invoke check")
	}
}

// TestDegradedDenyBypassesEnforce: fail-closed denial applies even in audit
// mode — a degraded tracker cannot vouch for any flow.
func TestDegradedDenyBypassesEnforce(t *testing.T) {
	tr := tracker(t, "Alpha -> Beta")
	tr.Enforce = false
	tr.FailClosed = true
	tr.Poison("test poison")

	if err := tr.Check("v", newObj(), "sink"); err == nil {
		t.Fatal("audit-mode degraded tracker allowed a flow")
	}
	if got := len(tr.Violations()); got != 1 {
		t.Fatalf("degraded denial not recorded: %d violations", got)
	}
	if tr.Violations()[0].Reason != "degraded" {
		t.Fatalf("recorded violation reason = %q", tr.Violations()[0].Reason)
	}
}

// TestFailOpenModeStillDeniesTruncationButDoesNotPoison: without
// FailClosed the ⊤ join still denies the truncated check, but the tracker
// keeps serving precise answers for other data.
func TestFailOpenModeStillDeniesTruncationButDoesNotPoison(t *testing.T) {
	tr := tracker(t, "Alpha -> Beta")

	secret := tr.Attach("secret", policy.NewLabelSet("Alpha"))
	if err := tr.Check(nest(secret, maxCollectDepth+1), newObj(), "deep"); err == nil {
		t.Fatal("truncated check allowed")
	}
	if deg, _ := tr.Degraded(); deg {
		t.Fatal("non-fail-closed tracker was poisoned")
	}
	if err := tr.Check("plain", newObj(), "shallow"); err != nil {
		t.Fatalf("shallow check on healthy tracker denied: %v", err)
	}
}

// TestPanicInLabellerFailClosed: a panicking labeller poisons a fail-closed
// tracker and surfaces as a degraded denial instead of unwinding.
func TestPanicInLabellerFailClosed(t *testing.T) {
	tr := tracker(t)
	tr.FailClosed = true

	bomb := &policy.Labeller{Name: "bomb", Fn: func(args ...any) (policy.LabelSet, error) {
		panic("labeller bug")
	}}
	out, err := tr.Label("v", bomb)
	if err == nil {
		t.Fatal("panicking labeller returned no error")
	}
	if out != "v" {
		t.Fatalf("panicking labeller mangled the value: %v", out)
	}
	if deg, reason := tr.Degraded(); !deg || !strings.Contains(reason, "panic in tracker op label") {
		t.Fatalf("tracker not poisoned by labeller panic: %v %q", deg, reason)
	}
	if err := tr.Check("anything", newObj(), "sink"); err == nil {
		t.Fatal("sink check allowed after labeller panic")
	}
}

// TestPanicInLabellerFailOpenPropagates: without FailClosed the panic
// escapes to the stage boundary (where guard.Contain converts it), keeping
// seed behaviour for unguarded runs.
func TestPanicInLabellerFailOpenPropagates(t *testing.T) {
	tr := tracker(t)
	bomb := &policy.Labeller{Name: "bomb", Fn: func(args ...any) (policy.LabelSet, error) {
		panic("labeller bug")
	}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected the panic to propagate in fail-open mode")
		}
	}()
	tr.Label("v", bomb)
}

// TestDerivePanicPoisonsFailClosed: a panic inside Derive (no error
// channel) poisons the tracker and returns the raw result; later sink
// checks deny.
func TestDerivePanicPoisonsFailClosed(t *testing.T) {
	tr := tracker(t)
	tr.FailClosed = true

	out := tr.Derive("result", panicSource{}) // panics inside LabelsOf via its slot
	if out != "result" {
		t.Fatalf("derive panic mangled the result: %v", out)
	}
	if deg, reason := tr.Degraded(); !deg || !strings.Contains(reason, "derive") {
		t.Fatalf("derive panic did not poison the fail-closed tracker: %v %q", deg, reason)
	}
	if err := tr.Check("anything", newObj(), "sink"); err == nil {
		t.Fatal("sink check allowed after derive panic")
	}
}

// panicSource implements Ref but detonates when its label slot is read,
// simulating a corrupt value mid-op.
type panicSource struct{}

func (panicSource) labelSlot() *Labels { panic("corrupt ref") }

// TestViolationReasonJSON: the audit-log form carries the reason.
func TestViolationReasonJSON(t *testing.T) {
	v := &Violation{Site: "s", Op: "check", Reason: "degraded"}
	b, err := v.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"reason":"degraded"`) {
		t.Fatalf("reason missing from JSON: %s", b)
	}
	// and a policy violation omits it
	v2 := &Violation{Site: "s", Op: "check", Data: policy.NewLabelSet("A")}
	b2, err := v2.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b2), "reason") {
		t.Fatalf("empty reason serialized: %s", b2)
	}
}

// TestCyclicLabelledStructure: a labelled cycle terminates and keeps its
// labels (the `seen` guard is not lossy when no truncation occurs).
func TestCyclicLabelledStructure(t *testing.T) {
	tr := tracker(t, "Alpha -> Beta")
	a := newArr()
	b := newArr(a)
	a.elems = append(a.elems, b) // a <-> b cycle
	tr.Attach(a, policy.NewLabelSet("Alpha"))

	dl := tr.DataLabels(b)
	if !dl.Contains("Alpha") {
		t.Fatalf("cycle traversal lost label: %v", dl)
	}
	if dl.Contains(policy.Top) {
		t.Fatalf("shallow cycle joined ⊤: %v", dl)
	}
}
