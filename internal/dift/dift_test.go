package dift

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"

	"turnstile/internal/policy"
)

// --- minimal reference-typed test runtime ---------------------------------

type tObj struct {
	Labels
	props map[string]any
}

func newObj() *tObj { return &tObj{props: map[string]any{}} }

type tArr struct {
	Labels
	elems []any
}

func newArr(elems ...any) *tArr { return &tArr{elems: elems} }

type tAdapter struct{}

func (tAdapter) Property(v any, name string) (any, bool) {
	if o, ok := v.(*tObj); ok {
		p, ok := o.props[name]
		return p, ok
	}
	return nil, false
}

func (tAdapter) SetProperty(v any, name string, val any) bool {
	if o, ok := v.(*tObj); ok {
		o.props[name] = val
		return true
	}
	return false
}

func (tAdapter) Elements(v any) ([]any, bool) {
	if a, ok := v.(*tArr); ok {
		return a.elems, true
	}
	return nil, false
}

func (tAdapter) SetElement(v any, i int, val any) bool {
	if a, ok := v.(*tArr); ok && i < len(a.elems) {
		a.elems[i] = val
		return true
	}
	return false
}

func (tAdapter) IsReference(v any) bool {
	switch v.(type) {
	case *tObj, *tArr, *Box:
		return true
	}
	return false
}

// ---------------------------------------------------------------------------

func testPolicy(t *testing.T, rules ...string) *policy.Policy {
	t.Helper()
	var rs []policy.Rule
	for _, s := range rules {
		r, err := policy.ParseRule(s)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	p, err := policy.New(nil, rs, nil, policy.FlowComparable)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func tracker(t *testing.T, rules ...string) *Tracker {
	tr := NewTracker(testPolicy(t, rules...), tAdapter{})
	tr.Enforce = true
	return tr
}

func constLabeller(labels ...policy.Label) *policy.Labeller {
	return &policy.Labeller{Fn: func(args ...any) (policy.LabelSet, error) {
		return policy.NewLabelSet(labels...), nil
	}}
}

func TestLabelReferenceType(t *testing.T) {
	tr := tracker(t, "employee -> customer")
	o := newObj()
	got, err := tr.Label(o, constLabeller("employee"))
	if err != nil {
		t.Fatal(err)
	}
	if got != any(o) {
		t.Fatal("reference types keep their identity")
	}
	if !tr.LabelsOf(o).Contains("employee") {
		t.Fatalf("labels = %v", tr.LabelsOf(o))
	}
}

func TestLabelValueTypeBoxes(t *testing.T) {
	tr := tracker(t, "a -> b")
	got, err := tr.Label("secret text", constLabeller("a"))
	if err != nil {
		t.Fatal(err)
	}
	b, ok := got.(*Box)
	if !ok {
		t.Fatalf("value type not boxed: %T", got)
	}
	if Unwrap(b) != "secret text" {
		t.Fatalf("unwrap = %v", Unwrap(b))
	}
	if !tr.LabelsOf(b).Contains("a") {
		t.Fatalf("labels = %v", tr.LabelsOf(b))
	}
}

func TestTwoEqualValuesGetDistinctLabels(t *testing.T) {
	// The paper's value-type problem: two instances with the same value
	// represent different information (§4.4).
	tr := tracker(t, "a -> b")
	v1, _ := tr.Label(42.0, constLabeller("a"))
	v2, _ := tr.Label(42.0, constLabeller("b"))
	if tr.LabelsOf(v1).Equal(tr.LabelsOf(v2)) {
		t.Fatal("equal primitive values must carry independent labels")
	}
}

func TestValueDependentLabel(t *testing.T) {
	tr := tracker(t, "employee -> customer")
	labeller := &policy.Labeller{Fn: func(args ...any) (policy.LabelSet, error) {
		o := args[0].(*tObj)
		if _, ok := o.props["employeeID"]; ok {
			return policy.NewLabelSet("employee"), nil
		}
		return policy.NewLabelSet("customer"), nil
	}}
	emp := newObj()
	emp.props["employeeID"] = 7.0
	cust := newObj()
	tr.Label(emp, labeller)
	tr.Label(cust, labeller)
	if !tr.LabelsOf(emp).Contains("employee") || !tr.LabelsOf(cust).Contains("customer") {
		t.Fatalf("emp=%v cust=%v", tr.LabelsOf(emp), tr.LabelsOf(cust))
	}
}

func TestMapLabeller(t *testing.T) {
	tr := tracker(t, "employee -> customer")
	perEl := &policy.Labeller{Map: &policy.Labeller{Fn: func(args ...any) (policy.LabelSet, error) {
		o := args[0].(*tObj)
		if _, ok := o.props["employeeID"]; ok {
			return policy.NewLabelSet("employee"), nil
		}
		return policy.NewLabelSet("customer"), nil
	}}}
	emp := newObj()
	emp.props["employeeID"] = 1.0
	cust := newObj()
	arr := newArr(emp, cust)
	if _, err := tr.Label(arr, perEl); err != nil {
		t.Fatal(err)
	}
	if !tr.LabelsOf(emp).Contains("employee") {
		t.Fatal("element 0 unlabelled")
	}
	if !tr.LabelsOf(cust).Contains("customer") {
		t.Fatal("element 1 unlabelled")
	}
	// array carries the union
	al := tr.LabelsOf(arr)
	if !al.Contains("employee") || !al.Contains("customer") {
		t.Fatalf("array labels = %v", al)
	}
}

func TestMapLabellerBoxesPrimitives(t *testing.T) {
	tr := tracker(t, "a -> b")
	arr := newArr("x", "y")
	if _, err := tr.Label(arr, &policy.Labeller{Map: constLabeller("a")}); err != nil {
		t.Fatal(err)
	}
	if _, ok := arr.elems[0].(*Box); !ok {
		t.Fatalf("element not boxed: %T", arr.elems[0])
	}
}

func TestPropsLabeller(t *testing.T) {
	tr := tracker(t, "a -> b")
	o := newObj()
	o.props["payload"] = "secret"
	spec := &policy.Labeller{Props: map[string]*policy.Labeller{"payload": constLabeller("a")}}
	if _, err := tr.Label(o, spec); err != nil {
		t.Fatal(err)
	}
	if _, ok := o.props["payload"].(*Box); !ok {
		t.Fatal("property not boxed")
	}
	if !tr.LabelsOf(o).Contains("a") {
		t.Fatal("object should carry property label")
	}
}

func TestLabelErrors(t *testing.T) {
	tr := tracker(t, "a -> b")
	if _, err := tr.Label(newObj(), &policy.Labeller{Map: constLabeller("a")}); err == nil {
		t.Fatal("$map on non-array should fail")
	}
	if _, err := tr.Label(3.0, &policy.Labeller{Invoke: func(...any) (policy.LabelSet, error) { return nil, nil }}); err == nil {
		t.Fatal("$invoke on value type should fail")
	}
}

func TestDeriveCompoundLabel(t *testing.T) {
	// Fig. 5 binaryOp rule: v1 ⊙ v2 → v3 ↦ P1 ∪ P2
	tr := tracker(t, "P -> Q")
	a, _ := tr.Label("hello", constLabeller("P"))
	b, _ := tr.Label("world", constLabeller("Q"))
	result := tr.Derive("helloworld", a, b)
	ls := tr.LabelsOf(result)
	if !ls.Contains("P") || !ls.Contains("Q") {
		t.Fatalf("compound = %v", ls)
	}
}

func TestDeriveNoSourcesNoBox(t *testing.T) {
	tr := tracker(t, "P -> Q")
	out := tr.Derive("plain", "x", 1.0)
	if _, ok := out.(*Box); ok {
		t.Fatal("unlabelled derivation must not box")
	}
}

func TestCheckAllowsAndBlocks(t *testing.T) {
	tr := tracker(t, "employee -> customer")
	data, _ := tr.Label("frame", constLabeller("employee"))
	sinkOK := newObj()
	tr.Attach(sinkOK, policy.NewLabelSet("customer"))
	sinkBad := newObj()
	tr.Attach(sinkBad, policy.NewLabelSet("employee"))

	if err := tr.Check(data, sinkOK, "app.js:10"); err != nil {
		t.Fatalf("allowed flow blocked: %v", err)
	}
	dataC, _ := tr.Label("frame2", constLabeller("customer"))
	if err := tr.Check(dataC, sinkBad, "app.js:11"); err == nil {
		t.Fatal("customer → employee should be blocked")
	}
	if len(tr.Violations()) != 1 {
		t.Fatalf("violations = %d", len(tr.Violations()))
	}
	v := tr.Violations()[0]
	if v.Site != "app.js:11" || !strings.Contains(v.Error(), "violation") {
		t.Fatalf("violation = %+v", v)
	}
}

func TestAuditModeRecordsButAllows(t *testing.T) {
	tr := tracker(t, "a -> b")
	tr.Enforce = false
	var seen int
	tr.OnViolation = func(*Violation) { seen++ }
	data, _ := tr.Label("x", constLabeller("b"))
	recv := newObj()
	tr.Attach(recv, policy.NewLabelSet("a"))
	if err := tr.Check(data, recv, "s"); err != nil {
		t.Fatalf("audit mode must not block: %v", err)
	}
	if seen != 1 || tr.Stats().Violations != 1 {
		t.Fatalf("seen=%d stats=%+v", seen, tr.Stats())
	}
}

func TestCheckReachesNestedData(t *testing.T) {
	tr := tracker(t, "hi -> lo")
	secret, _ := tr.Label("s3cr3t", constLabeller("lo"))
	arr := newArr(secret)
	recv := newObj()
	tr.Attach(recv, policy.NewLabelSet("hi"))
	if err := tr.Check(arr, recv, "nested"); err == nil {
		t.Fatal("label inside array must be found")
	}
}

func TestCollectHandlesCycles(t *testing.T) {
	tr := tracker(t, "a -> b")
	a1 := newArr(nil)
	a2 := newArr(a1)
	a1.elems[0] = a2 // cycle
	tr.Attach(a1, policy.NewLabelSet("a"))
	ls := tr.DataLabels(a2)
	if !ls.Contains("a") {
		t.Fatalf("labels = %v", ls)
	}
}

func TestInvokeDynamicReceiverLabel(t *testing.T) {
	// The NVR mailer scenario: sendMail's label depends on the recipient.
	tr := tracker(t, "L1 -> L2", "L2 -> L3")
	sendMail := newObj()
	spec := &policy.Labeller{Invoke: func(args ...any) (policy.LabelSet, error) {
		callArgs := args[1].([]any)
		opts := callArgs[0].(*tObj)
		to := opts.props["to"].(string)
		if to == "boss@corp" {
			return policy.NewLabelSet("L3"), nil
		}
		return policy.NewLabelSet("L2"), nil
	}}
	if _, err := tr.Label(sendMail, spec); err != nil {
		t.Fatal(err)
	}

	frameL3, _ := tr.Label("face-frame", constLabeller("L3"))
	optsBoss := newObj()
	optsBoss.props["to"] = "boss@corp"
	optsBoss.props["attachments"] = frameL3
	optsPeon := newObj()
	optsPeon.props["to"] = "peon@corp"
	optsPeon.props["attachments"] = frameL3

	// tracker sees the whole opts object as the data argument; its labels
	// include the attachment's (via property collection by the runtime).
	tr.Attach(optsBoss, tr.DataLabels(frameL3))
	tr.Attach(optsPeon, tr.DataLabels(frameL3))

	if err := tr.InvokeCheck(sendMail, []any{optsBoss}, "mail"); err != nil {
		t.Fatalf("L3 → L3 blocked: %v", err)
	}
	if err := tr.InvokeCheck(sendMail, []any{optsPeon}, "mail"); err == nil {
		t.Fatal("L3 → L2 should be blocked")
	}
}

func TestDeriveInvokeLabelsReturn(t *testing.T) {
	tr := tracker(t, "P -> Q")
	arg, _ := tr.Label("in", constLabeller("P"))
	out := tr.DeriveInvoke("out", []any{arg})
	if !tr.LabelsOf(out).Contains("P") {
		t.Fatal("return value must inherit argument labels")
	}
}

func TestUnwrapDeep(t *testing.T) {
	tr := tracker(t, "a -> b")
	b1, _ := tr.Label("x", constLabeller("a"))
	arr := newArr(b1, "plain")
	out := tr.UnwrapDeep(arr)
	if out != any(arr) {
		t.Fatal("array identity preserved")
	}
	if _, ok := arr.elems[0].(*Box); ok {
		t.Fatal("elements should be unwrapped")
	}
	single, _ := tr.Label(7.0, constLabeller("a"))
	if tr.UnwrapDeep(single) != 7.0 {
		t.Fatal("box should unwrap")
	}
}

func TestStatsCounters(t *testing.T) {
	tr := tracker(t, "a -> b")
	v, _ := tr.Label("x", constLabeller("a"))
	tr.Derive("y", v)
	tr.Check(v, newObj(), "s")
	st := tr.Stats()
	if st.Labelled != 1 || st.Derived != 1 || st.Checks != 1 || st.Boxed < 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// Property: Derive over any partition of sources yields the same compound
// label (union is order/partition independent).
func TestQuickDerivePartition(t *testing.T) {
	f := func(bits []uint8) bool {
		tr := NewTracker(mustPolicy(), tAdapter{})
		if len(bits) == 0 {
			return true
		}
		var sources []any
		for i, b := range bits {
			if i > 12 {
				break
			}
			l := policy.Label(string(rune('a' + b%6)))
			v, _ := tr.Label(float64(i), constLabeller(l))
			sources = append(sources, v)
		}
		all := tr.Derive("whole", sources...)
		step := any("step")
		for _, s := range sources {
			step = tr.Derive(step, step, s)
		}
		return tr.LabelsOf(all).Equal(tr.LabelsOf(step))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func mustPolicy() *policy.Policy {
	p, err := policy.New(nil, []policy.Rule{{From: "a", To: "b"}}, nil, policy.FlowComparable)
	if err != nil {
		panic(err)
	}
	return p
}

func TestViolationJSON(t *testing.T) {
	tr := tracker(t, "public -> secret")
	tr.Enforce = false
	data, _ := tr.Label("x", constLabeller("secret"))
	recv := newObj()
	tr.Attach(recv, policy.NewLabelSet("public"))
	tr.Check(data, recv, "app.js:9:1")
	out, err := json.Marshal(tr.Violations())
	if err != nil {
		t.Fatal(err)
	}
	want := `[{"site":"app.js:9:1","op":"check","data":["secret"],"receiver":["public"]}]`
	if string(out) != want {
		t.Fatalf("json = %s", out)
	}
}
