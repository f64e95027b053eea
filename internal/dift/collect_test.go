package dift

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"turnstile/internal/policy"
)

// The collector must gather exactly what the recursive walk it replaced
// gathered: the same label and integrity sets, the same ⊤ joins past the
// depth bound, and the same fail-closed poisoning. The old walk is kept
// below verbatim as the oracle, and random value graphs (cycles, boxes
// shared between containers, boxes at the depth bound, overflowing
// chains, CNF property walks) are checked against it.

// --- oracle: the recursive walk as it stood before the collector --------

func (t *Tracker) oracleDataLabels(v any) policy.LabelSet {
	var union policy.LabelSet
	seen := make(map[*Labels]bool)
	t.collect(v, &union, seen, 0)
	return union
}

func (t *Tracker) collect(v any, union *policy.LabelSet, seen map[*Labels]bool, depth int) {
	if depth > maxCollectDepth {
		// Truncating a plain value is lossless — it carries no identity
		// and reaches nothing — but truncating a Ref or a container may
		// hide labels below this point, and silently returning would
		// under-taint (fail-open). Join ⊤ instead — the sink check then
		// denies — and in fail-closed mode poison the tracker outright.
		// This also covers the `seen` cycle guard: a revisit can only lose
		// labels if the first visit truncated, and that truncation already
		// joined ⊤.
		if _, isRef := v.(Ref); !isRef {
			if _, isArr := t.Adapter.Elements(v); !isArr {
				return
			}
		}
		*union = union.Union(topSet)
		if t.FailClosed {
			t.Poison(fmt.Sprintf("collect depth overflow (> %d)", maxCollectDepth))
		}
		return
	}
	if r, ok := v.(Ref); ok {
		l := r.labelSlot()
		if seen[l] {
			return
		}
		seen[l] = true
		if l.rec != nil && !l.rec.sets[confidentiality].Empty() {
			*union = union.Union(l.rec.sets[confidentiality])
		}
	}
	if elems, ok := t.Adapter.Elements(v); ok {
		for _, el := range elems {
			t.collect(el, union, seen, depth+1)
		}
		return
	}
	if b, ok := v.(*Box); ok {
		t.collect(b.Val, union, seen, depth+1)
		return
	}
	// CNF mode walks object properties too: a compound policy's attack
	// surface includes stashing a secret under a dynamically computed key,
	// so collection must be exhaustive over the object graph. The flat path
	// skips this (properties are labelled onto the holder by the labeller
	// specs), keeping pre-CNF collection costs and output intact.
	if t.cnf && t.props != nil {
		if names, ok := t.props.PropertyNames(v); ok {
			for _, n := range names {
				if pv, found := t.Adapter.Property(v, n); found {
					t.collect(pv, union, seen, depth+1)
				}
			}
		}
	}
}

func (t *Tracker) oracleDataIntegrity(v any) policy.LabelSet {
	var union policy.LabelSet
	seen := make(map[*Labels]bool)
	t.collectInteg(v, &union, seen, 0)
	return union
}

func (t *Tracker) collectInteg(v any, union *policy.LabelSet, seen map[*Labels]bool, depth int) {
	if depth > maxCollectDepth {
		return
	}
	if r, ok := v.(Ref); ok {
		l := r.labelSlot()
		if seen[l] {
			return
		}
		seen[l] = true
		if l.rec != nil && !l.rec.sets[integrity].Empty() {
			*union = union.Union(l.rec.sets[integrity])
		}
	}
	if elems, ok := t.Adapter.Elements(v); ok {
		for _, el := range elems {
			t.collectInteg(el, union, seen, depth+1)
		}
		return
	}
	if b, ok := v.(*Box); ok {
		t.collectInteg(b.Val, union, seen, depth+1)
		return
	}
	if t.props != nil {
		if names, ok := t.props.PropertyNames(v); ok {
			for _, n := range names {
				if pv, found := t.Adapter.Property(v, n); found {
					t.collectInteg(pv, union, seen, depth+1)
				}
			}
		}
	}
}

// --- random value graphs ------------------------------------------------

// orderedAdapter lists properties in sorted order. Which visit of a shared
// container comes first decides where truncation happens, so the oracle
// and the collector must see one traversal order.
type orderedAdapter struct{ tAdapter }

func (orderedAdapter) PropertyNames(v any) ([]string, bool) {
	o, ok := v.(*tObj)
	if !ok {
		return nil, false
	}
	names := make([]string, 0, len(o.props))
	for n := range o.props {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, true
}

// byteSource turns a byte string into bounded choices; an exhausted
// source answers 0, so every input decodes to some graph.
type byteSource struct {
	b []byte
	i int
}

func (s *byteSource) next(n int) int {
	if s.i >= len(s.b) || n <= 0 {
		return 0
	}
	c := int(s.b[s.i])
	s.i++
	return c % n
}

var graphLabels = []policy.LabelSet{
	nil,
	policy.NewLabelSet("a"),
	policy.NewLabelSet("b"),
	policy.NewLabelSet("a", "c"),
	policy.NewLabelSet("a|b"),
}

// genGraph decodes a tracker and a pool of values whose labels and links
// are drawn from src. Arrays and objects link to arbitrary pool members,
// so cycles and boxes shared between containers are common; nested chains
// put pool members at, just inside and just past the depth bound.
func genGraph(t *testing.T, src *byteSource) (*Tracker, []any) {
	cnf, failClosed := src.next(2) == 1, src.next(2) == 1
	p := testPolicy(t, "a -> b")
	if cnf {
		err := p.SetCNF([]policy.Exchange{{Guard: "Paid", From: "a", Adds: []policy.Label{"b"}}}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	tr := NewTracker(p, orderedAdapter{})
	tr.FailClosed = failClosed

	n := 4 + src.next(16)
	pool := make([]any, 0, 2*n)
	var arrs []*tArr
	var objs []*tObj
	for i := 0; i < n; i++ {
		var v any
		switch src.next(6) {
		case 0:
			v = fmt.Sprintf("s%d", i)
		case 1:
			v = tr.Attach(float64(i), graphLabels[1+src.next(len(graphLabels)-1)])
		case 2:
			v = tr.Track(fmt.Sprintf("t%d", i))
		case 3:
			o := newObj()
			objs = append(objs, o)
			v = o
		default:
			a := newArr()
			arrs = append(arrs, a)
			v = a
		}
		if _, isArr := v.(*tArr); isArr || src.next(2) == 0 {
			v = tr.Attach(v, graphLabels[src.next(len(graphLabels))])
		}
		if src.next(3) == 0 {
			v = tr.AttachIntegrity(v, policy.NewLabelSet(policy.Label(fmt.Sprintf("I%d", src.next(3)))))
		}
		pool = append(pool, v)
	}
	for _, a := range arrs {
		for k := src.next(4); k > 0; k-- {
			a.elems = append(a.elems, pool[src.next(len(pool))])
		}
	}
	for _, o := range objs {
		for k := src.next(4); k > 0; k-- {
			o.props[fmt.Sprintf("p%d", k)] = pool[src.next(len(pool))]
		}
	}
	for k := src.next(4); k > 0; k-- {
		pool = append(pool, nest(pool[src.next(len(pool))], maxCollectDepth-1+src.next(4)))
	}
	return tr, pool
}

// checkCollectorAgainstOracle compares the collector with the oracle from
// every root of one decoded graph, on fresh copies of the tracker so each
// side's poisoning is observed separately.
func checkCollectorAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	tr, pool := genGraph(t, &byteSource{b: data})
	for i, root := range pool {
		want, got := *tr, *tr
		wl, gl := want.oracleDataLabels(root), got.DataLabels(root)
		if !wl.Equal(gl) {
			t.Fatalf("root %d (%v): DataLabels = %v, oracle %v", i, root, gl, wl)
		}
		wd, wr := want.Degraded()
		gd, gr := got.Degraded()
		if wd != gd || wr != gr {
			t.Fatalf("root %d: poisoned = %v %q, oracle %v %q", i, gd, gr, wd, wr)
		}
		if wi, gi := want.oracleDataIntegrity(root), got.DataIntegrity(root); !wi.Equal(gi) {
			t.Fatalf("root %d (%v): DataIntegrity = %v, oracle %v", i, root, gi, wi)
		}
	}
	// several roots into one accumulator (InvokeCheckTarget, exchanged)
	// equal the union of their separate collections
	want, got := *tr, *tr
	var wl, wi policy.LabelSet
	c := collector{t: &got}
	ci := collector{t: &got, kind: integrity}
	for _, root := range pool {
		wl = wl.Union(want.oracleDataLabels(root))
		wi = wi.Union(want.oracleDataIntegrity(root))
		c.root(root)
		ci.root(root)
	}
	if !wl.Equal(c.acc) || !wi.Equal(ci.acc) {
		t.Fatalf("multi-root: labels %v integrity %v, oracle %v %v", c.acc, ci.acc, wl, wi)
	}
}

func TestCollectorMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(20261016))
	for i := 0; i < 2000; i++ {
		data := make([]byte, 16+r.Intn(112))
		r.Read(data)
		checkCollectorAgainstOracle(t, data)
	}
}

func FuzzDataLabelsEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 12, 4, 4, 1, 3, 2, 0, 1, 1, 5, 3, 3, 3, 3})
	f.Add([]byte{0, 1, 6, 1, 0, 2, 1, 4, 0, 1, 4, 0, 0, 2, 3, 1, 2, 3, 3, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCollectorAgainstOracle(t, data)
	})
}

// TestCollectorAllocations pins the cheap paths: a plain value or a box
// around one is answered without allocating, and deriving from a labelled
// box allocates only the result's box and its one owned label set (a map
// header and its first group).
func TestCollectorAllocations(t *testing.T) {
	tr := tracker(t, "a -> b")
	box := tr.Attach("v", policy.NewLabelSet("a"))
	for name, v := range map[string]any{"plain": "v", "box": box} {
		if n := testing.AllocsPerRun(100, func() { tr.DataLabels(v) }); n != 0 {
			t.Errorf("DataLabels(%s) allocates %.0f times", name, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { tr.Derive("r", box, "x") }); n > 3 {
		t.Errorf("Derive from a labelled box allocates %.0f times, want at most 3", n)
	}
}
