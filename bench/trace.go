package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans nest through a stack kept by the goroutine that opens
// them: a span begun while another is open is its child. Calls made on
// other goroutines (the serve daemon's tenant workers) are recorded as
// finished leaf spans under the innermost open span.
type span struct {
	Name       string
	Req        string // request id: app or tenant (and version)
	Msg        int    // message index within Req, -1 for none
	Start, End time.Duration
	Parent     int // index into the recorder's spans, -1 for a root
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// the untraced path: every method is a no-op.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stack []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span for message msg (-1 for none) of request req and
// returns its handle.
func (r *recorder) begin(name, req string, msg int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Req: req, Msg: msg, Start: time.Since(r.t0), Parent: r.top()})
	id := len(r.spans) - 1
	r.stack = append(r.stack, id)
	return id
}

// top returns the innermost open span, -1 for none; r.mu is held.
func (r *recorder) top() int {
	if n := len(r.stack); n > 0 {
		return r.stack[n-1]
	}
	return -1
}

// end closes the span begun as id, which must be the innermost open one.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = time.Since(r.t0)
	r.stack = r.stack[:len(r.stack)-1]
}

// leaf records a finished span, from any goroutine, as a child of the
// innermost open span.
func (r *recorder) leaf(name, req string, msg int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Req: req, Msg: msg, Start: start.Sub(r.t0), End: end.Sub(r.t0), Parent: r.top()})
}

// do runs fn inside a span of request req.
func (r *recorder) do(name, req string, fn func() error) error {
	id := r.begin(name, req, -1)
	err := fn()
	r.end(id)
	return err
}

// selfStat aggregates the spans of one name.
type selfStat struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// selfTimes returns, per span name, the summed duration and the summed
// self time: each span's duration minus the part of its interval that its
// children cover. Sorted by self time, largest first.
func selfTimes(spans []span) []selfStat {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	by := make(map[string]*selfStat)
	for i, s := range spans {
		st := by[s.Name]
		if st == nil {
			st = &selfStat{Name: s.Name}
			by[s.Name] = st
		}
		st.Count++
		st.Total += s.End - s.Start
		st.Self += s.End - s.Start - covered(s, spans, children[i])
	}
	out := make([]selfStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns how much of parent's interval the union of the child
// intervals covers.
func covered(parent span, spans []span, kids []int) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			cur, open = v, true
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if open {
		total += cur.b - cur.a
	}
	return total
}

// selfOf returns the summed self time of the named spans.
func selfOf(stats []selfStat, name string) time.Duration {
	for _, st := range stats {
		if st.Name == name {
			return st.Self
		}
	}
	return 0
}

// renderSelfTimes formats the self-time table.
func renderSelfTimes(stats []selfStat) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %9s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, st := range stats {
		fmt.Fprintf(&b, "%-22s %9d %12.3f %12.3f\n", st.Name, st.Count, ms(st.Total), ms(st.Self))
	}
	return b.String()
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which chrome://tracing and Perfetto open directly.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChromeTrace writes the spans as a Chrome trace-event JSON file.
// Timestamps are microseconds since the recorder started; the category
// is the layer (the span name up to its first dot).
func writeChromeTrace(path string, spans []span) error {
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		args := map[string]string{}
		switch {
		case s.Msg >= 0:
			args["req"] = fmt.Sprintf("%s#%d", s.Req, s.Msg)
		case s.Req != "":
			args["req"] = s.Req
		}
		if s.Parent >= 0 {
			args["parent"] = spans[s.Parent].Name
		}
		cat, _, _ := strings.Cut(s.Name, ".")
		events[i] = chromeEvent{
			Name: s.Name, Cat: cat, Ph: "X", Pid: 1, Tid: 1,
			Ts: us(s.Start), Dur: us(s.End - s.Start), Args: args,
		}
	}
	data, err := json.Marshal(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
