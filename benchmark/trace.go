package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans of one operation (one cold
// start, one churn cycle, one solve) share Op; Parent is the span that
// caused this one, -1 for an operation's root. Name is "layer.call";
// Class groups operations whose shares are reported together (the churn
// class, the section). Start and End are nanoseconds since the tracer
// was created.
type span struct {
	ID, Parent int32
	Op         int32
	Class      string
	Name       string
	Start, End int64
}

func (s span) dur() int64 { return s.End - s.Start }

// layerOf is the part of a span name before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run takes the same code path without the cost.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin(parent, op int32, class, name string) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Class: class, Name: name, Start: t.now()})
	return id
}

func (t *tracer) end(id int32) {
	if t != nil {
		t.spans[id].End = t.now()
	}
}

// child records a span of known duration inside parent, for work a layer
// reports about itself (ScoreSet.SolveTime, RefreshStats) and that the
// benchmark cannot bracket from outside. Such spans are laid end to end
// from the parent's start; only their durations carry meaning.
func (t *tracer) child(parent int32, name string, d time.Duration) {
	if t == nil {
		return
	}
	p := t.spans[parent]
	start := p.Start
	for _, s := range t.spans[parent+1:] {
		if s.Parent == parent && s.End > start {
			start = s.End
		}
	}
	t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: parent, Op: p.Op, Class: p.Class, Name: name, Start: start, End: start + int64(d)})
}

// op is the handle a workload holds while it runs one operation.
type op struct {
	t     *tracer
	id    int32
	class string
	root  int32
	start time.Time
}

// beginOp opens an operation's root span, named "harness.<class>": its
// self time is the benchmark's own code between the calls into layers.
func (t *tracer) beginOp(id int, class string) *op {
	return &op{t: t, id: int32(id), class: class, root: t.begin(-1, int32(id), class, "harness."+class), start: time.Now()}
}

// untracedOp is an operation nobody records: warm-ups and probes.
func untracedOp(class string) *op { return (*tracer)(nil).beginOp(0, class) }

// call times fn as one call into a layer and returns its duration.
func (o *op) call(name string, fn func()) time.Duration {
	return o.callWith(name, func() []stage { fn(); return nil })
}

// callWith is call for a layer that reports inner stages itself: after fn
// returns, inner lists (name, duration) pairs recorded as child spans.
func (o *op) callWith(name string, fn func() []stage) time.Duration {
	id := o.t.begin(o.root, o.id, o.class, name)
	t0 := time.Now()
	inner := fn()
	d := time.Since(t0)
	o.t.end(id)
	for _, st := range inner {
		o.t.child(id, st.name, st.d)
	}
	return d
}

type stage struct {
	name string
	d    time.Duration
}

// finish closes the root span and returns the operation's wall time.
func (o *op) finish() time.Duration {
	d := time.Since(o.start)
	o.t.end(o.root)
	return d
}

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ch := kids[s.ID]
		slices.SortFunc(ch, func(a, b span) int { return int(a.Start - b.Start) })
		covered, edge := int64(0), s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerShare is one layer's self time as a share of its class's
// operation wall time.
type layerShare struct {
	Layer string  `json:"layer"`
	Share float64 `json:"share"`
}

// classProfile attributes the wall time of all operations of one class
// to layers by self time.
type classProfile struct {
	Class  string       `json:"class"`
	Ops    int          `json:"ops"`
	WallNs int64        `json:"wall_ns"`
	Layers []layerShare `json:"layers"` // descending share
	// SelfSum is Σ layer self time / wall time; 1 when every nanosecond
	// of every operation is attributed to exactly one span.
	SelfSum float64 `json:"self_sum"`
}

// criticalPath is the three layers with the largest share.
func (p classProfile) criticalPath() []layerShare { return p.Layers[:min(3, len(p.Layers))] }

func profile(spans []span) []classProfile {
	self := selfTimes(spans)
	type acc struct {
		wall  int64
		ops   int
		layer map[string]int64
	}
	byClass := map[string]*acc{}
	var order []string
	for i, s := range spans {
		a := byClass[s.Class]
		if a == nil {
			a = &acc{layer: map[string]int64{}}
			byClass[s.Class] = a
			order = append(order, s.Class)
		}
		if s.Parent < 0 {
			a.wall += s.dur()
			a.ops++
		}
		a.layer[layerOf(s.Name)] += self[i]
	}
	var out []classProfile
	for _, c := range order {
		a := byClass[c]
		p := classProfile{Class: c, Ops: a.ops, WallNs: a.wall}
		var sum int64
		for l, ns := range a.layer {
			sum += ns
			p.Layers = append(p.Layers, layerShare{Layer: l, Share: float64(ns) / float64(max(a.wall, 1))})
		}
		slices.SortFunc(p.Layers, func(x, y layerShare) int {
			if x.Share != y.Share {
				if x.Share > y.Share {
					return -1
				}
				return 1
			}
			return strings.Compare(x.Layer, y.Layer)
		})
		p.SelfSum = float64(sum) / float64(max(a.wall, 1))
		out = append(out, p)
	}
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"op":%d,"class":%q,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.ID, s.Parent, s.Op, s.Class, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations returns the duration of every span with the given name.
func (t *tracer) durations(name string) samples {
	var out samples
	if t == nil {
		return out
	}
	for _, s := range t.spans {
		if s.Name == name {
			out.add(time.Duration(s.dur()))
		}
	}
	return out
}

// merge appends the spans another goroutine recorded on its own tracer
// (same t0), renumbering them.
func (t *tracer) merge(o *tracer) {
	base := int32(len(t.spans))
	for _, s := range o.spans {
		s.ID += base
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}
