package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimesSubtractChildCoverOnce(t *testing.T) {
	// root [0,100] with children [10,40] and [30,60] (overlapping: cover
	// 50) and [80,120] (clipped to the parent: cover 20); the first child
	// has a grandchild [15,25].
	spans := []span{
		{ID: 0, Parent: -1, Class: "c", Name: "harness.c", Start: 0, End: 100},
		{ID: 1, Parent: 0, Class: "c", Name: "a.x", Start: 10, End: 40},
		{ID: 2, Parent: 0, Class: "c", Name: "b.y", Start: 30, End: 60},
		{ID: 3, Parent: 0, Class: "c", Name: "b.z", Start: 80, End: 120},
		{ID: 4, Parent: 1, Class: "c", Name: "d.w", Start: 15, End: 25},
	}
	want := []int64{30, 20, 30, 40, 10}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d: self time %d, want %d", i, got, want[i])
		}
	}
}

func TestProfileSharesAndCriticalPath(t *testing.T) {
	tr := &tracer{t0: time.Now()}
	// Two operations of one class, laid out by hand: 100 ns each, 60 in
	// layer "slow", 30 in "fast", 10 left to the harness.
	for op := 0; op < 2; op++ {
		base := int64(op * 1000)
		root := int32(len(tr.spans))
		tr.spans = append(tr.spans,
			span{ID: root, Parent: -1, Op: int32(op), Class: "k", Name: "harness.k", Start: base, End: base + 100},
			span{ID: root + 1, Parent: root, Op: int32(op), Class: "k", Name: "slow.call", Start: base + 5, End: base + 65},
			span{ID: root + 2, Parent: root, Op: int32(op), Class: "k", Name: "fast.call", Start: base + 65, End: base + 95})
	}
	ps := profile(tr.spans)
	if len(ps) != 1 || ps[0].Ops != 2 || ps[0].WallNs != 200 {
		t.Fatalf("profile = %+v", ps)
	}
	cp := ps[0].criticalPath()
	if len(cp) != 3 || cp[0].Layer != "slow" || cp[1].Layer != "fast" || cp[2].Layer != "harness" {
		t.Fatalf("critical path = %+v", cp)
	}
	if math.Abs(cp[0].Share-0.6) > 1e-12 || math.Abs(cp[1].Share-0.3) > 1e-12 || math.Abs(ps[0].SelfSum-1) > 1e-12 {
		t.Errorf("shares = %+v, self sum %g", cp, ps[0].SelfSum)
	}
}

func TestChildSpansLaidEndToEnd(t *testing.T) {
	tr := &tracer{t0: time.Now()}
	tr.spans = append(tr.spans, span{ID: 0, Parent: -1, Name: "harness.k", Start: 100, End: 200})
	tr.child(0, "core.solve", 30)
	tr.child(0, "rank.solve", 20)
	if a, b := tr.spans[1], tr.spans[2]; a.Start != 100 || a.End != 130 || b.Start != 130 || b.End != 150 {
		t.Errorf("children at [%d,%d] and [%d,%d]", a.Start, a.End, b.Start, b.End)
	}
	if self := selfTimes(tr.spans); self[0] != 50 {
		t.Errorf("parent self time %d, want 50", self[0])
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	o := tr.beginOp(0, "c")
	ran := false
	o.call("a.b", func() { ran = true })
	o.callWith("a.c", func() []stage { return []stage{{"x.y", time.Second}} })
	if o.finish() < 0 || !ran || len(tr.durations("a.b")) != 0 {
		t.Error("nil tracer must run the call and record nothing")
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{12, 0, false}, {39, 0, false}, {40, 0.75, true}, {99, 0.75, true}, {100, 0.90, true},
		{200, 0.95, true}, {1000, 0.99, true}, {9999, 0.99, true}, {10000, 0.999, true}, {1_500_000, 0.999, true}} {
		got, ok := tailPercentile(c.n)
		if ok != c.ok || got != c.want {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestQuantileAndSpreadMatchPythonStatistics(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %g", got)
	}
	if got := quantile(xs, 0.75); math.Abs(got-7.75) > 1e-12 {
		t.Errorf("p75 = %g, want 7.75", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5", got)
	}
}

func TestOpenLoopCountsFromDueTime(t *testing.T) {
	// A fake clock that only moves when the loop polls it (1 ns a poll)
	// or a request is served (15 ns each): requests are due at 10, 20 and
	// 30, so the second and third start late and carry that wait.
	var clock time.Duration
	now := func() time.Duration { clock++; return clock }
	plan := schedule{Due: []time.Duration{10, 20, 30}, Kind: make([]reqKind, 3)}
	res := runOpenLoop(plan, now, func(int) { clock += 15 })
	wantLate := []time.Duration{0, 7, 14}
	wantLatency := []time.Duration{16, 23, 30}
	for i := range plan.Due {
		if res.Late[i] != wantLate[i] || res.Latency[i] != wantLatency[i] {
			t.Errorf("request %d: late %d latency %d, want %d and %d", i, res.Late[i], res.Latency[i], wantLate[i], wantLatency[i])
		}
	}
}

func TestPoissonScheduleIsSeededAndAtRate(t *testing.T) {
	a := poissonSchedule(7, 100_000, 200*time.Millisecond)
	b := poissonSchedule(7, 100_000, 200*time.Millisecond)
	c := poissonSchedule(8, 100_000, 200*time.Millisecond)
	if len(a.Due) != len(b.Due) || a.Due[len(a.Due)-1] != b.Due[len(b.Due)-1] {
		t.Error("same seed, different schedule")
	}
	if len(c.Due) == len(a.Due) && c.Due[0] == a.Due[0] {
		t.Error("different seed, same schedule")
	}
	if n := len(a.Due); n < 19_000 || n > 21_000 {
		t.Errorf("%d arrivals in 0.2 s at 100 000/s", n)
	}
	topk := 0
	for i, d := range a.Due {
		if i > 0 && d < a.Due[i-1] {
			t.Fatal("due times not ascending")
		}
		if a.Kind[i] == kindTopK {
			topk++
		}
	}
	if share := float64(topk) / float64(len(a.Due)); share < 0.67 || share > 0.73 {
		t.Errorf("top-k share %.3f, mix says 0.70", share)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	for _, c := range []struct {
		name  string
		a, b  []float64
		lower bool
		want  string
	}{
		{"same", base, base, true, "within"},
		{"slower within bound", base, shift(1.05), true, "within"},
		{"slower beyond bound", base, shift(1.2), true, "worse"},
		{"faster", base, shift(0.9), true, "better"},
		{"higher is better, dropped", base, shift(0.8), false, "worse"},
		{"higher is better, rose", base, shift(1.1), false, "better"},
		{"spread hides the bound", noisy, shift(1.05), true, "unresolved"},
		{"every run worse despite spread", noisy, shift(2), true, "worse"},
	} {
		if got := verdict(c.a, c.b, c.lower, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
