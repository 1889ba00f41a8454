package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"time"
)

// respWriter is the in-process ResponseWriter the clients reuse: it
// keeps the status and headers, counts the body, and copies the body
// only when capture is set.
type respWriter struct {
	h       http.Header
	status  int
	capture bool
	body    []byte
}

func newRespWriter() *respWriter { return &respWriter{h: make(http.Header, 8)} }

func (w *respWriter) Header() http.Header  { return w.h }
func (w *respWriter) WriteHeader(code int) { w.status = code }
func (w *respWriter) Write(p []byte) (int, error) {
	if w.capture {
		w.body = append(w.body, p...)
	}
	return len(p), nil
}

// serve answers req through h directly, without a socket.
func (w *respWriter) serve(h http.Handler, req *http.Request) {
	w.status, w.body = http.StatusOK, w.body[:0]
	w.h["Etag"] = nil // uncached endpoints set none; never read a stale one
	h.ServeHTTP(w, req)
}

// version parses the snapshot version out of the `"v<N>"` ETag; 0 when
// the response carried none.
func (w *respWriter) version() uint64 {
	tag := w.h["Etag"]
	if len(tag) == 0 || len(tag[0]) < 4 {
		return 0
	}
	var v uint64
	for _, c := range []byte(tag[0][2 : len(tag[0])-1]) {
		if c < '0' || c > '9' {
			return 0
		}
		v = v*10 + uint64(c-'0')
	}
	return v
}

// reqKind is one endpoint of the serving mix.
type reqKind uint8

const (
	kindTopK reqKind = iota
	kindRank
	kindCompare
	kindSnapshot
	numKinds
)

var kindNames = [numKinds]string{"topk", "rank", "compare", "snapshot"}

// servingMix is topk=70, rank=20, compare=5, snapshot=5, as cumulative
// percentages.
var servingMix = [numKinds]int{70, 90, 95, 100}

func pickKind(rng *rand.Rand) reqKind {
	x := rng.Intn(100)
	for k, cum := range servingMix {
		if x < cum {
			return reqKind(k)
		}
	}
	return kindSnapshot
}

// issuer is one client: prebuilt requests (the mux writes path-match
// state into a request, so pools are per client) and a reusable writer.
type issuer struct {
	h       http.Handler
	rng     *rand.Rand
	w       *respWriter
	topk    *http.Request
	snap    *http.Request
	rank    []*http.Request
	compare []*http.Request
}

func newIssuer(h http.Handler, sources int, seed uint64) *issuer {
	rng := rand.New(rand.NewSource(int64(seed)*7919 + 17))
	is := &issuer{h: h, rng: rng, w: newRespWriter(),
		topk: newRequest("/v1/topk?n=10"), snap: newRequest("/v1/snapshot")}
	const pool = 64
	for i := 0; i < pool; i++ {
		is.rank = append(is.rank, newRequest(fmt.Sprintf("/v1/rank/%d", rng.Intn(sources))))
		is.compare = append(is.compare, newRequest(fmt.Sprintf("/v1/compare?a=%d&b=%d", rng.Intn(sources), rng.Intn(sources))))
	}
	return is
}

func (is *issuer) pick() reqKind { return pickKind(is.rng) }

func (is *issuer) issue(k reqKind) int {
	req := is.snap
	switch k {
	case kindTopK:
		req = is.topk
	case kindRank:
		req = is.rank[is.rng.Intn(len(is.rank))]
	case kindCompare:
		req = is.compare[is.rng.Intn(len(is.compare))]
	}
	is.w.serve(is.h, req)
	return is.w.status
}

// schedule is an open-loop arrival plan: request i is due at Due[i]
// after the phase starts, whatever the system is doing by then.
type schedule struct {
	Due  []time.Duration
	Kind []reqKind
}

// poissonSchedule draws exponential gaps at the given rate until the
// phase length is covered; the same seed gives the same plan.
func poissonSchedule(seed uint64, rate float64, length time.Duration) schedule {
	rng := rand.New(rand.NewSource(int64(seed)*104729 + 71))
	n := int(rate*length.Seconds()) + 1
	s := schedule{Due: make([]time.Duration, 0, n), Kind: make([]reqKind, 0, n)}
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= length {
			return s
		}
		s.Due = append(s.Due, d)
		s.Kind = append(s.Kind, pickKind(rng))
	}
}

// openLoopResult holds, per request, the latency counted from when the
// request was due and how late the generator started it.
type openLoopResult struct {
	Latency []time.Duration
	Late    []time.Duration
}

// runOpenLoop walks the schedule with one spin-paced client. now and
// issue are parameters so the accounting can be tested with a fake
// clock. A request that starts late because the previous one was still
// being served keeps its due time: the wait a stall imposes on later
// requests counts against them.
func runOpenLoop(s schedule, now func() time.Duration, issue func(i int)) openLoopResult {
	res := openLoopResult{Latency: make([]time.Duration, len(s.Due)), Late: make([]time.Duration, len(s.Due))}
	for i, due := range s.Due {
		t := now()
		for t < due {
			t = now()
		}
		res.Late[i] = t - due
		issue(i)
		res.Latency[i] = now() - due
	}
	return res
}

// ratePerSecond is n events over d.
func ratePerSecond(n int, d time.Duration) float64 {
	return float64(n) / math.Max(d.Seconds(), 1e-9)
}
