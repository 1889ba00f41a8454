package replica

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"sync"
)

// ErrConnReset is the transport-level failure FlakyTransport injects
// for a simulated connection reset.
var ErrConnReset = errors.New("replica: injected connection reset")

// FlakyTransport wraps an http.RoundTripper with seeded fault
// injection: whole-request connection resets, truncated response
// bodies, and bit flips in the body. It exists for the fleet
// consistency and chaos tests — every fault it injects must be caught by
// the puller's verification, never served.
type FlakyTransport struct {
	Base http.RoundTripper
	// ResetProb is the probability a request fails outright with
	// ErrConnReset before reaching the base transport.
	ResetProb float64
	// TruncateProb is the probability a response body is cut short at a
	// random point (simulating a torn transfer under a dropped
	// connection; Content-Length is left stale, as a real tear would).
	TruncateProb float64
	// CorruptProb is the probability a single bit in the response body
	// is flipped (simulating in-flight corruption a CRC must catch).
	CorruptProb float64

	mu  sync.Mutex
	rnd *rand.Rand

	resets      int
	truncations int
	corruptions int
}

// NewFlakyTransport seeds a transport over base (nil means
// http.DefaultTransport) deterministically.
func NewFlakyTransport(base http.RoundTripper, seed int64) *FlakyTransport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &FlakyTransport{Base: base, rnd: rand.New(rand.NewSource(seed))}
}

// Counts reports how many faults of each kind have been injected.
func (f *FlakyTransport) Counts() (resets, truncations, corruptions int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.resets, f.truncations, f.corruptions
}

// SetProbs changes the fault probabilities race-free while requests are
// in flight; the chaos harness uses it to arm and disarm fault phases.
func (f *FlakyTransport) SetProbs(reset, truncate, corrupt float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ResetProb, f.TruncateProb, f.CorruptProb = reset, truncate, corrupt
}

// roll draws the fault decisions for one request under the lock.
func (f *FlakyTransport) roll() (reset bool, truncate bool, corrupt bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	reset = f.rnd.Float64() < f.ResetProb
	truncate = f.rnd.Float64() < f.TruncateProb
	corrupt = f.rnd.Float64() < f.CorruptProb
	if reset {
		f.resets++
	}
	return
}

// frac draws a uniform fraction under the lock.
func (f *FlakyTransport) frac() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rnd.Float64()
}

func (f *FlakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	reset, truncate, corrupt := f.roll()
	if reset {
		return nil, ErrConnReset
	}
	resp, err := f.Base.RoundTrip(req)
	if err != nil || resp.Body == nil || (!truncate && !corrupt) {
		return resp, err
	}
	body, rerr := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if rerr != nil {
		return nil, rerr
	}
	if truncate && len(body) > 0 {
		cut := int(f.frac() * float64(len(body)))
		body = body[:cut]
		f.mu.Lock()
		f.truncations++
		f.mu.Unlock()
	}
	if corrupt && len(body) > 0 {
		i := int(f.frac() * float64(len(body)))
		if i >= len(body) {
			i = len(body) - 1
		}
		bit := byte(1) << (int(f.frac()*8) % 8)
		body[i] ^= bit
		f.mu.Lock()
		f.corruptions++
		f.mu.Unlock()
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}
