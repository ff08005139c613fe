// Package faultinject is the chaos harness behind the cluster layer's
// robustness claims: a fault-injecting http.RoundTripper (and a
// reverse-proxy wrapper, see proxy.go) that makes a healthy backend
// look sick in scripted, replayable ways — added latency, transport
// errors, blackholes that hang until the caller's deadline, response
// bodies that drip a few bytes at a time, and flap schedules that take
// the backend down for exact spans of its request sequence.
//
// Determinism is the point. Every random draw flows through an
// injected noise.Source and every schedule is keyed on the transport's
// own request counter, not the wall clock, so a chaos test that found
// a failover bug replays the identical fault pattern on every run —
// under -race, in CI, and ten years from now. (Live toggling of a
// node from outside the plan goes through SetDown, which is the one
// escape hatch from the scripted world.)
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dpgrid/dpgrid/internal/noise"
)

// ErrInjected is the transport error returned for requests the plan
// fails (error-rate draws, flap windows, SetDown). errors.Is-able so
// tests can tell an injected fault from a real one.
var ErrInjected = errors.New("faultinject: injected fault")

// Window is a half-open span [From, To) of the transport's request
// sequence numbers (0-based, in arrival order).
type Window struct {
	From, To uint64
}

func (w Window) contains(n uint64) bool { return n >= w.From && n < w.To }

// Plan scripts the faults. The zero value injects nothing.
type Plan struct {
	// Latency is added to every proxied exchange before it is sent.
	Latency time.Duration
	// LatencyJitter adds a uniform extra in [0, LatencyJitter) drawn
	// from the seeded source.
	LatencyJitter time.Duration
	// ErrorRate is the probability a request fails with ErrInjected
	// (after any latency — the slow-then-dead pattern real overloaded
	// backends show).
	ErrorRate float64
	// BlackholeRate is the probability a request hangs until its
	// context is done — the failure mode timeouts exist for.
	BlackholeRate float64
	// SlowBodyChunk > 0 drips response bodies SlowBodyChunk bytes per
	// SlowBodyDelay instead of returning them whole: a slow-loris
	// backend.
	SlowBodyChunk int
	SlowBodyDelay time.Duration
	// Flaps are request-sequence windows during which every request
	// fails with ErrInjected: kill/restore scripts with exact,
	// replayable edges.
	Flaps []Window
}

// Transport is a fault-injecting http.RoundTripper wrapping an inner
// one. It is safe for concurrent use; the fault decisions of
// concurrent requests are serialized against the seeded source, so a
// sequential driver replays exactly.
type Transport struct {
	inner http.RoundTripper
	plan  Plan

	mu  sync.Mutex
	src noise.Source

	stop      chan struct{}
	closeOnce sync.Once

	seq  atomic.Uint64
	down atomic.Bool

	// injected counts requests failed or hung by the plan, for test
	// assertions that the script actually fired.
	injected atomic.Uint64
}

// New wraps inner with plan. src seeds the probabilistic faults; nil
// is valid when the plan draws nothing (pure schedules and latency).
// A nil inner uses http.DefaultTransport.
func New(inner http.RoundTripper, plan Plan, src noise.Source) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &Transport{inner: inner, plan: plan, src: src, stop: make(chan struct{})}
}

// Close releases every request currently parked in a blackhole (they
// fail with ErrInjected) and makes future blackhole draws fail
// immediately instead of hanging. Call it before shutting down a
// server whose handlers run through this transport, or blackholed
// handler goroutines can outlive their caller and stall the shutdown.
func (t *Transport) Close() { t.closeOnce.Do(func() { close(t.stop) }) }

// SetDown forces every subsequent request to fail with ErrInjected
// (true) or returns control to the scripted plan (false). This is the
// live-control knob interactive chaos drivers use; scripted tests
// should prefer Flaps, which replay exactly.
func (t *Transport) SetDown(down bool) { t.down.Store(down) }

// Down reports whether the live-control switch currently fails
// requests.
func (t *Transport) Down() bool { return t.down.Load() }

// Requests returns how many requests the transport has seen.
func (t *Transport) Requests() uint64 { return t.seq.Load() }

// Injected returns how many requests the plan (or SetDown) failed,
// hung, or dripped.
func (t *Transport) Injected() uint64 { return t.injected.Load() }

// uniform draws one value in [0,1) from the seeded source; without a
// source it returns 1, which no rate in [0,1] exceeds — probabilistic
// faults simply never fire.
func (t *Transport) uniform() float64 {
	if t.src == nil {
		return 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.src.Uniform()
}

// sleep waits for d or the context, whichever ends first.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// RoundTrip applies the plan to one exchange.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	n := t.seq.Add(1) - 1
	ctx := req.Context()

	if t.down.Load() {
		t.injected.Add(1)
		return nil, fmt.Errorf("%w: forced down (request %d)", ErrInjected, n)
	}
	for _, w := range t.plan.Flaps {
		if w.contains(n) {
			t.injected.Add(1)
			return nil, fmt.Errorf("%w: flap window [%d,%d) (request %d)", ErrInjected, w.From, w.To, n)
		}
	}

	delay := t.plan.Latency
	if t.plan.LatencyJitter > 0 {
		delay += time.Duration(t.uniform() * float64(t.plan.LatencyJitter))
	}
	if delay > 0 {
		if err := sleep(ctx, delay); err != nil {
			t.injected.Add(1)
			return nil, fmt.Errorf("%w: latency cut short: %v", ErrInjected, err)
		}
	}

	if t.plan.BlackholeRate > 0 && t.uniform() < t.plan.BlackholeRate {
		t.injected.Add(1)
		// Drain the request body first: when this transport runs inside a
		// server handler (the reverse proxy), the http server only arms
		// client-disconnect cancellation of ctx after the body is
		// consumed — an unread body would park this goroutine forever.
		if req.Body != nil {
			_, _ = io.Copy(io.Discard, req.Body)
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: blackhole (request %d): %v", ErrInjected, n, ctx.Err())
		case <-t.stop:
			return nil, fmt.Errorf("%w: blackhole released by Close (request %d)", ErrInjected, n)
		}
	}
	if t.plan.ErrorRate > 0 && t.uniform() < t.plan.ErrorRate {
		t.injected.Add(1)
		return nil, fmt.Errorf("%w: error draw (request %d)", ErrInjected, n)
	}

	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if t.plan.SlowBodyChunk > 0 {
		t.injected.Add(1)
		resp.Body = &dripBody{
			ctx:   ctx,
			inner: resp.Body,
			chunk: t.plan.SlowBodyChunk,
			delay: t.plan.SlowBodyDelay,
		}
	}
	return resp, nil
}

// dripBody throttles an http response body to chunk bytes per delay,
// starting with a delay so even a tiny body costs at least one pause.
type dripBody struct {
	ctx   context.Context
	inner io.ReadCloser
	chunk int
	delay time.Duration
}

func (d *dripBody) Read(p []byte) (int, error) {
	if err := sleep(d.ctx, d.delay); err != nil {
		return 0, err
	}
	if len(p) > d.chunk {
		p = p[:d.chunk]
	}
	return d.inner.Read(p)
}

func (d *dripBody) Close() error { return d.inner.Close() }
