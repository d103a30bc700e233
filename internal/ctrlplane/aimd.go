package ctrlplane

import (
	"time"

	"mpichgq/internal/metrics"
	"mpichgq/internal/sim"
)

// Limiter is client-side adaptive concurrency: an AIMD window on
// in-flight calls, the client half of the overload-control contract.
// Successes grow the window additively (+1/window per completion, the
// TCP-Reno shape); an overload or deadline failure halves it. An
// overload's retry-after hint pauses new acquisitions entirely until
// the server's estimate of drain time has passed, so a fleet of
// adaptive clients converges on the server's capacity instead of
// storming it.
type Limiter struct {
	k    *sim.Kernel
	cond *sim.Cond
	// gate is TryAcquire bound once, so Acquire allocates nothing.
	gate sim.Gate

	// MinWindow..MaxWindow bound the AIMD window.
	MinWindow, MaxWindow float64

	window    float64
	inflight  int
	holdUntil time.Duration // no new acquisitions before this

	gWindow *metrics.Gauge
}

// NewLimiter returns a Limiter starting at min concurrency.
func NewLimiter(k *sim.Kernel, name string, min, max float64) *Limiter {
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	l := &Limiter{
		k: k, cond: sim.NewCond(k),
		MinWindow: min, MaxWindow: max, window: min,
		gWindow: k.Metrics().Gauge("ctrl_aimd_window",
			"client AIMD concurrency window", "client", name),
	}
	l.gate = l.TryAcquire
	return l
}

// Window returns the current window size.
func (l *Limiter) Window() float64 { return l.window }

// Inflight returns the current in-flight count.
func (l *Limiter) Inflight() int { return l.inflight }

// Acquire blocks until an in-flight slot is available and any
// retry-after hold has passed, then takes the slot. The re-checks run
// in kernel context (see TryAcquire), so a waiter that a Release wakes
// but does not admit stays parked without being resumed.
func (l *Limiter) Acquire(ctx *sim.Ctx) { ctx.Await(l.gate) }

// TryAcquire is Acquire's gate (see sim.Gate): during a retry-after
// hold it asks to be checked again when the hold ends; with a free
// slot it takes the slot and admits; otherwise it waits for the next
// Release or Cancel. Spawning a process with TryAcquire as its gate
// (sim.Kernel.SpawnWhen) starts it holding a slot.
func (l *Limiter) TryAcquire() (wait *sim.Cond, retry time.Duration) {
	if hold := l.holdUntil - l.k.Now(); hold > 0 {
		return nil, hold
	}
	if l.inflight < int(l.window) {
		l.inflight++
		return nil, 0
	}
	return l.cond, 0
}

// Cancel returns a slot without an AIMD signal: the caller abandoned
// the request before sending anything, so the exchange says nothing
// about server health.
func (l *Limiter) Cancel() {
	l.inflight--
	l.cond.Broadcast()
}

// Release returns a slot and adapts the window: additive increase on
// success, multiplicative decrease on failure. overloaded failures
// also install the server's retry-after as an acquisition hold.
func (l *Limiter) Release(ok bool, overloaded bool, retryAfter time.Duration) {
	l.inflight--
	if ok {
		l.window += 1 / l.window
		if l.window > l.MaxWindow {
			l.window = l.MaxWindow
		}
	} else {
		l.window /= 2
		if l.window < l.MinWindow {
			l.window = l.MinWindow
		}
		if overloaded && retryAfter > 0 {
			if until := l.k.Now() + retryAfter; until > l.holdUntil {
				l.holdUntil = until
			}
		}
	}
	l.gWindow.Set(l.window)
	// Broadcast, not Signal: every waiter re-checks in FIFO order, and
	// a grown window or a hold can admit several or none. Which waiter
	// gets which slot follows from this order.
	l.cond.Broadcast()
}
