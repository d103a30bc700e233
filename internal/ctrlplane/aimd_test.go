package ctrlplane

import (
	"fmt"
	"testing"
	"time"

	"mpichgq/internal/sim"
)

// refLimiter is the reference AIMD limiter for FuzzLimiterGrants: the
// same window arithmetic as Limiter, with Acquire written as the plain
// process loop — sleep out a hold, take a free slot, or wait for the
// next broadcast and check again.
type refLimiter struct {
	k                    *sim.Kernel
	cond                 *sim.Cond
	minWindow, maxWindow float64
	window               float64
	inflight             int
	holdUntil            time.Duration
}

func (l *refLimiter) Acquire(ctx *sim.Ctx) {
	for {
		if hold := l.holdUntil - l.k.Now(); hold > 0 {
			ctx.Sleep(hold)
			continue
		}
		if l.inflight < int(l.window) {
			l.inflight++
			return
		}
		l.cond.Wait(ctx)
	}
}

func (l *refLimiter) Cancel() {
	l.inflight--
	l.cond.Broadcast()
}

func (l *refLimiter) Release(ok, overloaded bool, retryAfter time.Duration) {
	l.inflight--
	if ok {
		l.window = min(l.window+1/l.window, l.maxWindow)
	} else {
		l.window = max(l.window/2, l.minWindow)
		if overloaded && retryAfter > 0 {
			l.holdUntil = max(l.holdUntil, l.k.Now()+retryAfter)
		}
	}
	l.cond.Broadcast()
}

func (l *refLimiter) Window() float64 { return l.window }
func (l *refLimiter) Inflight() int   { return l.inflight }

// spawnHolding starts a process that acquires a slot, then runs fn.
func (l *refLimiter) spawnHolding(name string, fn func(*sim.Ctx)) {
	l.k.Spawn(name, func(ctx *sim.Ctx) {
		l.Acquire(ctx)
		fn(ctx)
	})
}

// gatedLimiter adds the storm's gated spawn to Limiter: the process is
// created behind TryAcquire and starts holding its slot.
type gatedLimiter struct {
	*Limiter
}

func (l gatedLimiter) spawnHolding(name string, fn func(*sim.Ctx)) {
	l.k.SpawnWhen(name, l.TryAcquire, fn)
}

type grantLimiter interface {
	Acquire(*sim.Ctx)
	Cancel()
	Release(ok, overloaded bool, retryAfter time.Duration)
	Window() float64
	Inflight() int
	spawnHolding(name string, fn func(*sim.Ctx))
}

// grantActor is one acquirer of a decoded FuzzLimiterGrants program.
type grantActor struct {
	at         time.Duration
	gated      bool // spawned behind the limiter's gate, not Acquire
	abandon    bool // Cancel the first slot instead of using it
	rounds     int
	hold       time.Duration // slot use before Release
	ok         bool
	overloaded bool
	retryAfter time.Duration
}

type grantProgram struct {
	maxWindow float64
	actors    []grantActor
}

// decodeGrantProgram reads the window cap from the first byte, then
// three bytes per acquirer: arrival time; flags (gated, abandon,
// outcome, rounds); slot hold and retry-after. Millisecond-scale times
// make simultaneous arrivals, releases and hold expiries common.
func decodeGrantProgram(data []byte) grantProgram {
	p := grantProgram{maxWindow: 1}
	if len(data) == 0 {
		return p
	}
	p.maxWindow = float64(1 + data[0]%6)
	data = data[1:]
	for len(data) >= 3 && len(p.actors) < 64 {
		b0, b1, b2 := data[0], data[1], data[2]
		data = data[3:]
		a := grantActor{
			at:         time.Duration(b0%32) * time.Millisecond,
			gated:      b1&1 != 0,
			abandon:    b1&2 != 0,
			rounds:     1 + int(b1>>4&1),
			hold:       time.Duration(b2%8) * time.Millisecond,
			retryAfter: time.Duration(b2>>3%8) * 3 * time.Millisecond,
		}
		switch b1 >> 2 & 3 {
		case 1: // deadline
		case 2:
			a.overloaded = true
		default:
			a.ok = true
		}
		p.actors = append(p.actors, a)
	}
	return p
}

// runGrants runs prog against lim and returns the grant log — one
// "time actor.round" line per slot granted — followed by the final
// window, in-flight count and kernel event count.
func runGrants(t *testing.T, k *sim.Kernel, lim grantLimiter, prog grantProgram) []string {
	var log []string
	for i, a := range prog.actors {
		name := fmt.Sprintf("actor-%d", i)
		body := func(ctx *sim.Ctx) {
			for r := 0; r < a.rounds; r++ {
				if r > 0 {
					lim.Acquire(ctx)
				}
				log = append(log, fmt.Sprintf("%v %d.%d", ctx.Now(), i, r))
				if a.abandon && r == 0 {
					lim.Cancel()
					continue
				}
				ctx.Sleep(a.hold)
				lim.Release(a.ok, a.overloaded, a.retryAfter)
			}
		}
		k.At(a.at, sim.PrioNormal, func() {
			if a.gated {
				lim.spawnHolding(name, body)
				return
			}
			k.Spawn(name, func(ctx *sim.Ctx) {
				lim.Acquire(ctx)
				body(ctx)
			})
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n := k.LiveProcs(); n != 0 {
		t.Fatalf("%d acquirers never finished: %v", n, k.BlockedProcs())
	}
	return append(log, fmt.Sprintf("window %.6f inflight %d events %d", lim.Window(), lim.Inflight(), k.EventsRun()))
}

// FuzzLimiterGrants checks Limiter — whose Acquire re-checks in a
// kernel-side gate and whose gated spawns hold no goroutine while they
// wait — against refLimiter: the same grants to the same acquirers at
// the same instants, the same final window and in-flight count, and
// the same number of kernel events.
func FuzzLimiterGrants(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := decodeGrantProgram(data)
		k := sim.New(1)
		lim := NewLimiter(k, "fuzz", 1, prog.maxWindow)
		got := runGrants(t, k, gatedLimiter{lim}, prog)
		rk := sim.New(1)
		ref := &refLimiter{k: rk, cond: sim.NewCond(rk), minWindow: 1, maxWindow: prog.maxWindow, window: 1}
		want := runGrants(t, rk, ref, prog)
		for i := 0; i < len(got) || i < len(want); i++ {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				t.Fatalf("line %d of %d actors: limiter %q, reference %q", i, len(prog.actors), g, w)
			}
		}
	})
}
