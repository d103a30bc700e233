package sim

import (
	"fmt"
	"time"
)

// Proc is a simulated process: a goroutine whose execution is
// interleaved with the event loop such that exactly one of (kernel,
// some process) runs at any moment. The goroutine and its channel are
// created on the process's first step, so a process whose start event
// never runs — or a gated spawn still waiting for its gate — costs no
// goroutine.
type Proc struct {
	k    *Kernel
	name string
	fn   func(ctx *Ctx)
	ctx  Ctx
	// sw carries both directions of the kernel/process handoff: the
	// kernel sends to resume the process, the process sends to yield.
	// The two strictly alternate, so one unbuffered channel suffices.
	sw chan struct{}
	// condWaiter is the process's wait state. A process waits on at
	// most one thing at a time, so Cond queues hold the Proc itself and
	// waiting allocates nothing.
	condWaiter
	idx     int // position in k.procs while live
	done    bool
	blocked bool
}

// Ctx is the handle a process function uses to interact with virtual
// time. It is only valid inside the process's own goroutine.
type Ctx struct {
	k *Kernel
	p *Proc
}

// A Gate decides, in kernel context, whether a waiting process may
// proceed. It returns (nil, 0) to admit the process, (c, 0) to wait
// for c's next Signal or Broadcast and then check again, or (nil, d)
// to check again after d of virtual time. A gate runs on the kernel's
// goroutine: it must not block, and it runs once per check, so any
// state it takes on admission (a slot, a token) it takes exactly once.
type Gate func() (wait *Cond, retry time.Duration)

// Spawn creates a process named name running fn and schedules it to
// start at the current virtual time. The returned Proc can be used to
// query completion.
func (k *Kernel) Spawn(name string, fn func(ctx *Ctx)) *Proc {
	return k.SpawnAt(k.now, name, fn)
}

// SpawnAt creates a process that starts at absolute virtual time at.
func (k *Kernel) SpawnAt(at time.Duration, name string, fn func(ctx *Ctx)) *Proc {
	p := k.newProc(name, fn)
	k.AtFunc(at, PrioNormal, stepProc, k, p)
	return p
}

// SpawnWhen creates a process that runs fn once gate admits it. The
// first gate check runs at the current instant, where Spawn's start
// event would; until the gate admits, the process counts in LiveProcs
// and is listed by BlockedProcs, but has no goroutine.
func (k *Kernel) SpawnWhen(name string, gate Gate, fn func(ctx *Ctx)) *Proc {
	p := k.newProc(name, fn)
	p.blocked = true
	p.gate = gate
	k.AtFunc(k.now, PrioNormal, gateProc, k, p)
	return p
}

func (k *Kernel) newProc(name string, fn func(ctx *Ctx)) *Proc {
	p := &Proc{k: k, name: name, fn: fn, idx: len(k.procs)}
	p.ctx = Ctx{k: k, p: p}
	k.procs = append(k.procs, p)
	return p
}

// stepProc is the prebound wakeup callback shared by every sleep and
// spawn event, so waking a process never allocates a closure.
func stepProc(a0, a1 any) { a0.(*Kernel).step(a1.(*Proc)) }

// gateProc is the prebound callback of a gate check: it runs the
// process's gate and wakes the process only if the gate admits and
// there is a process to wake (a Waiter has none).
func gateProc(a0, a1 any) {
	if p := a1.(*Proc); a0.(*Kernel).checkGate(p) && p.fn != nil {
		stepProc(a0, a1)
	}
}

// A Waiter is a gate with no process behind it, a handler that runs
// in kernel context. Its checks after the first run where a gated
// process's would: at the wakeup of the Cond the gate named, or after
// its retry delay. A gate that admits leaves the Waiter idle until the
// next Schedule, which must not come while it waits. A Waiter is not
// one of the kernel's processes and never has a goroutine.
type Waiter struct {
	p    Proc
	gate Gate
}

// NewWaiter returns an idle Waiter that runs gate on kernel k.
func NewWaiter(k *Kernel, gate Gate) *Waiter {
	w := &Waiter{gate: gate}
	w.p.k = k
	return w
}

// Schedule runs the gate in an event at the current instant, behind
// the events already queued for it: the slot of a Spawn's start.
func (w *Waiter) Schedule() {
	k := w.p.k
	k.AtFunc(k.now, PrioNormal, checkWaiter, w, nil)
}

// checkWaiter is Schedule's prebound callback.
func checkWaiter(a0, _ any) {
	w := a0.(*Waiter)
	w.p.gate = w.gate
	w.p.k.checkGate(&w.p)
}

// checkGate runs p's gate. If the gate admits, it clears the gate and
// reports true; otherwise it queues p on the gate's Cond or schedules
// the retry check, and reports false.
func (k *Kernel) checkGate(p *Proc) bool {
	c, retry := p.gate()
	switch {
	case c != nil:
		c.enqueue(p)
	case retry > 0:
		k.AtFunc(k.now+retry, PrioNormal, gateProc, k, p)
	default:
		p.gate = nil
		return true
	}
	return false
}

// step transfers control to process p and waits for it to block or
// finish, starting p's goroutine on its first step. It must only be
// called from the kernel goroutine (i.e. from inside an event
// callback).
func (k *Kernel) step(p *Proc) {
	if p.done {
		return
	}
	k.switches++
	prev := k.cur
	k.cur = p
	p.blocked = false
	if p.sw == nil {
		p.sw = make(chan struct{})
		//lint:ignore determinism,shardsafety this goroutine IS Kernel.Spawn's implementation; the kernel admits exactly one runnable process at a time via the sw handshake, so scheduling stays deterministic and the process never leaves the owning kernel's control
		go p.run()
	} else {
		p.sw <- struct{}{}
	}
	<-p.sw
	k.cur = prev
	if p.done {
		k.dropProc(p)
	}
}

// run is the body of p's goroutine: the process function, then the
// final yield back to the kernel. A panic is captured as the kernel's
// error.
func (p *Proc) run() {
	defer func() {
		if r := recover(); r != nil {
			if p.k.err == nil {
				p.k.err = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
			}
		}
		p.done = true
		p.sw <- struct{}{}
	}()
	p.fn(&p.ctx)
}

// dropProc swap-removes a finished process from k.procs, so the kernel
// holds only live processes and a finished one becomes garbage.
func (k *Kernel) dropProc(p *Proc) {
	n := len(k.procs) - 1
	last := k.procs[n]
	k.procs[p.idx] = last
	last.idx = p.idx
	k.procs[n] = nil
	k.procs = k.procs[:n]
}

// park suspends the calling process goroutine and returns control to
// the kernel. The process resumes when some event calls k.step(p).
// Must be called from p's own goroutine.
func (p *Proc) park() {
	p.blocked = true
	p.sw <- struct{}{}
	<-p.sw
}

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (c *Ctx) Now() time.Duration { return c.k.now }

// Kernel returns the kernel this process runs on.
func (c *Ctx) Kernel() *Kernel { return c.k }

// Name returns the process name.
func (c *Ctx) Name() string { return c.p.name }

// RNG returns the kernel's deterministic RNG.
func (c *Ctx) RNG() *RNG { return c.k.rng }

// Sleep suspends the process for d of virtual time. Negative or zero
// durations yield to other events scheduled at the current instant and
// then continue.
func (c *Ctx) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.checkCtx()
	c.k.AtFunc(c.k.now+d, PrioNormal, stepProc, c.k, c.p)
	c.p.park()
}

// Await blocks the process until gate admits it. The gate runs once
// here; every later check runs in kernel context, at the instant a
// Sleep or Cond.Wait in a re-check loop would have resumed the
// process, so a failed check costs one event and no goroutine switch.
func (c *Ctx) Await(gate Gate) {
	c.checkCtx()
	c.p.gate = gate
	if !c.k.checkGate(c.p) {
		c.p.park()
	}
}

// Yield reschedules the process behind all events already queued for
// the current instant.
func (c *Ctx) Yield() { c.Sleep(0) }

// SpawnChild spawns another process starting now. It is a convenience
// for process code that launches helpers.
func (c *Ctx) SpawnChild(name string, fn func(ctx *Ctx)) *Proc {
	return c.k.SpawnAt(c.k.now, name, fn)
}

func (c *Ctx) checkCtx() {
	if c.k.cur != c.p {
		panic(fmt.Sprintf("sim: Ctx for process %q used outside its goroutine", c.p.name))
	}
}
