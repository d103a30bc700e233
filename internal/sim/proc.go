package sim

import (
	"fmt"
	"time"
)

// Proc is a simulated process: a goroutine whose execution is
// interleaved with the event loop such that exactly one of (kernel,
// some process) runs at any moment.
type Proc struct {
	k       *Kernel
	name    string
	resume  chan struct{}
	yield   chan struct{}
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

// Spawn creates a process named name running fn and schedules it to
// start at the current virtual time. The returned Proc can be used to
// query completion.
func (k *Kernel) Spawn(name string, fn func(ctx *Ctx)) *Proc {
	//lint:ignore shardsafety SpawnAt's goroutine is the kernel's own process machinery; see the justification on the go statement there
	return k.SpawnAt(k.now, name, fn)
}

// SpawnAt creates a process that starts at absolute virtual time at.
func (k *Kernel) SpawnAt(at time.Duration, name string, fn func(ctx *Ctx)) *Proc {
	p := &Proc{
		k:      k,
		name:   name,
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
		idx:    len(k.procs),
	}
	k.procs = append(k.procs, p)
	ctx := &Ctx{k: k, p: p}
	//lint:ignore determinism,shardsafety this goroutine IS Kernel.Spawn's implementation; the kernel admits exactly one runnable process at a time via resume/yield handshakes, so scheduling stays deterministic and the captured kernel/proc/ctx never leave the owning kernel's control
	go func() {
		<-p.resume // wait for the start event
		defer func() {
			if r := recover(); r != nil {
				if k.err == nil {
					k.err = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
				}
			}
			p.done = true
			p.yield <- struct{}{}
		}()
		fn(ctx)
	}()
	k.AtFunc(at, PrioNormal, stepProc, k, p)
	return p
}

// stepProc is the prebound wakeup callback shared by every sleep and
// spawn event, so waking a process never allocates a closure.
func stepProc(a0, a1 any) { a0.(*Kernel).step(a1.(*Proc)) }

// step transfers control to process p and waits for it to block or
// finish. It must only be called from the kernel goroutine (i.e. from
// inside an event callback).
func (k *Kernel) step(p *Proc) {
	if p.done {
		return
	}
	prev := k.cur
	k.cur = p
	p.blocked = false
	p.resume <- struct{}{}
	<-p.yield
	k.cur = prev
	if p.done {
		k.dropProc(p)
	}
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
	p.yield <- struct{}{}
	<-p.resume
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
