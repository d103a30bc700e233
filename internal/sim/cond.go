package sim

import "time"

// Cond is a condition-variable-like primitive for processes. Waiters
// are woken in FIFO order. Signal and Broadcast may be called from
// event callbacks or from other processes; wakeups are delivered as
// events at the current instant, preserving the single-runner
// invariant.
//
// As with sync.Cond, a woken process should re-check its predicate:
// state may change between the Signal and the wakeup event running.
// Ctx.Await moves that re-check into the kernel: a gated waiter's
// wakeup event runs its gate and resumes the process only on success.
//
// A Cond may be embedded by value (see MakeCond), but must not be
// copied after its first Wait: the queue's first backing array is the
// Cond's own inline slot.
type Cond struct {
	k *Kernel
	// waiters[head:] is the FIFO queue. Signal advances head instead
	// of re-slicing, and the backing array is reused once the queue
	// drains, so wait/wake cycles do not reallocate it. The queue
	// starts in the inline slot, so a Cond that never has two waiters
	// at once never allocates one.
	waiters []*Proc
	head    int
	inline  [1]*Proc
}

// condWaiter is the wait state a Proc embeds: the gate a gated wait
// re-checks (nil for a plain Wait), and whether Signal or the timeout
// ended the current WaitTimeout.
type condWaiter struct {
	gate     Gate
	woken    bool
	timedOut bool
}

// NewCond returns a Cond bound to kernel k.
func NewCond(k *Kernel) *Cond { return &Cond{k: k} }

// MakeCond returns a Cond bound to kernel k, for embedding by value in
// a struct that waits on it, so the Cond costs no allocation of its
// own.
func MakeCond(k *Kernel) Cond { return Cond{k: k} }

// Wait blocks the calling process until Signal or Broadcast wakes it.
func (c *Cond) Wait(ctx *Ctx) {
	ctx.checkCtx()
	c.enqueue(ctx.p)
	ctx.p.park()
}

// WaitTimeout blocks the calling process until woken or until d
// elapses. It reports true if woken by Signal/Broadcast and false on
// timeout.
func (c *Cond) WaitTimeout(ctx *Ctx, d time.Duration) bool {
	ctx.checkCtx()
	if d <= 0 {
		return false
	}
	p := ctx.p
	p.woken, p.timedOut = false, false
	c.enqueue(p)
	timer := c.k.AtFunc(c.k.now+d, PrioNormal, condTimeout, c, p)
	p.park()
	timer.Cancel()
	return !p.timedOut
}

// condTimeout is WaitTimeout's prebound timeout callback.
func condTimeout(a0, a1 any) {
	c, p := a0.(*Cond), a1.(*Proc)
	if p.woken {
		return
	}
	p.woken, p.timedOut = true, true
	c.remove(p)
	stepProc(c.k, p)
}

// Signal wakes the longest-waiting process, if any. It reports whether
// a waiter was woken. A gated waiter's wakeup event runs its gate.
func (c *Cond) Signal() bool {
	if c.head == len(c.waiters) {
		return false
	}
	p := c.waiters[c.head]
	c.waiters[c.head] = nil
	c.head++
	if c.head == len(c.waiters) {
		c.waiters, c.head = c.waiters[:0], 0
	}
	p.woken = true
	wake := stepProc
	if p.gate != nil {
		wake = gateProc
	}
	c.k.AtFunc(c.k.now, PrioNormal, wake, c.k, p)
	return true
}

// Broadcast wakes all waiting processes.
func (c *Cond) Broadcast() {
	for c.Signal() {
	}
}

// Waiting returns the number of processes currently blocked on c.
func (c *Cond) Waiting() int { return len(c.waiters) - c.head }

// enqueue appends p to the wait queue. The first waiter goes into the
// inline slot. When the backing array is full and at least half of it
// is the consumed prefix, the live queue is moved to the front instead
// of growing the array.
func (c *Cond) enqueue(p *Proc) {
	if c.waiters == nil {
		c.waiters = c.inline[:0]
	}
	if n := len(c.waiters); n == cap(c.waiters) && c.head > 0 && 2*c.head >= n {
		m := copy(c.waiters, c.waiters[c.head:])
		clear(c.waiters[m:])
		c.waiters, c.head = c.waiters[:m], 0
	}
	grow := len(c.waiters) == cap(c.waiters)
	c.waiters = append(c.waiters, p)
	if grow {
		// The queue has moved to a larger array for good; drop the
		// inline slot's stale reference.
		c.inline[0] = nil
	}
}

func (c *Cond) remove(p *Proc) {
	for i := c.head; i < len(c.waiters); i++ {
		if c.waiters[i] == p {
			n := len(c.waiters) - 1
			copy(c.waiters[i:], c.waiters[i+1:])
			c.waiters[n] = nil
			c.waiters = c.waiters[:n]
			break
		}
	}
	if c.head == len(c.waiters) {
		c.waiters, c.head = c.waiters[:0], 0
	}
}

// Mailbox is an unbounded FIFO queue with blocking receive, the
// simulation analogue of a channel. Any number of processes may block
// in Recv; items are handed out in arrival order to waiters in FIFO
// order. Send never blocks and may be called from event callbacks.
type Mailbox struct {
	k     *Kernel
	items []any
	cond  *Cond
	// closed marks the mailbox as delivering no further items; Recv
	// returns (nil, false) once drained.
	closed bool
}

// NewMailbox returns an empty mailbox bound to kernel k.
func NewMailbox(k *Kernel) *Mailbox {
	return &Mailbox{k: k, cond: NewCond(k)}
}

// Send enqueues v and wakes one waiting receiver.
func (m *Mailbox) Send(v any) {
	if m.closed {
		panic("sim: Send on closed Mailbox")
	}
	m.items = append(m.items, v)
	m.cond.Signal()
}

// Close marks the mailbox closed. Blocked and future receivers get
// (nil, false) once the queue drains.
func (m *Mailbox) Close() {
	if m.closed {
		return
	}
	m.closed = true
	m.cond.Broadcast()
}

// Next is Recv's non-blocking step, safe to call from kernel context.
// It returns the oldest item and true, or the Cond whose next signal
// may bring one, or neither once the mailbox is closed and drained.
func (m *Mailbox) Next() (any, *Cond, bool) {
	if len(m.items) > 0 {
		v := m.items[0]
		m.items = m.items[1:]
		return v, nil, true
	}
	if m.closed {
		return nil, nil, false
	}
	return nil, m.cond, false
}

// Recv blocks until an item is available or the mailbox is closed and
// drained. The second result is false only in the closed-and-drained
// case.
func (m *Mailbox) Recv(ctx *Ctx) (any, bool) {
	for {
		v, wait, ok := m.Next()
		if wait == nil {
			return v, ok
		}
		wait.Wait(ctx)
	}
}

// RecvTimeout is Recv with a deadline; ok is false if the timeout
// expired or the mailbox closed before an item arrived.
func (m *Mailbox) RecvTimeout(ctx *Ctx, d time.Duration) (any, bool) {
	deadline := m.k.now + d
	for {
		v, wait, ok := m.Next()
		if wait == nil {
			return v, ok
		}
		if remain := deadline - m.k.now; remain <= 0 || !wait.WaitTimeout(ctx, remain) {
			v, _, ok = m.Next() // an item may have come with the timeout
			return v, ok
		}
	}
}

// TryRecv returns an item if one is queued, without blocking.
func (m *Mailbox) TryRecv() (any, bool) {
	v, _, ok := m.Next()
	return v, ok
}

// Len returns the number of queued items.
func (m *Mailbox) Len() int { return len(m.items) }
