package sim

import (
	"fmt"
	"testing"
	"time"
)

func TestCondSignalWakesOneFIFO(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	var woken []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		k.Spawn(name, func(ctx *Ctx) {
			c.Wait(ctx)
			woken = append(woken, name)
		})
	}
	k.After(time.Second, func() { c.Signal() })
	k.After(2*time.Second, func() { c.Signal() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woken) != 2 || woken[0] != "w1" || woken[1] != "w2" {
		t.Fatalf("woken = %v, want [w1 w2]", woken)
	}
	if c.Waiting() != 1 {
		t.Fatalf("waiting = %d, want 1", c.Waiting())
	}
}

func TestCondBroadcast(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	n := 0
	for i := 0; i < 5; i++ {
		k.Spawn("w", func(ctx *Ctx) {
			c.Wait(ctx)
			n++
		})
	}
	k.After(time.Second, func() { c.Broadcast() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("woken = %d, want 5", n)
	}
}

func TestCondSignalNoWaiters(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	if c.Signal() {
		t.Fatal("Signal with no waiters should report false")
	}
}

func TestCondWaitTimeout(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	var ok1, ok2 bool
	var at1, at2 time.Duration
	k.Spawn("timeout", func(ctx *Ctx) {
		ok1 = c.WaitTimeout(ctx, time.Second)
		at1 = ctx.Now()
	})
	k.Spawn("signalled", func(ctx *Ctx) {
		ctx.Sleep(2 * time.Second)
		ok2 = c.WaitTimeout(ctx, 10*time.Second)
		at2 = ctx.Now()
	})
	k.After(3*time.Second, func() { c.Signal() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ok1 || at1 != time.Second {
		t.Fatalf("waiter 1: ok=%v at=%v, want timeout at 1s", ok1, at1)
	}
	if !ok2 || at2 != 3*time.Second {
		t.Fatalf("waiter 2: ok=%v at=%v, want signal at 3s", ok2, at2)
	}
}

func TestCondWaitTimeoutZero(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	ok := true
	k.Spawn("p", func(ctx *Ctx) { ok = c.WaitTimeout(ctx, 0) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("zero timeout should report false immediately")
	}
}

// TestCondWaitZeroAlloc pins that, once warm, waiting costs no
// allocation: the wait state lives in the Proc, the wait queue reuses
// its backing array, and WaitTimeout's timeout is a prebound callback.
func TestCondWaitZeroAlloc(t *testing.T) {
	zero := func(name string, k *Kernel, cycle func()) {
		t.Helper()
		for i := 0; i < 8; i++ {
			cycle()
		}
		if err := k.Err(); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per cycle, want 0", name, allocs)
		}
	}
	runNow := func(k *Kernel) {
		if err := k.RunFor(0); err != nil {
			t.Fatal(err)
		}
	}

	k := New(1)
	c := NewCond(k)
	k.Spawn("wait", func(ctx *Ctx) {
		for {
			c.Wait(ctx)
		}
	})
	runNow(k)
	zero("Wait+Signal", k, func() {
		c.Signal()
		runNow(k)
	})

	k = New(1)
	c = NewCond(k)
	k.Spawn("woken", func(ctx *Ctx) {
		for {
			c.WaitTimeout(ctx, time.Hour)
		}
	})
	runNow(k)
	zero("WaitTimeout woken", k, func() {
		c.Signal()
		runNow(k)
	})

	k = New(1)
	c = NewCond(k)
	k.Spawn("timed-out", func(ctx *Ctx) {
		for {
			c.WaitTimeout(ctx, time.Millisecond)
		}
	})
	runNow(k)
	zero("WaitTimeout timed out", k, func() {
		if err := k.RunFor(time.Millisecond); err != nil {
			t.Fatal(err)
		}
	})

	// Each Await fails twice — a retry, then a wait on c — before the
	// Signal-triggered check admits it.
	k = New(1)
	c = NewCond(k)
	checks := 0
	gate := func() (*Cond, time.Duration) {
		checks++
		switch checks % 3 {
		case 1:
			return nil, time.Millisecond
		case 2:
			return c, 0
		}
		return nil, 0
	}
	k.Spawn("await", func(ctx *Ctx) {
		for {
			ctx.Await(gate)
		}
	})
	runNow(k)
	zero("Await", k, func() {
		if err := k.RunFor(time.Millisecond); err != nil {
			t.Fatal(err)
		}
		c.Signal()
		runNow(k)
	})
}

// TestCondQueueKeepsFIFOAcrossCompaction drives a queue that never
// drains, so enqueue must compact the consumed prefix rather than grow
// the array without bound, and checks that waiters still wake in
// arrival order.
func TestCondQueueKeepsFIFOAcrossCompaction(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	var woken []int
	spawn := func(i int) {
		k.Spawn(fmt.Sprint(i), func(ctx *Ctx) {
			c.Wait(ctx)
			woken = append(woken, i)
		})
	}
	next := 0
	for ; next < 4; next++ {
		spawn(next)
	}
	for round := 0; round < 50; round++ {
		if err := k.RunFor(0); err != nil {
			t.Fatal(err)
		}
		c.Signal()
		spawn(next)
		next++
	}
	if err := k.RunFor(0); err != nil {
		t.Fatal(err)
	}
	if n := cap(c.waiters); n > 16 {
		t.Fatalf("queue of 4 waiters holds an array of %d", n)
	}
	c.Broadcast()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woken) != next {
		t.Fatalf("woke %d of %d waiters", len(woken), next)
	}
	for i, w := range woken {
		if w != i {
			t.Fatalf("wake order %v, want 0..%d in order", woken, next-1)
		}
	}
}

// TestCondFIFOFromInlineSlot follows an embedded Cond's queue from its
// inline one-waiter slot into a grown array and through compaction,
// checking that waiters wake in arrival order at every stage and that
// the outgrown inline slot keeps no reference.
func TestCondFIFOFromInlineSlot(t *testing.T) {
	k := New(1)
	holder := &struct{ cond Cond }{cond: MakeCond(k)}
	c := &holder.cond
	var woken []int
	next := 0
	spawn := func() {
		i := next
		next++
		k.Spawn(fmt.Sprint(i), func(ctx *Ctx) {
			c.Wait(ctx)
			woken = append(woken, i)
		})
		if err := k.RunFor(0); err != nil {
			t.Fatal(err)
		}
	}
	wake := func() {
		c.Signal()
		if err := k.RunFor(0); err != nil {
			t.Fatal(err)
		}
	}
	inInline := func() bool { return cap(c.waiters) > 0 && &c.waiters[:1][0] == &c.inline[0] }

	// One waiter at a time stays in the inline slot.
	for i := 0; i < 3; i++ {
		spawn()
		if !inInline() {
			t.Fatalf("single waiter %d not in the inline slot (cap %d)", i, cap(c.waiters))
		}
		wake()
	}
	// A second waiter grows the queue out of the slot.
	spawn()
	spawn()
	if inInline() || c.inline[0] != nil {
		t.Fatalf("two waiters: queue still inline or slot holds %v", c.inline[0])
	}
	// Keep the queue from draining so enqueue compacts.
	for round := 0; round < 40; round++ {
		wake()
		spawn()
	}
	if n := cap(c.waiters); n > 8 {
		t.Fatalf("queue of 2 waiters holds an array of %d", n)
	}
	c.Broadcast()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woken) != next {
		t.Fatalf("woke %d of %d waiters", len(woken), next)
	}
	for i, w := range woken {
		if w != i {
			t.Fatalf("wake order %v, want 0..%d in order", woken, next-1)
		}
	}
}

// TestAwaitChecksInKernel pins that an Await whose gate fails N times
// resumes its process exactly once: the first check runs in the
// process, every later one in kernel context, and Await returns at the
// admitting check.
func TestAwaitChecksInKernel(t *testing.T) {
	const fails = 5
	k := New(1)
	c := NewCond(k)
	var p *Proc
	var inProc, inKernel, returns int
	var at time.Duration
	gate := func() (*Cond, time.Duration) {
		switch k.cur {
		case p:
			inProc++
		case nil:
			inKernel++
		default:
			t.Errorf("gate ran in process %q", k.cur.name)
		}
		switch n := inProc + inKernel; {
		case n > fails:
			return nil, 0
		case n%2 == 0:
			return c, 0
		}
		return nil, time.Second
	}
	p = k.Spawn("await", func(ctx *Ctx) {
		ctx.Await(gate)
		returns++
		at = ctx.Now()
	})
	for i := 1; i <= fails; i++ {
		k.At(time.Duration(i)*10*time.Second, PrioNormal, func() { c.Broadcast() })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if inProc != 1 || inKernel != fails || returns != 1 {
		t.Fatalf("checks in process %d, in kernel %d, returns %d; want 1, %d, 1", inProc, inKernel, returns, fails)
	}
	// Checks: 0s fail (retry 1s), 1s fail (wait), 10s fail (retry),
	// 11s fail (wait), 20s fail (retry), 21s admit.
	if at != 21*time.Second {
		t.Fatalf("admitted at %v, want 21s", at)
	}
}

func TestMailboxFIFO(t *testing.T) {
	k := New(1)
	m := NewMailbox(k)
	var got []int
	k.Spawn("recv", func(ctx *Ctx) {
		for i := 0; i < 3; i++ {
			v, ok := m.Recv(ctx)
			if !ok {
				t.Error("unexpected close")
				return
			}
			got = append(got, v.(int))
		}
	})
	k.After(time.Second, func() {
		m.Send(1)
		m.Send(2)
		m.Send(3)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
}

func TestMailboxClose(t *testing.T) {
	k := New(1)
	m := NewMailbox(k)
	m.Send(42)
	m.Close()
	var vals []any
	var oks []bool
	k.Spawn("recv", func(ctx *Ctx) {
		for i := 0; i < 2; i++ {
			v, ok := m.Recv(ctx)
			vals = append(vals, v)
			oks = append(oks, ok)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !oks[0] || vals[0].(int) != 42 {
		t.Fatalf("first recv = %v/%v, want 42/true", vals[0], oks[0])
	}
	if oks[1] {
		t.Fatal("second recv should report closed")
	}
}

func TestMailboxCloseWakesBlockedReceiver(t *testing.T) {
	k := New(1)
	m := NewMailbox(k)
	done := false
	k.Spawn("recv", func(ctx *Ctx) {
		_, ok := m.Recv(ctx)
		if ok {
			t.Error("expected closed")
		}
		done = true
	})
	k.After(time.Second, func() { m.Close() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("receiver never woke")
	}
}

func TestMailboxRecvTimeout(t *testing.T) {
	k := New(1)
	m := NewMailbox(k)
	var ok1, ok2 bool
	k.Spawn("p", func(ctx *Ctx) {
		_, ok1 = m.RecvTimeout(ctx, time.Second)
		_, ok2 = m.RecvTimeout(ctx, 5*time.Second)
	})
	k.After(3*time.Second, func() { m.Send("x") })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ok1 {
		t.Fatal("first recv should time out")
	}
	if !ok2 {
		t.Fatal("second recv should succeed")
	}
}

func TestMailboxTryRecv(t *testing.T) {
	k := New(1)
	m := NewMailbox(k)
	if _, ok := m.TryRecv(); ok {
		t.Fatal("TryRecv on empty should fail")
	}
	m.Send(7)
	if m.Len() != 1 {
		t.Fatalf("len = %d, want 1", m.Len())
	}
	v, ok := m.TryRecv()
	if !ok || v.(int) != 7 {
		t.Fatalf("TryRecv = %v/%v, want 7/true", v, ok)
	}
}

func TestMailboxSendAfterClosePanics(t *testing.T) {
	k := New(1)
	m := NewMailbox(k)
	m.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Send after Close")
		}
	}()
	m.Send(1)
}

func TestMailboxMultipleReceiversFIFO(t *testing.T) {
	k := New(1)
	m := NewMailbox(k)
	var got []string
	for _, name := range []string{"r1", "r2"} {
		name := name
		k.Spawn(name, func(ctx *Ctx) {
			v, ok := m.Recv(ctx)
			if !ok {
				return
			}
			got = append(got, name+":"+v.(string))
		})
	}
	k.After(time.Second, func() { m.Send("a") })
	k.After(2*time.Second, func() { m.Send("b") })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "r1:a" || got[1] != "r2:b" {
		t.Fatalf("got %v, want [r1:a r2:b]", got)
	}
}
