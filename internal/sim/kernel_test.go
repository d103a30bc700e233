package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	k := New(1)
	var got []int
	k.At(2*time.Second, PrioNormal, func() { got = append(got, 3) })
	k.At(1*time.Second, PrioNormal, func() { got = append(got, 1) })
	k.At(2*time.Second, PrioNet, func() { got = append(got, 2) })
	k.At(3*time.Second, PrioLate, func() { got = append(got, 5) })
	k.At(3*time.Second, PrioNormal, func() { got = append(got, 4) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	if k.Now() != 3*time.Second {
		t.Fatalf("clock = %v, want 3s", k.Now())
	}
}

func TestSameTimeSamePrioFIFO(t *testing.T) {
	k := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(time.Second, PrioNormal, func() { got = append(got, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("insertion order not preserved: %v", got)
		}
	}
}

func TestTimerCancel(t *testing.T) {
	k := New(1)
	fired := false
	tm := k.After(time.Second, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Cancel() {
		t.Fatal("first cancel should succeed")
	}
	if tm.Cancel() {
		t.Fatal("second cancel should fail")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestTimerCancelAfterFire(t *testing.T) {
	k := New(1)
	tm := k.After(time.Second, func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if tm.Pending() {
		t.Fatal("fired timer still pending")
	}
	if tm.Cancel() {
		t.Fatal("cancel after fire should report false")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	k := New(1)
	fired := 0
	k.After(time.Second, func() { fired++ })
	k.After(10*time.Second, func() { fired++ })
	if err := k.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if k.Now() != 5*time.Second {
		t.Fatalf("clock = %v, want 5s", k.Now())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := New(1)
	k.After(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		k.At(0, PrioNormal, func() {})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcessSleep(t *testing.T) {
	k := New(1)
	var wake []time.Duration
	k.Spawn("sleeper", func(ctx *Ctx) {
		for i := 0; i < 3; i++ {
			ctx.Sleep(time.Second)
			wake = append(wake, ctx.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}
	for i := range want {
		if wake[i] != want[i] {
			t.Fatalf("wake = %v, want %v", wake, want)
		}
	}
}

func TestProcessInterleaving(t *testing.T) {
	k := New(1)
	var order []string
	mk := func(name string, period time.Duration) {
		k.Spawn(name, func(ctx *Ctx) {
			for i := 0; i < 2; i++ {
				ctx.Sleep(period)
				order = append(order, name)
			}
		})
	}
	mk("a", 10*time.Millisecond)
	mk("b", 15*time.Millisecond)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "a", "b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSpawnAt(t *testing.T) {
	k := New(1)
	var started time.Duration = -1
	k.SpawnAt(42*time.Second, "late", func(ctx *Ctx) { started = ctx.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if started != 42*time.Second {
		t.Fatalf("started at %v, want 42s", started)
	}
}

func TestProcessPanicCaptured(t *testing.T) {
	k := New(1)
	k.Spawn("bad", func(ctx *Ctx) {
		ctx.Sleep(time.Second)
		panic("boom")
	})
	err := k.Run()
	if err == nil {
		t.Fatal("expected error from panicking process")
	}
}

func TestSpawnChild(t *testing.T) {
	k := New(1)
	childRan := false
	k.Spawn("parent", func(ctx *Ctx) {
		ctx.SpawnChild("child", func(c2 *Ctx) {
			c2.Sleep(time.Second)
			childRan = true
		})
		ctx.Sleep(2 * time.Second)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child did not run")
	}
}

func TestBlockedProcs(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	k.Spawn("stuck", func(ctx *Ctx) { c.Wait(ctx) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	blocked := k.BlockedProcs()
	if len(blocked) != 1 || blocked[0] != "stuck" {
		t.Fatalf("blocked = %v, want [stuck]", blocked)
	}
	if k.LiveProcs() != 1 {
		t.Fatalf("live = %d, want 1", k.LiveProcs())
	}
}

// TestFinishedProcsLeaveKernel pins that the kernel forgets a process
// once it returns: a spawn-per-arrival workload must not keep every
// finished Proc (and its channels) reachable for the kernel's lifetime.
func TestFinishedProcsLeaveKernel(t *testing.T) {
	k := New(1)
	const n = 100
	for i := 0; i < n; i++ {
		// Finish out of spawn order so removal hits every position.
		d := time.Duration((i*37)%n) * time.Millisecond
		k.Spawn(fmt.Sprintf("p%d", i), func(ctx *Ctx) { ctx.Sleep(d) })
	}
	if err := k.RunFor(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if live := k.LiveProcs(); live != n/2-1 {
		t.Fatalf("mid-run live = %d, want %d", live, n/2-1)
	}
	if got := len(k.BlockedProcs()); got != n/2-1 {
		t.Fatalf("mid-run blocked = %d, want %d", got, n/2-1)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(k.procs) != 0 || k.LiveProcs() != 0 {
		t.Fatalf("after run: %d procs held, LiveProcs = %d, want 0", len(k.procs), k.LiveProcs())
	}
}

// TestSpawnWhenGatesWithoutGoroutine pins that a gated spawn has no
// goroutine until its gate admits, that every gate check runs in
// kernel context, and that the body runs once, from the admitting
// check's instant.
func TestSpawnWhenGatesWithoutGoroutine(t *testing.T) {
	const fails = 4
	k := New(1)
	c := NewCond(k)
	var p *Proc
	checks, runs := 0, 0
	var at time.Duration
	gate := func() (*Cond, time.Duration) {
		if k.cur != nil || p.sw != nil {
			t.Errorf("check %d: running process %v, goroutine started %v", checks, k.cur != nil, p.sw != nil)
		}
		checks++
		switch {
		case checks > fails:
			return nil, 0
		case checks%2 == 0:
			return c, 0
		}
		return nil, time.Second
	}
	p = k.SpawnWhen("gated", gate, func(ctx *Ctx) {
		runs++
		at = ctx.Now()
	})
	for i := 1; i <= fails; i++ {
		k.At(time.Duration(i)*10*time.Second, PrioNormal, func() { c.Signal() })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Checks: 0s retry, 1s wait, 10s retry, 11s wait, 20s admit.
	if checks != fails+1 || runs != 1 || at != 20*time.Second || !p.Done() {
		t.Fatalf("checks %d, runs %d at %v, done %v; want %d, 1 at 20s, true", checks, runs, at, p.Done(), fails+1)
	}
}

// TestSpawnWhenBlockedCostsNoGoroutine spawns 1,000 processes behind a
// closed gate: each is live and listed as blocked, and none has a
// goroutine.
func TestSpawnWhenBlockedCostsNoGoroutine(t *testing.T) {
	const n = 1000
	k := New(1)
	c := NewCond(k)
	closed := func() (*Cond, time.Duration) { return c, 0 }
	before := runtime.NumGoroutine()
	for i := 0; i < n; i++ {
		k.SpawnWhen(fmt.Sprintf("g%d", i), closed, func(*Ctx) {})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if live, blocked := k.LiveProcs(), len(k.BlockedProcs()); live != n || blocked != n {
		t.Fatalf("live %d, blocked %d; want %d each", live, blocked, n)
	}
	if c.Waiting() != n {
		t.Fatalf("waiting on gate cond = %d, want %d", c.Waiting(), n)
	}
	if d := runtime.NumGoroutine() - before; d > 0 {
		t.Fatalf("%d gated processes started %d goroutines, want 0", n, d)
	}
}

// TestUnstartedProcHasNoGoroutine pins that a process whose start
// event never runs leaves no goroutine behind.
func TestUnstartedProcHasNoGoroutine(t *testing.T) {
	k := New(1)
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		k.SpawnAt(time.Hour, "never", func(*Ctx) { t.Error("process ran") })
	}
	if err := k.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if k.LiveProcs() != 100 {
		t.Fatalf("live = %d, want 100", k.LiveProcs())
	}
	if d := runtime.NumGoroutine() - before; d > 0 {
		t.Fatalf("unstarted processes hold %d goroutines, want 0", d)
	}
}

func TestSpawnWhenPanicCaptured(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	open := false
	gate := func() (*Cond, time.Duration) {
		if !open {
			return c, 0
		}
		return nil, 0
	}
	k.SpawnWhen("bad", gate, func(ctx *Ctx) { panic("boom") })
	k.After(time.Second, func() {
		open = true
		c.Broadcast()
	})
	if err := k.Run(); err == nil || !strings.Contains(err.Error(), `"bad" panicked: boom`) {
		t.Fatalf("Run error = %v, want the gated process's panic", err)
	}
	if k.Err() == nil {
		t.Fatal("Kernel.Err lost the panic")
	}
}

func TestStop(t *testing.T) {
	k := New(1)
	n := 0
	for i := 1; i <= 10; i++ {
		k.At(time.Duration(i)*time.Second, PrioNormal, func() {
			n++
			if n == 3 {
				k.Stop()
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("processed %d events before stop, want 3", n)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("processed %d total, want 10", n)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		k := New(7)
		var ticks []time.Duration
		for i := 0; i < 4; i++ {
			k.Spawn("p", func(ctx *Ctx) {
				for j := 0; j < 20; j++ {
					d := time.Duration(ctx.RNG().Intn(1000)) * time.Millisecond
					ctx.Sleep(d)
					ticks = append(ticks, ctx.Now())
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return ticks
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
