package sim

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkKernelAfter measures the schedule-and-fire cycle of the
// closure-free fast path: one event scheduled and run per iteration.
func BenchmarkKernelAfter(b *testing.B) {
	k := New(1)
	nop := func(a0, a1 any) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.AfterFunc(time.Microsecond, nop, nil, nil)
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelAfterCancel measures the schedule-then-cancel cycle:
// the cancelled event must be physically removed and its struct
// recycled without garbage.
func BenchmarkKernelAfterCancel(b *testing.B) {
	k := New(1)
	nop := func(a0, a1 any) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := k.AfterFunc(time.Microsecond, nop, nil, nil)
		if !tm.Cancel() {
			b.Fatal("cancel failed")
		}
	}
}

// TestKernelAfterFuncZeroAlloc pins the zero-allocation guarantee of
// the pooled event path once the freelist is warm.
func TestKernelAfterFuncZeroAlloc(t *testing.T) {
	k := New(1)
	nop := func(a0, a1 any) {}
	// Warm the freelist and the heap slice.
	for i := 0; i < 64; i++ {
		k.AfterFunc(time.Microsecond, nop, nil, nil)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		k.AfterFunc(time.Microsecond, nop, nil, nil)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AfterFunc+Run allocates %.1f objects per event, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		k.AfterFunc(time.Microsecond, nop, nil, nil).Cancel()
	})
	if allocs != 0 {
		t.Fatalf("AfterFunc+Cancel allocates %.1f objects per event, want 0", allocs)
	}
	// The closure form routes through the prebound callFunc with the
	// closure boxed in a0; a capture-free closure must stay free.
	allocs = testing.AllocsPerRun(1000, func() {
		k.After(time.Microsecond, func() {})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("After(closure)+Run allocates %.1f objects per event, want 0", allocs)
	}
}

// TestCancelKeepsQueueBounded is the regression test for the old lazy
// tombstoning behaviour, where cancelled timers sat in the heap until
// their scheduled instant. A workload that perpetually re-arms a
// far-future timer (the shape of TCP retransmit timers under steady
// ACK flow) must keep the live queue bounded.
func TestCancelKeepsQueueBounded(t *testing.T) {
	k := New(1)
	nop := func(a0, a1 any) {}
	var tm Timer
	const rearms = 100000
	for i := 0; i < rearms; i++ {
		tm.Cancel()
		// Far future relative to the workload: with tombstoning these
		// would all accumulate.
		tm = k.AfterFunc(time.Hour, nop, nil, nil)
		if n := k.PendingEvents(); n > 1 {
			t.Fatalf("after %d re-arms: %d events pending, want <= 1", i+1, n)
		}
	}
	if !tm.Pending() {
		t.Fatal("last timer should still be pending")
	}
	tm.Cancel()
	if n := k.PendingEvents(); n != 0 {
		t.Fatalf("queue has %d events after final cancel, want 0", n)
	}
}

// TestTimerHandleStaleness pins the generation-counter semantics: a
// handle to a fired or cancelled event must read as inert even after
// the pooled struct is reused by a new event.
func TestTimerHandleStaleness(t *testing.T) {
	k := New(1)
	fired := 0
	old := k.After(time.Millisecond, func() { fired++ })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Reuse the pooled struct for a fresh event.
	fresh := k.After(time.Millisecond, func() { fired++ })
	if old.Pending() {
		t.Fatal("stale handle reports pending")
	}
	if old.Cancel() {
		t.Fatal("stale handle cancelled the reused event")
	}
	if !fresh.Pending() {
		t.Fatal("fresh timer not pending")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

// BenchmarkKernelDenseHeap runs the kernel's 4-ary indexed heap on the
// classic hold model: a queue held at a fixed population while every
// iteration dequeues the minimum and schedules a successor a random gap
// ahead. This is the steady-state shape of a packet simulation: the
// population is the number of in-flight timers and packets. The
// event-queue bakeoff that kept the heap is recorded in
// docs/performance.md.
func BenchmarkKernelDenseHeap(b *testing.B) {
	for _, n := range []int{256, 4096, 65536} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var q eventHeap
			rng := NewRNG(1)
			var seq uint64
			// Preload the steady-state population, uniformly spread so
			// the initial occupancy matches the hold distribution.
			for i := 0; i < n; i++ {
				seq++
				q.push(&event{
					at:    time.Duration(int64(rng.Intn(n * int(time.Microsecond)))),
					seq:   seq,
					index: -1,
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := q.popMin()
				seq++
				// Mean gap of n/2 µs keeps the population's time spread
				// stationary at any n.
				e.at += time.Duration(int64(rng.Intn(n * int(time.Microsecond))))
				e.seq = seq
				q.push(e)
			}
		})
	}
}
