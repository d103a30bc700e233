package mpi

import (
	"runtime"
	"testing"
	"time"

	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// copyCost is the receive-copy charge of an n-byte eager message at
// perKB: the payload plus its envelope, as globus-io charges it.
func copyCost(n units.ByteSize, perKB time.Duration) time.Duration {
	return time.Duration(float64(perKB) * float64(n+envelopeSize) / 1000)
}

// TestCopyChargesFromTwoPeersQueue: two peers' 64 KB messages reach
// rank 0 together, and both receive copies are charged to rank 0's one
// CPU task. They run one after the other, so the second message is
// handed over a whole copy time after the first.
func TestCopyChargesFromTwoPeersQueue(t *testing.T) {
	const perKB = 100 * time.Microsecond
	const n = 64 * units.KB
	k, j := testJob(3, JobOptions{CopyCostPerKB: perKB})
	var at []time.Duration
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		if r.ID() != 0 {
			if err := r.Send(ctx, w, 0, 0, n, r.ID()); err != nil {
				t.Error(err)
			}
			return
		}
		for i := 0; i < 2; i++ {
			if _, err := r.Recv(ctx, w, AnySource, 0); err != nil {
				t.Error(err)
				return
			}
			at = append(at, ctx.Now())
		}
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !j.Done() || len(at) != 2 {
		t.Fatalf("job done=%v, %d of 2 messages received", j.Done(), len(at))
	}
	cost := copyCost(n, perKB)
	if gap := at[1] - at[0]; gap < cost {
		t.Fatalf("second message handed over %v after the first, want at least one copy time %v", gap, cost)
	}
}

// TestCopyChargeQueuesBehindCompute: rank 1's 64 KB message arrives
// while rank 0 computes for 50 ms. Its receive copy queues behind the
// computation on rank 0's task, so the Recv that follows returns one
// copy time after the computation ends.
func TestCopyChargeQueuesBehindCompute(t *testing.T) {
	const perKB = 100 * time.Microsecond
	const n = 64 * units.KB
	const work = 50 * time.Millisecond
	k, j := testJob(2, JobOptions{CopyCostPerKB: perKB})
	var start, got time.Duration
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		if r.ID() == 1 {
			if err := r.Send(ctx, w, 0, 0, n, nil); err != nil {
				t.Error(err)
			}
			return
		}
		start = ctx.Now()
		r.Compute(ctx, work)
		if _, err := r.Recv(ctx, w, 1, 0); err != nil {
			t.Error(err)
			return
		}
		got = ctx.Now()
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !j.Done() {
		t.Fatal("job did not finish")
	}
	want := start + work + copyCost(n, perKB)
	if d := got - want; d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("Recv returned at %v, want %v (compute end %v plus one copy)", got, want, start+work)
	}
}

// TestReaderCostsNoSwitch: the progress engine reads and dispatches
// every message in kernel context, and the send queue writes the CTS
// and the rendezvous data there too. So an eager ping-pong of
// multi-segment messages costs one process resume per Recv and none
// per TCP segment, and a rendezvous one adds only the resume of each
// sender's Wait.
func TestReaderCostsNoSwitch(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    units.ByteSize
		pin  float64
	}{
		{"eager-100KB", 100 * units.KB, 2},
		{"rendezvous-256KB", 256 * units.KB, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			per := resumesPerRoundTrip(t, tc.n)
			if per > tc.pin {
				t.Fatalf("%.3f process resumes per %v round trip, want at most %.0f", per, tc.n, tc.pin)
			}
		})
	}
}

// resumesPerRoundTrip runs a 2-rank ping-pong of n-byte messages and
// returns the process resumes per round trip.
func resumesPerRoundTrip(t *testing.T, n units.ByteSize) float64 {
	const rounds = 500
	k, j := testJob(2, JobOptions{EagerThreshold: 128 * units.KB, SockBuf: 512 * units.KB})
	var switches uint64
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		peer := 1 - r.ID()
		var start uint64
		// Round trip 0 is a warm-up: it leaves rank 1 parked in Recv,
		// so the count covers the measured round trips only.
		for i := 0; i <= rounds; i++ {
			if i == 1 {
				start = k.ProcSwitches()
			}
			if r.ID() == 0 {
				_ = r.Send(ctx, w, peer, 0, n, nil)
				_, _ = r.Recv(ctx, w, peer, 0)
			} else {
				_, _ = r.Recv(ctx, w, peer, 0)
				_ = r.Send(ctx, w, peer, 0, n, nil)
			}
		}
		if r.ID() == 0 {
			switches = k.ProcSwitches() - start
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !j.Done() {
		t.Fatal("job did not finish")
	}
	t.Logf("%d process resumes in %d round trips", switches, rounds)
	return float64(switches) / rounds
}

// TestReadersHoldNoGoroutine: once an 8-rank job is wired and every
// rank waits in Recv, the job holds one goroutine per rank and no
// other: the accept loops, readers and writers are Waiters, which are
// not processes and never get a goroutine.
func TestReadersHoldNoGoroutine(t *testing.T) {
	const n = 8
	before := runtime.NumGoroutine()
	k, j := testJob(n, JobOptions{})
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		_, _ = r.Recv(ctx, r.World(), AnySource, 0)
	})
	if err := k.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(k.BlockedProcs()); got != n {
		t.Fatalf("%d blocked processes, want the %d ranks", got, n)
	}
	// A goroutine that has just handed control back may not have
	// exited yet, so give the count a moment to settle.
	var grew int
	for try := 0; try < 100; try++ {
		if grew = runtime.NumGoroutine() - before; grew <= n {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job holds %d goroutines, want at most %d (one per rank)", grew, n)
}
