//go:build !race

// The race detector's runtime makes allocations of its own, which
// would skew the counts pinned here.

package mpi

import (
	"math"
	"runtime"
	"testing"

	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// pingPongMallocs runs a 2-rank ping-pong of rounds round trips of n
// bytes each way and returns the heap allocations the whole run made.
func pingPongMallocs(rounds int, n units.ByteSize) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	k, j := testJob(2, JobOptions{})
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		peer := 1 - r.ID()
		for i := 0; i < rounds; i++ {
			if r.ID() == 0 {
				_ = r.Send(ctx, w, peer, 0, n, nil)
				_, _ = r.Recv(ctx, w, peer, 0)
			} else {
				_, _ = r.Recv(ctx, w, peer, 0)
				_ = r.Send(ctx, w, peer, 0, n, nil)
			}
		}
	})
	if err := k.Run(); err != nil {
		panic(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestPingPongAllocsPerRoundTrip pins the heap allocations of one
// ping-pong round trip: the difference between a 2000- and a
// 1000-round-trip run, so setup costs cancel out. The runtime's own
// background allocations add a few hundredths per round trip, so the
// count is rounded before it is compared.
func TestPingPongAllocsPerRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 6000 round trips")
	}
	for _, tc := range []struct {
		name string
		n    units.ByteSize
		pin  float64
	}{
		{"eager-1KB", units.KB, 12},
		{"rendezvous-256KB", 256 * units.KB, 32},
	} {
		got := float64(pingPongMallocs(2000, tc.n)-pingPongMallocs(1000, tc.n)) / 1000
		t.Logf("%s: %.3f mallocs per round trip", tc.name, got)
		if math.Round(got) > tc.pin {
			t.Errorf("%s: %.3f mallocs per round trip, pinned at %.0f", tc.name, got, tc.pin)
		}
	}
}
