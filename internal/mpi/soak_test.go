package mpi

import (
	"testing"
	"time"

	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// TestSoak16Ranks runs a randomized mixed workload — pt2pt rings with
// random sizes (crossing the eager/rendezvous threshold both ways),
// collectives, and barriers — across 16 ranks, checking global
// invariants at each round.
func TestSoak16Ranks(t *testing.T) {
	const n = 16
	const rounds = 15
	k, j := testJob(n, JobOptions{EagerThreshold: 32 * units.KB})
	rng := sim.NewRNG(99)
	sizes := make([]units.ByteSize, rounds)
	for i := range sizes {
		sizes[i] = units.ByteSize(rng.Intn(100_000) + 1) // 1 B .. 100 KB
	}
	errs := 0
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		me := r.ID()
		for round := 0; round < rounds; round++ {
			size := sizes[round]
			// Ring shift: send to the right, receive from the left,
			// payload carries (sender, round) for validation.
			right := (me + 1) % n
			left := (me - 1 + n) % n
			msg, err := r.SendRecv(ctx, w, right, round, size, [2]int{me, round}, left, round)
			if err != nil {
				t.Error(err)
				errs++
				return
			}
			got := msg.Data.([2]int)
			if got[0] != left || got[1] != round || msg.Len != size {
				t.Errorf("round %d rank %d: got %v len %v", round, me, got, msg.Len)
				errs++
				return
			}
			// Global sum invariant.
			sum, err := r.Allreduce(ctx, w, []float64{float64(me)}, OpSum)
			if err != nil {
				t.Error(err)
				errs++
				return
			}
			if sum[0] != float64(n*(n-1)/2) {
				t.Errorf("round %d: allreduce sum %v", round, sum[0])
				errs++
				return
			}
			if err := r.Barrier(ctx, w); err != nil {
				t.Error(err)
				errs++
				return
			}
		}
		if err := r.Finalize(ctx); err != nil {
			t.Error(err)
		}
	})
	if err := k.RunUntil(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !j.Done() {
		t.Fatalf("soak did not complete (blocked: %v)", k.BlockedProcs())
	}
	if errs > 0 {
		t.Fatalf("%d errors", errs)
	}
	for i := 0; i < n; i++ {
		if c := j.Rank(i).Host().TCP.ConnCount(); c != 0 {
			t.Errorf("rank %d leaked %d connections", i, c)
		}
	}
}

func TestRecvFromFinishedRankFails(t *testing.T) {
	k, j := testJob(2, JobOptions{})
	var recvErr error
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		if r.ID() == 1 {
			// Finish immediately without sending anything. Finalize
			// needs a barrier, which needs the peer — so just close
			// the connection directly, like a crashed rank.
			r.Conn(0).Close()
			return
		}
		// Rank 0 waits for a message that can never come.
		_, recvErr = r.Recv(ctx, r.World(), 1, 0)
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if recvErr != ErrRankFinished {
		t.Fatalf("recv from dead peer = %v, want ErrRankFinished", recvErr)
	}
	if !j.Done() {
		t.Fatal("job hung on a dead peer")
	}
}

func TestRendezvousSendToDeadPeerFails(t *testing.T) {
	k, j := testJob(2, JobOptions{EagerThreshold: units.KB})
	var sendErr error
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		if r.ID() == 1 {
			// Die without ever posting the receive (no CTS).
			ctx.Sleep(100 * time.Millisecond)
			r.Conn(0).Close()
			return
		}
		sendErr = r.Send(ctx, r.World(), 1, 0, 100*units.KB, nil)
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if sendErr != ErrRankFinished {
		t.Fatalf("rendezvous send to dead peer = %v, want ErrRankFinished", sendErr)
	}
	if !j.Done() {
		t.Fatal("sender hung on dead peer's CTS")
	}
}
