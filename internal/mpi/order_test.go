package mpi

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// TestIrecvThenRecvPostedOrder: receives match in the order they were
// posted, so an Irecv posted before a Recv with the same envelope gets
// the first message.
func TestIrecvThenRecvPostedOrder(t *testing.T) {
	k, j := testJob(2, JobOptions{})
	var viaIrecv, viaRecv any
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		if r.ID() == 0 {
			ctx.Sleep(10 * time.Millisecond) // both receives are posted first
			for _, v := range []string{"first", "second"} {
				if err := r.Send(ctx, w, 1, 4, units.KB, v); err != nil {
					t.Error(err)
				}
			}
			return
		}
		q, err := r.Irecv(ctx, w, 0, 4)
		if err != nil {
			t.Error(err)
			return
		}
		m, err := r.Recv(ctx, w, 0, 4)
		if err != nil {
			t.Error(err)
			return
		}
		viaRecv = m.Data
		if err := q.Wait(ctx); err != nil {
			t.Error(err)
			return
		}
		viaIrecv = q.Message().Data
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if viaIrecv != "first" || viaRecv != "second" {
		t.Fatalf("Irecv got %v, Recv got %v; want first, second", viaIrecv, viaRecv)
	}
}

// TestIsendThenSendKeepsOrder: an Isend followed by a Send to the same
// peer puts the two messages on the wire in call order (MPI
// non-overtaking), for a remote peer, for a self-send, and for a
// rendezvous Isend followed by an eager Send.
func TestIsendThenSendKeepsOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		dest  int
		first units.ByteSize
	}{{"remote", 1, units.KB}, {"self", 0, units.KB}, {"rendezvous-first", 1, 256 * units.KB}} {
		t.Run(tc.name, func(t *testing.T) {
			k, j := testJob(2, JobOptions{})
			var got []any
			j.Start(func(ctx *sim.Ctx, r *Rank) {
				w := r.World()
				if r.ID() == 0 {
					q, err := r.Isend(ctx, w, tc.dest, 2, tc.first, "first")
					if err != nil {
						t.Error(err)
						return
					}
					if err := r.Send(ctx, w, tc.dest, 2, units.KB, "second"); err != nil {
						t.Error(err)
					}
					if err := q.Wait(ctx); err != nil {
						t.Error(err)
					}
				}
				if r.ID() != tc.dest {
					return
				}
				for i := 0; i < 2; i++ {
					m, err := r.Recv(ctx, w, 0, 2)
					if err != nil {
						t.Error(err)
						return
					}
					got = append(got, m.Data)
				}
			})
			if err := k.RunUntil(time.Minute); err != nil {
				t.Fatal(err)
			}
			if want := []any{"first", "second"}; !slices.Equal(got, want) {
				t.Fatalf("received %v, want %v", got, want)
			}
		})
	}
}

// TestPeerFailureOrderDeterministic: when a peer crashes, the
// rendezvous sends waiting for its clear-to-send fail in the order
// they were issued, run after run.
func TestPeerFailureOrderDeterministic(t *testing.T) {
	const sends = 6
	want := []int{0, 1, 2, 3, 4, 5}
	for run := 0; run < 20; run++ {
		k, j := testJob(2, JobOptions{EagerThreshold: 8 * units.KB})
		var order []int
		j.Start(func(ctx *sim.Ctx, r *Rank) {
			if r.ID() != 0 {
				ctx.Sleep(time.Second) // never posts a receive
				return
			}
			for i := 0; i < sends; i++ {
				q, err := r.Isend(ctx, r.World(), 1, 0, 64*units.KB, i)
				if err != nil {
					t.Error(err)
					return
				}
				ctx.SpawnChild(fmt.Sprintf("wait-%d", i), func(wctx *sim.Ctx) {
					if q.Wait(wctx) != nil {
						order = append(order, i)
					}
				})
			}
		})
		k.At(10*time.Millisecond, sim.PrioNormal, func() { j.CrashRank(1) })
		if err := k.RunUntil(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(order, want) {
			t.Fatalf("run %d: sends failed in order %v, want %v", run, order, want)
		}
	}
}

// TestCTSQueuesBehindFullSendBuffer: rank 1 posts its clear-to-send
// while its connection's send buffer is full with a 120 KB eager
// message. The CTS leaves after those bytes, so rank 0 can send the
// rendezvous data only once the eager message has reached it, and the
// rendezvous completes.
func TestCTSQueuesBehindFullSendBuffer(t *testing.T) {
	const big = 256 * units.KB
	k, j := testJob(2, JobOptions{SockBuf: 16 * units.KB})
	var ctsWhileFull bool
	var eagerAt, dataAt time.Duration
	j.Start(func(ctx *sim.Ctx, r *Rank) {
		w := r.World()
		if r.ID() == 0 {
			q, _ := r.Irecv(ctx, w, 1, 2)
			ctx.SpawnChild("eager", func(c *sim.Ctx) {
				if q.Wait(c) == nil {
					eagerAt = c.Now()
				}
			})
			ctx.Sleep(time.Millisecond) // rank 1's eager write fills its buffer first
			if err := r.Send(ctx, w, 1, 1, big, nil); err != nil {
				t.Error(err)
			}
			return
		}
		rq, _ := r.Irecv(ctx, w, 0, 1)
		sq, _ := r.Isend(ctx, w, 0, 2, 120*units.KB, nil)
		// The RTS match posts the CTS; see whether the buffer was full
		// then (it stays full while the eager write has bytes to go).
		for rq.env == nil && !rq.Done() {
			ctx.Sleep(20 * time.Microsecond)
		}
		c := r.Conn(0).Conn()
		ctsWhileFull = c.BufferedSend() >= c.SndBuf()
		if err := WaitAll(ctx, sq, rq); err != nil {
			t.Error(err)
		}
		dataAt = ctx.Now()
	})
	if err := k.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !j.Done() || eagerAt == 0 {
		t.Fatalf("job done=%v, eager message received at %v", j.Done(), eagerAt)
	}
	if !ctsWhileFull {
		t.Fatal("the CTS was not posted while the send buffer was full")
	}
	// 256 KB take 21 ms to serialize at 100 Mb/s, all after the CTS.
	if gap := dataAt - eagerAt; gap < 20*time.Millisecond {
		t.Fatalf("rendezvous data arrived %v after the eager message, want at least its 21 ms transfer", gap)
	}
}
