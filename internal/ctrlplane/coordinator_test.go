package ctrlplane

import (
	"errors"
	"testing"
	"time"

	"mpichgq/internal/diffserv"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// fillDom2 books 45 of dom2's 50 Mb/s EF share on the hostA→hostB
// path directly in dom2's Gara, so dom2 refuses any co-reservation
// above 5 Mb/s until the returned cancel runs.
func (r *rig) fillDom2(t *testing.T) (cancel func()) {
	t.Helper()
	res, err := r.g2.Reserve(r.spec(45 * units.Mbps))
	if err != nil {
		t.Fatal(err)
	}
	return res.Cancel
}

// A refusal in the downstream domain rolls the upstream segment back
// by an explicit abort: well inside the lease TTL, dom1 holds no EF
// capacity and no lease.
func TestCoordinatorRollsBackOnDownstreamRefusal(t *testing.T) {
	r := newRig(1, Options{})
	r.fillDom2(t)
	var rerr error
	r.k.Spawn("coord", func(ctx *sim.Ctx) {
		_, rerr = r.co.Reserve(ctx, r.spec(10*units.Mbps))
	})
	if err := r.k.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if rerr == nil {
		t.Fatal("downstream refusal expected")
	}
	for _, l := range r.net.Links() {
		if u := r.rm1.Utilization(l, r.k.Now()); u != 0 {
			t.Fatalf("rollback left %.3f booked on %s in dom1", u, l.Name())
		}
	}
	if n1, n2 := len(r.rm1.Leases()), len(r.rm2.Leases()); n1 != 0 || n2 != 0 {
		t.Fatalf("rollback left leases: dom1 %d, dom2 %d", n1, n2)
	}
	if v, _ := r.k.Metrics().CounterValue("gara_prepare_aborts_total"); v == 0 {
		t.Fatal("rollback should go through the abort path")
	}
}

// A flow that no domain owns any hop of is an error, not an empty
// reservation.
func TestCoordinatorNoOwningDomain(t *testing.T) {
	r := newRig(1, Options{})
	// A flow entirely inside dom2, requested through a coordinator
	// that only reaches dom1.
	co := NewCoordinator(r.plane.Conn("dom1"))
	spec := r.spec(units.Mbps)
	spec.Flow = diffserv.MatchHostPair(r.net.Node("e2").Addr(), r.hostB.Addr(), netsim.ProtoTCP)
	var mr *MultiRes
	var rerr error
	r.k.Spawn("coord", func(ctx *sim.Ctx) {
		mr, rerr = co.Reserve(ctx, spec)
	})
	if err := r.k.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if rerr == nil {
		t.Fatalf("no owning domain should be an error, got %v", mr.IDs())
	}
}

// A cross-domain premium flow keeps its rate through a border link
// that best-effort traffic saturates. The reservation is made right
// after a refused attempt for 20 Mb/s, so it fits in dom1's 25 Mb/s
// border EF share only if that attempt was rolled back.
func TestCoordinatorCrossDomainProtection(t *testing.T) {
	r := newRig(1, Options{})
	const stop = 10 * time.Second
	cancelFill := r.fillDom2(t)
	sink, err := r.hostB.UDPStack().BindSink(700)
	if err != nil {
		t.Fatal(err)
	}
	src, err := r.hostA.UDPStack().Bind(0)
	if err != nil {
		t.Fatal(err)
	}
	blast, err := r.net.Node("e1").UDPStack().Bind(0)
	if err != nil {
		t.Fatal(err)
	}
	e2 := r.net.Node("e2").Addr()
	var rerr error
	r.k.Spawn("coord", func(ctx *sim.Ctx) {
		if _, err := r.co.Reserve(ctx, r.spec(20*units.Mbps)); err == nil {
			rerr = errors.New("dom2 admitted 20 Mb/s over its fill")
			return
		}
		cancelFill()
		if _, rerr = r.co.Reserve(ctx, r.spec(10*units.Mbps)); rerr != nil {
			return
		}
		// 60 Mb/s best effort e1→e2 crosses the 50 Mb/s border.
		r.k.Spawn("blast", func(ctx *sim.Ctx) {
			gap := (60 * units.Mbps).TimeToSend(1028)
			for ctx.Now() < stop {
				blast.SendTo(e2, 9000, 1000, nil)
				ctx.Sleep(gap)
			}
		})
		gap := (9 * units.Mbps).TimeToSend(1028)
		for ctx.Now() < stop {
			src.SendTo(r.hostB.Addr(), 700, 1000, nil)
			ctx.Sleep(gap)
		}
	})
	if err := r.k.RunUntil(stop); err != nil {
		t.Fatal(err)
	}
	if rerr != nil {
		t.Fatalf("premium co-reservation after a rolled-back attempt: %v", rerr)
	}
	_, rx := sink.RxStats()
	if rate := units.RateOf(units.ByteSize(rx), stop); rate < 8*units.Mbps {
		t.Fatalf("cross-domain premium flow achieved %v, want ~9 Mb/s", rate)
	}
}
