package gara

import (
	"errors"
	"testing"
	"time"

	"mpichgq/internal/diffserv"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// twoDomains builds
//
//	hostA - e1 - c1 ===border=== c2 - e2 - hostB
//
// with domain 1 owning {hostA-e1, e1-c1, border} and domain 2 owning
// {c2-e2, e2-hostB}, each with its own Gara and scoped NetworkRM. The
// cross-domain protocol over these pieces is ctrlplane.Coordinator;
// the tests here drive each domain's Gara directly.
type twoDomainRig struct {
	k            *sim.Kernel
	net          *netsim.Network
	hostA, hostB *netsim.Node
	border       *netsim.Link
	g1, g2       *Gara
	rm1, rm2     *NetworkRM
}

func newTwoDomains() *twoDomainRig {
	k := sim.New(1)
	n := netsim.New(k)
	hostA, e1, c1 := n.AddNode("hostA"), n.AddNode("e1"), n.AddNode("c1")
	c2, e2, hostB := n.AddNode("c2"), n.AddNode("e2"), n.AddNode("hostB")
	l1 := n.Connect(hostA, e1, 100*units.Mbps, time.Millisecond)
	l2 := n.Connect(e1, c1, 100*units.Mbps, time.Millisecond)
	border := n.Connect(c1, c2, 50*units.Mbps, 2*time.Millisecond)
	l4 := n.Connect(c2, e2, 100*units.Mbps, time.Millisecond)
	l5 := n.Connect(e2, hostB, 100*units.Mbps, time.Millisecond)
	n.ComputeRoutes()

	dom1 := diffserv.NewDomain(k)
	dom1.EnableEFAll(e1, c1)
	dom2 := diffserv.NewDomain(k)
	dom2.EnableEFAll(c2, e2)

	rm1 := NewNetworkRM(n, dom1, 0.5)
	rm1.Scope = LinkScope(l1, l2, border)
	rm2 := NewNetworkRM(n, dom2, 0.5)
	rm2.Scope = LinkScope(l4, l5)

	g1, g2 := New(k), New(k)
	g1.Register(rm1)
	g2.Register(rm2)
	return &twoDomainRig{
		k: k, net: n, hostA: hostA, hostB: hostB,
		border: border, g1: g1, g2: g2, rm1: rm1, rm2: rm2,
	}
}

func (r *twoDomainRig) spec(bw units.BitRate) Spec {
	return Spec{
		Type:      ResourceNetwork,
		Flow:      diffserv.MatchHostPair(r.hostA.Addr(), r.hostB.Addr(), netsim.ProtoUDP),
		Bandwidth: bw,
	}
}

// Each scoped domain books only its own hops, and only the domain the
// flow originates in installs an edge rule; transit and destination
// domains honor the upstream marking.
func TestScopedDomainsBookOwnSegments(t *testing.T) {
	r := newTwoDomains()
	spec := r.spec(10 * units.Mbps)
	r1, err := r.g1.Reserve(spec)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := r.g2.Reserve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.rm1.Utilization(r.border, r.k.Now()) == 0 {
		t.Fatal("domain 1 did not book the border link")
	}
	if r.rm2.Utilization(r.net.Links()[3], r.k.Now()) == 0 {
		t.Fatal("domain 2 did not book its segment")
	}
	if r.rm2.Utilization(r.border, r.k.Now()) != 0 {
		t.Fatal("domain 2 booked a link it does not own")
	}
	if r.rm1.Enforcement(r1) == nil {
		t.Fatal("originating domain should install edge marking")
	}
	if r.rm2.Enforcement(r2) != nil {
		t.Fatal("transit/destination domain must not re-mark")
	}
	r1.Cancel()
	r2.Cancel()
	if r.rm1.Utilization(r.border, r.k.Now()) != 0 {
		t.Fatal("cancel did not release domain 1 capacity")
	}
}

// A flow whose path never enters a domain is refused there with
// ErrNotInDomain, which is how a coordinator skips that domain.
func TestScopedDomainRefusesForeignFlow(t *testing.T) {
	r := newTwoDomains()
	spec := Spec{
		Type:      ResourceNetwork,
		Flow:      diffserv.MatchHostPair(r.net.Node("e2").Addr(), r.hostB.Addr(), netsim.ProtoTCP),
		Bandwidth: units.Mbps,
	}
	if _, err := r.g1.Reserve(spec); !errors.Is(err, ErrNotInDomain) {
		t.Fatalf("err = %v, want ErrNotInDomain", err)
	}
}

func (r *twoDomainRig) borderEF() float64 {
	return r.rm1.Utilization(r.border, r.k.Now())
}

func TestPrepareCommitLifecycle(t *testing.T) {
	r := newTwoDomains()
	p, err := r.g1.Prepare(r.spec(10*units.Mbps), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if p.State() != PrepareHeld {
		t.Fatalf("state = %v, want held", p.State())
	}
	// Capacity is booked during the hold, but nothing is enforced yet.
	if r.borderEF() == 0 {
		t.Fatal("prepare should book capacity")
	}
	if p.Reservation() != nil {
		t.Fatal("no reservation handle before commit")
	}
	res, err := p.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if res.State() != StateActive {
		t.Fatalf("committed reservation state = %v, want active", res.State())
	}
	if r.rm1.Enforcement(res) == nil {
		t.Fatal("commit should install edge enforcement")
	}
	if p.Reservation() != res {
		t.Fatal("Reservation() should return the committed handle")
	}
	// A second commit is refused.
	if _, err := p.Commit(); !errors.Is(err, ErrNotPrepared) {
		t.Fatalf("second commit error = %v, want ErrNotPrepared", err)
	}
	res.Cancel()
	if r.borderEF() != 0 {
		t.Fatal("cancel did not release capacity")
	}
}

func TestPrepareLeaseExpiryReclaims(t *testing.T) {
	r := newTwoDomains()
	p, err := r.g1.Prepare(r.spec(10*units.Mbps), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if r.borderEF() == 0 {
		t.Fatal("prepare should book capacity")
	}
	// Never commit; run past the lease.
	if err := r.k.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if p.State() != PrepareExpired {
		t.Fatalf("state = %v, want expired", p.State())
	}
	if r.borderEF() != 0 {
		t.Fatal("expired lease left capacity booked")
	}
	if _, err := p.Commit(); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("commit after expiry error = %v, want ErrLeaseExpired", err)
	}
	if v, _ := r.k.Metrics().CounterValue("gara_leases_expired_total"); v != 1 {
		t.Fatalf("gara_leases_expired_total = %d, want 1", v)
	}
}

// prepareAll is the multi-domain two-phase rollback in its plainest
// form: prepare spec in each domain in order and, on the first
// refusal, abort every segment already prepared.
func (r *twoDomainRig) prepareAll(spec Spec) error {
	var held []*Prepared
	for _, g := range []*Gara{r.g1, r.g2} {
		p, err := g.Prepare(spec, time.Second)
		if err != nil {
			for _, h := range held {
				h.Abort()
			}
			return err
		}
		held = append(held, p)
	}
	return nil
}

// A refusal in the downstream domain, caused by an unrelated flow that
// fills its EF share, leaves no capacity booked upstream.
func TestMultiDomainRollsBackOnDownstreamRefusal(t *testing.T) {
	r := newTwoDomains()
	// Fill domain 2's e2-hostB EF share (0.5*100 = 50 Mb/s).
	if _, err := r.g2.Reserve(Spec{
		Type:      ResourceNetwork,
		Flow:      diffserv.MatchHostPair(r.net.Node("e2").Addr(), r.hostB.Addr(), netsim.ProtoTCP),
		Bandwidth: 45 * units.Mbps,
	}); err != nil {
		t.Fatal(err)
	}
	// 45+10 > 50: domain 2 refuses after domain 1 has prepared.
	if err := r.prepareAll(r.spec(10 * units.Mbps)); err == nil {
		t.Fatal("downstream refusal expected")
	}
	if r.borderEF() != 0 {
		t.Fatal("rollback left capacity booked in domain 1")
	}
}

// Rollback is an Abort of leased prepares: it releases the leases at
// once, without waiting for them to expire.
func TestMultiDomainTwoPhaseRollbackReleasesLeases(t *testing.T) {
	r := newTwoDomains()
	// Fill domain 2's EF share so its prepare refuses the next flow.
	if _, err := r.g2.Reserve(r.spec(45 * units.Mbps)); err != nil {
		t.Fatal(err)
	}
	if err := r.prepareAll(r.spec(10 * units.Mbps)); err == nil {
		t.Fatal("downstream refusal expected")
	}
	if r.borderEF() != 0 {
		t.Fatal("rollback left capacity booked in domain 1")
	}
	if len(r.rm1.Leases()) != 0 || len(r.rm2.Leases()) != 0 {
		t.Fatal("rollback left outstanding leases")
	}
	reg := r.k.Metrics()
	if v, _ := reg.CounterValue("gara_prepare_aborts_total"); v == 0 {
		t.Fatal("rollback should go through the abort path")
	}
	if v, _ := reg.CounterValue("gara_leases_expired_total"); v != 0 {
		t.Fatalf("rollback must not wait for lease expiry; expired = %d", v)
	}
}

func TestPrepareAbortIdempotent(t *testing.T) {
	r := newTwoDomains()
	p, err := r.g1.Prepare(r.spec(10*units.Mbps), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	p.Abort()
	if p.State() != PrepareAborted {
		t.Fatalf("state = %v, want aborted", p.State())
	}
	if r.borderEF() != 0 {
		t.Fatal("abort did not release capacity")
	}
	p.Abort() // no-op
	// The cancelled lease timer must not reclaim anything later.
	if err := r.k.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.k.Metrics().CounterValue("gara_prepare_aborts_total"); v != 1 {
		t.Fatalf("gara_prepare_aborts_total = %d, want 1", v)
	}
	if v, _ := r.k.Metrics().CounterValue("gara_leases_expired_total"); v != 0 {
		t.Fatalf("aborted prepare must not also expire; expired = %d", v)
	}
}

func TestPrepareAdvanceReservationCommitsToPending(t *testing.T) {
	r := newTwoDomains()
	spec := r.spec(10 * units.Mbps)
	spec.Start = 5 * time.Second
	spec.Duration = 10 * time.Second
	p, err := r.g1.Prepare(spec, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if res.State() != StatePending {
		t.Fatalf("advance reservation state = %v, want pending", res.State())
	}
	if err := r.k.RunUntil(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	if res.State() != StateActive {
		t.Fatalf("state at start time = %v, want active", res.State())
	}
	res.Cancel()
}
