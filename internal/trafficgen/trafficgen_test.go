package trafficgen

import (
	"testing"
	"time"

	"mpichgq/internal/dsrt"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// blastNet is a two-node network with one link of the given rate and
// delay between a and b.
func blastNet(seed int64, rate units.BitRate, delay time.Duration) (*sim.Kernel, *netsim.Link, *netsim.Node, *netsim.Node) {
	k := sim.New(seed)
	n := netsim.New(k)
	a, b := n.AddNode("a"), n.AddNode("b")
	l := n.Connect(a, b, rate, delay)
	n.ComputeRoutes()
	return k, l, a, b
}

// blastGap is the closed-form inter-datagram gap: one wire packet
// (payload plus UDP and IP headers) at the offered rate.
func blastGap(rate units.BitRate, payload units.ByteSize) time.Duration {
	return rate.TimeToSend(payload + netsim.UDPHeader + netsim.IPHeader)
}

func TestBlasterOfferedRate(t *testing.T) {
	k, _, a, b := blastNet(1, 100*units.Mbps, time.Millisecond)
	bl := &UDPBlaster{Rate: 20 * units.Mbps, PacketSize: 1000}
	if err := bl.Run(a, b, 9000); err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// 20 Mb/s in 1028-byte wire packets for 10 s ≈ 24320 packets.
	wantF := 10 * 20e6 / (1028 * 8.0)
	want := int64(wantF)
	if bl.Sent() < want*95/100 || bl.Sent() > want*105/100 {
		t.Fatalf("sent %d datagrams, want ~%d", bl.Sent(), want)
	}
}

func TestBlasterWindow(t *testing.T) {
	k, _, a, b := blastNet(1, 100*units.Mbps, 0)
	bl := &UDPBlaster{Rate: 10 * units.Mbps, Start: 2 * time.Second, Stop: 4 * time.Second}
	if err := bl.Run(a, b, 9000); err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if bl.Sent() != 0 {
		t.Fatal("blaster started early")
	}
	if err := k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	sent := bl.Sent()
	if sent == 0 {
		t.Fatal("blaster never ran")
	}
	if err := k.RunUntil(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if bl.Sent() != sent {
		t.Fatal("blaster kept sending after Stop")
	}
}

func TestBlasterJitterDeterministic(t *testing.T) {
	run := func() int64 {
		k, _, a, b := blastNet(7, 100*units.Mbps, 0)
		bl := &UDPBlaster{Rate: 10 * units.Mbps, Jitter: 0.2}
		bl.Run(a, b, 9000)
		k.RunUntil(5 * time.Second)
		return bl.Sent()
	}
	if run() != run() {
		t.Fatal("jittered blaster not deterministic across same-seed runs")
	}
}

// TestBlasterScheduleClosedForm checks an unjittered blaster against
// the closed form: datagrams go out at Start + i·gap, so by T it has
// sent ⌊(T−Start)/gap⌋+1, and Stop admits exactly those before Stop.
// Stop falls exactly on a send instant, which it must cut off.
func TestBlasterScheduleClosedForm(t *testing.T) {
	const start, rate, size, stopAfter = 300 * time.Millisecond, 10 * units.Mbps, 1000, 2000
	gap := blastGap(rate, size)
	k, _, a, b := blastNet(1, 100*units.Mbps, time.Millisecond)
	bl := &UDPBlaster{Rate: rate, PacketSize: size, Start: start, Stop: start + stopAfter*gap}
	if err := bl.Run(a, b, 9000); err != nil {
		t.Fatal(err)
	}
	for _, at := range []time.Duration{start - 1, start, start + gap - 1, start + gap, time.Second, time.Second + 7*gap/3} {
		if err := k.RunUntil(at); err != nil {
			t.Fatal(err)
		}
		var want int64
		if at >= start {
			want = int64((at-start)/gap) + 1
		}
		if bl.Sent() != want {
			t.Fatalf("at %v: sent %d, want %d", at, bl.Sent(), want)
		}
	}
	if err := k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if bl.Sent() != stopAfter {
		t.Fatalf("after Stop: sent %d, want %d", bl.Sent(), stopAfter)
	}
}

// TestBlasterJitterReplay replays the jittered schedule on an
// independent RNG with the kernel's seed: the blaster is the only
// consumer of the kernel RNG here, so the expected count is exact.
func TestBlasterJitterReplay(t *testing.T) {
	const seed, jitter = 11, 0.3
	const start, stop, end = 50 * time.Millisecond, 3 * time.Second, 4 * time.Second
	k, _, a, b := blastNet(seed, 100*units.Mbps, 0)
	bl := &UDPBlaster{Rate: 20 * units.Mbps, PacketSize: 700, Jitter: jitter, Start: start, Stop: stop}
	if err := bl.Run(a, b, 9000); err != nil {
		t.Fatal(err)
	}
	gap := blastGap(bl.Rate, bl.PacketSize)
	rng := sim.New(seed).RNG()
	var sendTimes []time.Duration
	for at := start; at < stop; {
		sendTimes = append(sendTimes, at)
		at += max(time.Duration(float64(gap)*rng.Jitter(jitter)), 0)
	}
	sentBy := func(at time.Duration) int64 {
		n := int64(0)
		for _, s := range sendTimes {
			if s <= at {
				n++
			}
		}
		return n
	}
	for _, at := range []time.Duration{start, 700 * time.Millisecond, 2 * time.Second, end} {
		if err := k.RunUntil(at); err != nil {
			t.Fatal(err)
		}
		if got, want := bl.Sent(), sentBy(at); got != want {
			t.Fatalf("at %v: sent %d, replay says %d", at, got, want)
		}
	}
}

// TestBlasterRunsNoProcess checks the blaster and its sink are
// process-free for a whole blaster-only run.
func TestBlasterRunsNoProcess(t *testing.T) {
	k, _, a, b := blastNet(3, 100*units.Mbps, time.Millisecond)
	bl := &UDPBlaster{Rate: 50 * units.Mbps, Jitter: 0.1, Stop: 2 * time.Second}
	if err := bl.Run(a, b, 9000); err != nil {
		t.Fatal(err)
	}
	for at := time.Duration(0); at <= 3*time.Second; at += 100 * time.Millisecond {
		if err := k.RunUntil(at); err != nil {
			t.Fatal(err)
		}
		if n := k.LiveProcs(); n != 0 {
			t.Fatalf("at %v: %d live processes, want 0", at, n)
		}
	}
	if bl.Sent() == 0 {
		t.Fatal("blaster never ran")
	}
}

// TestBlasterSinkConservation overloads a slow link so the source
// interface drops datagrams, then drains: every datagram offered is
// either dropped at the link or counted by the sink.
func TestBlasterSinkConservation(t *testing.T) {
	k, l, a, b := blastNet(5, 10*units.Mbps, 2*time.Millisecond)
	sink, err := b.UDPStack().BindSink(9000)
	if err != nil {
		t.Fatal(err)
	}
	bl := &UDPBlaster{Rate: 25 * units.Mbps, PacketSize: 1000, Jitter: 0.2, Stop: 2 * time.Second}
	if err := bl.Run(a, b, 9000); err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := l.IfaceOn(a).Stats()
	if st.EgressDrops == 0 {
		t.Fatal("overloaded link dropped nothing; the test needs drops")
	}
	dgs, bytes := sink.RxStats()
	delivered := bl.Sent() - int64(st.EgressDrops+st.DownDrops)
	if int64(dgs) != delivered {
		t.Fatalf("sink counted %d datagrams, want sent %d - drops %d = %d", dgs, bl.Sent(), st.EgressDrops+st.DownDrops, delivered)
	}
	if bytes != int64(dgs)*int64(bl.PacketSize) {
		t.Fatalf("sink counted %d bytes for %d datagrams of %v", bytes, dgs, bl.PacketSize)
	}
	if d := b.UDPStack().RxDrops(); d != 0 {
		t.Fatalf("stack dropped %d datagrams for want of a socket", d)
	}
}

// TestBlasterSteadyStateZeroAlloc pins the blaster's steady state at
// zero allocations: each tick, send, delivery and sink count run on
// pooled events and packets.
func TestBlasterSteadyStateZeroAlloc(t *testing.T) {
	k, _, a, b := blastNet(1, 100*units.Mbps, time.Millisecond)
	bl := &UDPBlaster{Rate: 80 * units.Mbps, Jitter: 0.1}
	if err := bl.Run(a, b, 9000); err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := k.RunFor(10 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per 10 ms of blasting, want 0", allocs)
	}
}

func TestBlasterValidation(t *testing.T) {
	_, _, a, b := blastNet(1, units.Mbps, 0)
	bl := &UDPBlaster{}
	if err := bl.Run(a, b, 9); err == nil {
		t.Fatal("zero-rate blaster should be rejected")
	}
}

func TestCPUHogStealsShare(t *testing.T) {
	k := sim.New(1)
	cpu := dsrt.NewCPU(k, "host")
	app := cpu.NewTask("app")
	hog := &CPUHog{Start: time.Second, Stop: 3 * time.Second}
	hog.Run(k, cpu)
	var done time.Duration
	k.Spawn("app", func(ctx *sim.Ctx) {
		app.Compute(ctx, 2*time.Second)
		done = ctx.Now()
	})
	if err := k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// App alone 0-1s (1s of work done), contended 1-3s (1s more at
	// half speed -> finishes at 3s).
	if done < 2900*time.Millisecond || done > 3100*time.Millisecond {
		t.Fatalf("app finished at %v, want ~3s", done)
	}
}
