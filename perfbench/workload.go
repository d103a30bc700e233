package main

import (
	"fmt"
	"strings"
	"time"

	gq "mpichgq/internal/core"
	"mpichgq/internal/ctrlplane"
	"mpichgq/internal/diffserv"
	"mpichgq/internal/experiments"
	"mpichgq/internal/gara"
	"mpichgq/internal/garnet"
	"mpichgq/internal/metrics"
	"mpichgq/internal/mpi"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/tcpsim"
	"mpichgq/internal/trafficgen"
	"mpichgq/internal/units"

	"mpichgq/perfbench/internal/span"
)

// workload is one named benchmark input: a fixed list of sweep points,
// each run on its own kernel.
type workload struct {
	name   string
	points []point
	// scale multiplies the paper-length simulated durations, as
	// experiments.Config.TimeScale does.
	scale float64
	// passSeconds is the nominal wall time of one pass on two cores;
	// -seconds buys seconds/passSeconds passes.
	passSeconds float64
}

// point is one sweep point. Pingpong points use size/rsv/contended,
// storm points use mult/controls.
type point struct {
	size      units.ByteSize
	rsv       units.BitRate
	contended bool
	fluid     bool

	mult     float64
	controls bool
}

func (p point) label() string {
	if p.mult > 0 {
		mode := "raw"
		if p.controls {
			mode = "ctl"
		}
		return fmt.Sprintf("storm-%gx-%s", p.mult, mode)
	}
	if !p.contended {
		return fmt.Sprintf("msg%dKb-quiet", p.size.Bits()/1000)
	}
	return fmt.Sprintf("msg%dKb-rsv%gMb", p.size.Bits()/1000, p.rsv.Mbps())
}

// Workload scales: a pass of a pingpong workload takes about a second
// on two cores, so a run measures many passes and reports their
// medians. The storm runs the paper's full Figure I timeline; its 10x
// point alone takes about 1.5 s.
const (
	packetScale = 0.05
	fluidScale  = 0.5
	stormScale  = 1.0
)

// pingPongReservations are six of Figure 5's reservations, chosen so
// every message size has a point below its plateau and one on it
// (8 Kb saturates by 6 Mb/s, 40 Kb by 12, 80 Kb by 24, 120 Kb by 48).
// Every point keeps its kernel alive after the run (its MPI readers
// stay parked), so the point count, not the simulated time, sets the
// benchmark's memory.
var pingPongReservations = []units.BitRate{
	500 * units.Kbps, 2 * units.Mbps, 6 * units.Mbps,
	12 * units.Mbps, 24 * units.Mbps, 48 * units.Mbps,
}

var workloadNames = []string{"pingpong-packet", "pingpong-fluid", "storm"}

// newWorkload builds the named workload's point list.
func newWorkload(name string) (workload, error) {
	switch name {
	case "pingpong-packet", "pingpong-fluid":
		fluid := name == "pingpong-fluid"
		w := workload{name: name, scale: packetScale, passSeconds: 1}
		if fluid {
			w.scale, w.passSeconds = fluidScale, 1.2
		}
		// The Figure 5 sweep: every message size against reservations
		// from below to above its plateau, plus a no-contention point.
		for _, size := range experiments.Figure5MessageSizes {
			for _, rsv := range pingPongReservations {
				w.points = append(w.points, point{size: size, rsv: rsv, contended: true, fluid: fluid})
			}
			w.points = append(w.points, point{size: size, fluid: fluid})
		}
		return w, nil
	case "storm":
		w := workload{name: name, scale: stormScale, passSeconds: 2}
		// The Figure I loads, each with overload controls on and off.
		for _, m := range []float64{0.5, 1, 2, 5, 10} {
			w.points = append(w.points, point{mult: m, controls: true}, point{mult: m, controls: false})
		}
		return w, nil
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// counts are one point's per-layer work counters, read from its
// kernel after the run.
type counts struct {
	Events       uint64
	LiveMax      int
	TxPackets    int64
	NetDrops     int64
	FluidLoss    int64
	Conform      int64
	Exceed       int64
	PoliceDrops  int64
	Segments     int64
	Retransmits  int64
	Timeouts     int64
	HostTxBytes  int64 // bytes the MPI hosts put on the wire (TCP payload, headers, ACKs, retransmits)
	MPIMessages  int64
	MPIBytes     int64 // payload bytes received by MPI ranks
	Reservations int64
	Rejects      int64
	RPCAttempts  int64
	RPCRetries   int64
	Sheds        int64
	StormOffered int64
	StormOK      int64
}

func (c *counts) add(o counts) {
	c.Events += o.Events
	c.LiveMax = max(c.LiveMax, o.LiveMax)
	c.TxPackets += o.TxPackets
	c.NetDrops += o.NetDrops
	c.FluidLoss += o.FluidLoss
	c.Conform += o.Conform
	c.Exceed += o.Exceed
	c.PoliceDrops += o.PoliceDrops
	c.Segments += o.Segments
	c.Retransmits += o.Retransmits
	c.Timeouts += o.Timeouts
	c.HostTxBytes += o.HostTxBytes
	c.MPIMessages += o.MPIMessages
	c.MPIBytes += o.MPIBytes
	c.Reservations += o.Reservations
	c.Rejects += o.Rejects
	c.RPCAttempts += o.RPCAttempts
	c.RPCRetries += o.RPCRetries
	c.Sheds += o.Sheds
	c.StormOffered += o.StormOffered
	c.StormOK += o.StormOK
}

// result is one point's run: its user-visible outputs (compared
// across passes and against the reference), counters, wall times and
// any failure.
type result struct {
	Label   string
	Out     map[string]int64
	Counts  counts
	Wall    time.Duration
	Setup   time.Duration
	Failure string
}

// runPoint runs one point under a "point" span, turning panics and
// kernel errors into a recorded failure.
func runPoint(rec *span.Recorder, parent *span.Span, w workload, idx int, seed int64) (res result) {
	p := w.points[idx]
	res.Label = p.label()
	sp := rec.Begin("point", idx, parent)
	defer func() {
		if r := recover(); r != nil {
			res.Failure = fmt.Sprintf("panic: %v", r)
		}
		res.Wall = sp.End()
	}()
	if p.mult > 0 {
		runStorm(rec, sp, w.scale, idx, seed, p, &res)
	} else {
		runPingPong(rec, sp, w.scale, idx, seed, p, &res)
	}
	return res
}

// liveSamples is how many slices a point's RunUntil is cut into, so
// the live process count can be sampled between them. Slicing does
// not change the simulation: events run in the same order.
const liveSamples = 20

// runSliced runs k to until in liveSamples steps, tracking the peak
// live process count seen at the slice boundaries.
func runSliced(k *sim.Kernel, until time.Duration, liveMax *int) error {
	from := k.Now()
	for i := 1; i <= liveSamples; i++ {
		if err := k.RunUntil(from + (until-from)*time.Duration(i)/liveSamples); err != nil {
			return err
		}
		*liveMax = max(*liveMax, k.LiveProcs())
	}
	return nil
}

// runPingPong is one Figure 5 point: an MPI ping-pong pair across
// GARNET, under UDP contention (packet or fluid) when contended, with
// a premium reservation of p.rsv each way when p.rsv > 0.
func runPingPong(rec *span.Recorder, pointSpan *span.Span, scale float64, idx int, seed int64, p point, res *result) {
	dur := time.Duration(float64(20*time.Second) * scale)

	setup := rec.Begin("setup", idx, pointSpan)
	tb := garnet.New(experiments.DeriveSeed(seed, idx))
	if p.contended {
		bg := trafficgen.NewBackground(trafficgen.BackgroundOptions{
			Rate:       experiments.ContentionRate,
			PacketSize: 1000,
			Jitter:     0.1,
			Fluid:      p.fluid,
		})
		if err := bg.Run(tb.CompSrc, tb.CompDst, 9000); err != nil {
			panic(err)
		}
	}
	job := tb.NewMPIPair(tcpsim.DefaultOptions(), mpi.JobOptions{})
	agent := gq.NewAgent(tb.Gara, job)
	agent.OverheadFactor = 1.0
	var runSpan *span.Span
	var recvBytes *metrics.Counter
	var baseline int64
	job.Start(func(ctx *sim.Ctx, r *mpi.Rank) {
		pc, err := r.PairComm(ctx, 1-r.ID())
		if err != nil {
			panic(err)
		}
		if p.rsv > 0 {
			attr := &gq.QosAttribute{Class: gq.Premium, Bandwidth: p.rsv}
			sp := rec.Begin("reserve", idx, runSpan)
			err := r.AttrPut(pc, agent.Keyval(), attr)
			sp.End()
			if err != nil {
				panic(fmt.Sprintf("reservation: %v", err))
			}
		}
		peer := 1 - r.RankIn(pc)
		if r.ID() == 0 {
			recvBytes = r.RecvBytesCounter(pc)
			baseline = recvBytes.Value()
		}
		for ctx.Now() < dur {
			if r.ID() == 0 {
				if err := r.Send(ctx, pc, peer, 0, p.size, nil); err != nil {
					return
				}
				if _, err := r.Recv(ctx, pc, peer, 0); err != nil {
					return
				}
			} else {
				if _, err := r.Recv(ctx, pc, peer, 0); err != nil {
					return
				}
				if err := r.Send(ctx, pc, peer, 0, p.size, nil); err != nil {
					return
				}
			}
		}
	})
	res.Setup = setup.End()

	runSpan = rec.Begin("run", idx, pointSpan)
	err := runSliced(tb.K, dur, &res.Counts.LiveMax)
	runSpan.End()
	if err != nil {
		panic(fmt.Sprintf("kernel: %v", err))
	}

	readout := rec.Begin("readout", idx, pointSpan)
	defer readout.End()
	var oneWay int64
	if recvBytes != nil {
		oneWay = recvBytes.Value() - baseline
	}
	snap := tb.K.Metrics().TakeSnapshot()
	readCounts(&res.Counts, tb.K, &snap)
	hostTx := func(n *netsim.Node) int64 { return sumPrefix(&snap, "netsim_tx_bytes_total", "iface", n.Name()+"[") }
	res.Counts.HostTxBytes = hostTx(tb.PremSrc) + hostTx(tb.PremDst)
	res.Out = map[string]int64{
		"one_way_bytes":  oneWay,
		"dur_ns":         int64(dur),
		"bottleneck_bps": int64(tb.Bottleneck.Rate()),
		"msg_bytes":      int64(p.size),
		"sent0":          sumLabel(&snap, "mpi_sent_bytes_total", "rank", "0"),
		"sent1":          sumLabel(&snap, "mpi_sent_bytes_total", "rank", "1"),
		"recv0":          sumLabel(&snap, "mpi_recv_bytes_total", "rank", "0"),
		"recv1":          sumLabel(&snap, "mpi_recv_bytes_total", "rank", "1"),
	}
}

// Figure I constants (see internal/experiments/figi.go).
const (
	stormServiceTime = 10 * time.Millisecond
	stormCapacityRPS = 100.0
	// stormDrainLimit bounds the post-storm drain: an uncontrolled
	// broker queue at 10x load takes a while to empty.
	stormDrainLimit = 600 * time.Second
)

// runStorm is one Figure I point: a single-domain broker with finite
// service time behind the control plane, hit by a Poisson plus
// closed-loop reservation storm at p.mult times capacity. After the
// storm the kernel runs on until the broker queue and every storm
// process have drained and every reservation window has lapsed.
func runStorm(rec *span.Recorder, pointSpan *span.Span, scale float64, idx int, seed int64, p point, res *result) {
	sc := func(d time.Duration) time.Duration { return time.Duration(float64(d) * scale) }
	stop, dur := sc(16*time.Second), sc(20*time.Second)
	const window = 2 * time.Second

	setup := rec.Begin("setup", idx, pointSpan)
	// Both control variants at one load share a seed, so they face the
	// same arrival process.
	k := sim.New(experiments.DeriveSeed(seed, idx/2))
	n := netsim.New(k)
	hostA, e1, c1 := n.AddNode("hostA"), n.AddNode("e1"), n.AddNode("c1")
	l1 := n.Connect(hostA, e1, units.Gbps, time.Millisecond)
	l2 := n.Connect(e1, c1, units.Gbps, time.Millisecond)
	n.ComputeRoutes()
	dom := diffserv.NewDomain(k)
	dom.EnableEFAll(hostA, e1, c1)
	rm := gara.NewNetworkRM(n, dom, 0.5)
	rm.Scope = gara.LinkScope(l1, l2)
	g := gara.New(k)
	g.Register(rm)
	opts := ctrlplane.Options{Timeout: 400 * time.Millisecond, Deadline: 1200 * time.Millisecond}
	if p.controls {
		opts.Admission = ctrlplane.Admission{
			ServiceTime:   stormServiceTime,
			QueueLimit:    20,
			CoDelTarget:   50 * time.Millisecond,
			CoDelInterval: 200 * time.Millisecond,
			DropExpired:   true,
			BrownoutHi:    16,
			BrownoutLo:    4,
			BrownoutHold:  500 * time.Millisecond,
		}
	} else {
		opts.Admission = ctrlplane.Admission{ServiceTime: stormServiceTime}
	}
	plane := ctrlplane.NewPlane(k, opts)
	plane.AddDomain("dom", g, rm)
	conns := []*ctrlplane.Conn{
		plane.AddTenantConn("dom", "t0"),
		plane.AddTenantConn("dom", "t1"),
		plane.AddTenantConn("dom", "t2"),
	}
	var specs int64
	storm := &trafficgen.ReservationStorm{
		Conns:    conns,
		Rate:     p.mult * stormCapacityRPS,
		Clients:  6,
		Adaptive: p.controls,
		Retries:  2,
		Think:    sc(200 * time.Millisecond),
		Stop:     stop,
		Spec: func(i int) gara.Spec {
			specs++
			cls := gara.ClassBestEffort
			switch i % 5 {
			case 0:
				cls = gara.ClassPremium
			case 1, 2:
				cls = gara.ClassNormal
			}
			return gara.Spec{
				Type:      gara.ResourceNetwork,
				Class:     cls,
				Flow:      diffserv.MatchHostPair(hostA.Addr(), c1.Addr(), netsim.ProtoUDP),
				Bandwidth: units.Mbps,
				Duration:  window,
			}
		},
	}
	storm.Run(k)
	res.Setup = setup.End()

	run := rec.Begin("run", idx, pointSpan)
	err := runSliced(k, stop, &res.Counts.LiveMax)
	var atStop trafficgen.StormStats
	var callsAtStop, liveAtStop int64
	if err == nil {
		atStop = *storm.Stats()
		callsAtStop = stormCalls(k.Metrics())
		liveAtStop = int64(stormProcs(k))
		err = runSliced(k, dur, &res.Counts.LiveMax)
	}
	// Drain: run until no storm process is left and the broker queue
	// is empty, then past one more reservation window.
	srv := plane.Server("dom")
	for err == nil && (stormProcs(k) > 0 || srv.QueueDepth() > 0) && k.Now() < stormDrainLimit {
		err = k.RunFor(time.Second)
	}
	if err == nil {
		err = k.RunFor(window + time.Second)
	}
	run.End()
	if err != nil {
		panic(fmt.Sprintf("kernel: %v", err))
	}

	readout := rec.Begin("readout", idx, pointSpan)
	defer readout.End()
	snap := k.Metrics().TakeSnapshot()
	readCounts(&res.Counts, k, &snap)
	st := storm.Stats()
	res.Counts.StormOffered = int64(st.Offered)
	res.Counts.StormOK = int64(st.OK)
	res.Out = map[string]int64{
		"offered":           int64(st.Offered),
		"ok":                int64(st.OK),
		"refused":           int64(st.Refused),
		"overloads":         int64(st.Overloads),
		"deadlines":         int64(st.Deadlines),
		"sheds":             res.Counts.Sheds,
		"spec_calls":        specs,
		"calls":             stormCalls(k.Metrics()),
		"ok_at_stop":        int64(atStop.OK),
		"refused_at_stop":   int64(atStop.Refused),
		"overloads_at_stop": int64(atStop.Overloads),
		"deadlines_at_stop": int64(atStop.Deadlines),
		"calls_at_stop":     callsAtStop,
		"live_at_stop":      liveAtStop,
		"live_after_drain":  int64(stormProcs(k)),
		"queue_after_drain": int64(srv.QueueDepth()),
		"leaked_ppm":        int64(1e6 * (rm.Utilization(l1, k.Now()) + rm.Utilization(l2, k.Now()))),
	}
}

// stormProcs counts live storm processes (open-loop arrivals and
// closed-loop clients). Between RunUntil calls every live process is
// blocked, so the blocked list is the live list.
func stormProcs(k *sim.Kernel) int {
	n := 0
	for _, name := range k.BlockedProcs() {
		if strings.HasPrefix(name, "storm-") {
			n++
		}
	}
	return n
}

// stormCalls counts Reserve calls made through the tenant stubs:
// each call's first attempt is an attempt that is not a retry, and a
// call the circuit breaker rejects makes no attempt at all.
func stormCalls(reg *metrics.Registry) int64 {
	a, _ := reg.CounterValue("ctrl_rpc_attempts_total", "rm", "dom")
	r, _ := reg.CounterValue("ctrl_rpc_retries_total", "rm", "dom")
	b, _ := reg.CounterValue("ctrl_rpc_breaker_rejects_total", "rm", "dom")
	return a - r + b
}

// readCounts fills the registry-derived per-layer counters.
func readCounts(c *counts, k *sim.Kernel, s *metrics.Snapshot) {
	c.Events = k.EventsRun()
	c.TxPackets = sumAll(s, "netsim_tx_packets_total")
	c.NetDrops = sumAll(s, "netsim_egress_drops_total") + sumAll(s, "netsim_ingress_drops_total") +
		sumAll(s, "netsim_down_drops_total") + sumAll(s, "netsim_no_route_drops_total")
	c.FluidLoss = sumAll(s, "netsim_fluid_loss_bytes_total")
	c.Conform = sumAll(s, "diffserv_conform_packets_total")
	c.Exceed = sumAll(s, "diffserv_exceed_packets_total")
	c.PoliceDrops = sumAll(s, "diffserv_police_drops_total")
	c.Segments = sumAll(s, "tcp_segments_sent_total")
	c.Retransmits = sumAll(s, "tcp_retransmits_total")
	c.Timeouts = sumAll(s, "tcp_timeouts_total")
	c.MPIMessages = sumAll(s, "mpi_recv_messages_total")
	c.MPIBytes = sumAll(s, "mpi_recv_bytes_total")
	c.Reservations = sumAll(s, "gara_reservations_total")
	c.Rejects = sumAll(s, "gara_admission_rejects_total")
	c.RPCAttempts = sumAll(s, "ctrl_rpc_attempts_total")
	c.RPCRetries = sumAll(s, "ctrl_rpc_retries_total")
	c.Sheds = sumAll(s, "admission_shed_total")
}

// sumAll sums a counter over all its label sets.
func sumAll(s *metrics.Snapshot, name string) int64 {
	return sumPrefix(s, name, "", "")
}

// sumLabel sums a counter over the series whose label key equals val.
func sumLabel(s *metrics.Snapshot, name, key, val string) int64 {
	var t int64
	for _, m := range s.Metrics {
		if m.Name == name && m.Labels[key] == val {
			t += int64(m.Value)
		}
	}
	return t
}

// sumPrefix sums a counter over the series whose label key starts
// with prefix (key "" matches every series).
func sumPrefix(s *metrics.Snapshot, name, key, prefix string) int64 {
	var t int64
	for _, m := range s.Metrics {
		if m.Name == name && (key == "" || strings.HasPrefix(m.Labels[key], prefix)) {
			t += int64(m.Value)
		}
	}
	return t
}
