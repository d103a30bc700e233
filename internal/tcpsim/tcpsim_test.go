package tcpsim

import (
	"io"
	"slices"
	"testing"
	"time"

	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// testNet builds a two-host network with TCP stacks:
// a --- b at the given rate/delay.
func testNet(rate units.BitRate, delay time.Duration, opts Options) (*sim.Kernel, *Stack, *Stack) {
	k := sim.New(1)
	n := netsim.New(k)
	a := n.AddNode("a")
	b := n.AddNode("b")
	n.Connect(a, b, rate, delay)
	n.ComputeRoutes()
	return k, NewStack(a, opts), NewStack(b, opts)
}

// testNetBottleneck builds a --- r1 --- r2 --- b with a bottleneck
// link r1-r2 and returns the stacks plus the bottleneck link.
func testNetBottleneck(access, bottleneck units.BitRate, delay time.Duration, opts Options) (*sim.Kernel, *Stack, *Stack, *netsim.Link) {
	k := sim.New(1)
	n := netsim.New(k)
	a, r1, r2, b := n.AddNode("a"), n.AddNode("r1"), n.AddNode("r2"), n.AddNode("b")
	n.Connect(a, r1, access, delay/4)
	l := n.Connect(r1, r2, bottleneck, delay/4)
	n.Connect(r2, b, access, delay/4)
	n.ComputeRoutes()
	return k, NewStack(a, opts), NewStack(b, opts), l
}

func TestHandshakeAndTransfer(t *testing.T) {
	k, sa, sb := testNet(10*units.Mbps, time.Millisecond, DefaultOptions())
	const total = 100 * units.KB
	var received units.ByteSize
	k.Spawn("server", func(ctx *sim.Ctx) {
		l, err := sb.Listen(80)
		if err != nil {
			t.Error(err)
			return
		}
		c, err := l.Accept(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		for {
			n, err := c.Read(ctx, 32*units.KB)
			received += n
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	})
	k.Spawn("client", func(ctx *sim.Ctx) {
		c, err := sa.Dial(ctx, sb.Node().Addr(), 80)
		if err != nil {
			t.Error(err)
			return
		}
		if err := c.Write(ctx, total); err != nil {
			t.Error(err)
			return
		}
		if err := c.Drain(ctx); err != nil {
			t.Error(err)
			return
		}
		c.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if received != total {
		t.Fatalf("received %d bytes, want %d", received, total)
	}
}

func TestDialRefused(t *testing.T) {
	k, sa, sb := testNet(10*units.Mbps, time.Millisecond, DefaultOptions())
	var dialErr error
	k.Spawn("client", func(ctx *sim.Ctx) {
		_, dialErr = sa.Dial(ctx, sb.Node().Addr(), 81)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if dialErr != ErrRefused {
		t.Fatalf("dial error = %v, want ErrRefused", dialErr)
	}
}

func TestDialTimeoutUnreachable(t *testing.T) {
	// Destination exists but no route (island node).
	k := sim.New(1)
	n := netsim.New(k)
	a := n.AddNode("a")
	island := n.AddNode("island")
	b := n.AddNode("b")
	n.Connect(a, b, units.Mbps, 0)
	n.ComputeRoutes()
	sa := NewStack(a, DefaultOptions())
	NewStack(island, DefaultOptions())
	var dialErr error
	k.Spawn("client", func(ctx *sim.Ctx) {
		_, dialErr = sa.Dial(ctx, island.Addr(), 80)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if dialErr != ErrTimeout {
		t.Fatalf("dial error = %v, want ErrTimeout", dialErr)
	}
}

func TestThroughputApproachesLinkRate(t *testing.T) {
	// Long-lived bulk transfer on a clean 10 Mb/s path should reach
	// most of the link rate (goodput ~ rate * 1460/1500).
	opts := DefaultOptions()
	opts.SndBuf = 256 * units.KB
	opts.RcvBuf = 256 * units.KB
	k, sa, sb, _ := testNetBottleneck(100*units.Mbps, 10*units.Mbps, 4*time.Millisecond, opts)
	var received units.ByteSize
	start, end := time.Duration(0), time.Duration(0)
	k.Spawn("server", func(ctx *sim.Ctx) {
		l, _ := sb.Listen(80)
		c, err := l.Accept(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		start = ctx.Now()
		for {
			n, err := c.Read(ctx, 64*units.KB)
			received += n
			end = ctx.Now()
			if err != nil {
				return
			}
		}
	})
	k.Spawn("client", func(ctx *sim.Ctx) {
		c, err := sa.Dial(ctx, sb.Node().Addr(), 80)
		if err != nil {
			t.Error(err)
			return
		}
		c.Write(ctx, 10*units.MB)
		c.Drain(ctx)
		c.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	rate := units.RateOf(received, end-start)
	if rate < 8*units.Mbps {
		t.Fatalf("bulk throughput %v, want > 8 Mb/s of a 10 Mb/s link", rate)
	}
	if rate > 10*units.Mbps {
		t.Fatalf("throughput %v exceeds link rate", rate)
	}
}

func TestReliableDeliveryUnderLoss(t *testing.T) {
	// Random 5% ingress loss on the receiver side; all bytes must
	// still arrive, via retransmission.
	opts := DefaultOptions()
	k, sa, sb := testNet(10*units.Mbps, 2*time.Millisecond, opts)
	rng := sim.NewRNG(42)
	bIface := sb.Node().Ifaces()[0]
	bIface.AddIngress(netsim.IngressFilterFunc(func(p *netsim.Packet) *netsim.Packet {
		if p.PayloadLen > 0 && rng.Float64() < 0.05 {
			return nil
		}
		return p
	}))
	const total = 500 * units.KB
	var received units.ByteSize
	var clientConn *Conn
	k.Spawn("server", func(ctx *sim.Ctx) {
		l, _ := sb.Listen(80)
		c, err := l.Accept(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		for {
			n, err := c.Read(ctx, 64*units.KB)
			received += n
			if err != nil {
				return
			}
		}
	})
	k.Spawn("client", func(ctx *sim.Ctx) {
		c, err := sa.Dial(ctx, sb.Node().Addr(), 80)
		if err != nil {
			t.Error(err)
			return
		}
		clientConn = c
		c.Write(ctx, total)
		c.Drain(ctx)
		c.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if received != total {
		t.Fatalf("received %d bytes, want %d", received, total)
	}
	if clientConn.Stats().Retransmits == 0 {
		t.Fatal("expected retransmissions under 5% loss")
	}
}

func TestInOrderDeliveryProperty(t *testing.T) {
	// Markers written in order must be read in order despite loss.
	opts := DefaultOptions()
	k, sa, sb := testNet(10*units.Mbps, 2*time.Millisecond, opts)
	rng := sim.NewRNG(7)
	sb.Node().Ifaces()[0].AddIngress(netsim.IngressFilterFunc(func(p *netsim.Packet) *netsim.Packet {
		if p.PayloadLen > 0 && rng.Float64() < 0.1 {
			return nil
		}
		return p
	}))
	const nMsgs = 50
	var got []int
	k.Spawn("server", func(ctx *sim.Ctx) {
		l, _ := sb.Listen(80)
		c, err := l.Accept(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		for {
			_, obj, err := c.ReadMsg(ctx)
			if err != nil {
				return
			}
			got = append(got, obj.(int))
		}
	})
	k.Spawn("client", func(ctx *sim.Ctx) {
		c, err := sa.Dial(ctx, sb.Node().Addr(), 80)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < nMsgs; i++ {
			size := units.ByteSize(rng.Intn(20000) + 1)
			if err := c.WriteMsg(ctx, size, i); err != nil {
				t.Error(err)
				return
			}
		}
		c.Drain(ctx)
		c.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != nMsgs {
		t.Fatalf("received %d messages, want %d", len(got), nMsgs)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("message %d out of order: got %d", i, v)
		}
	}
}

func TestSlowStartGrowth(t *testing.T) {
	// cwnd should double per RTT during slow start.
	opts := DefaultOptions()
	opts.SndBuf = units.MB
	opts.RcvBuf = units.MB
	k, sa, sb := testNet(100*units.Mbps, 10*time.Millisecond, opts)
	var cwndAt50ms, cwndAt100ms units.ByteSize
	var conn *Conn
	k.Spawn("server", func(ctx *sim.Ctx) {
		l, _ := sb.Listen(80)
		c, err := l.Accept(ctx)
		if err != nil {
			return
		}
		for {
			if _, err := c.Read(ctx, units.MB); err != nil {
				return
			}
		}
	})
	k.Spawn("client", func(ctx *sim.Ctx) {
		c, err := sa.Dial(ctx, sb.Node().Addr(), 80)
		if err != nil {
			t.Error(err)
			return
		}
		conn = c
		c.Write(ctx, 5*units.MB)
	})
	k.After(70*time.Millisecond, func() { cwndAt50ms = conn.Stats().Cwnd })
	k.After(130*time.Millisecond, func() { cwndAt100ms = conn.Stats().Cwnd })
	if err := k.RunUntil(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if cwndAt100ms < 2*cwndAt50ms {
		t.Fatalf("cwnd not growing exponentially: %d then %d", cwndAt50ms, cwndAt100ms)
	}
}

func TestFastRetransmitOnSingleLoss(t *testing.T) {
	// Drop exactly one data packet mid-stream: recovery should use
	// fast retransmit (not a timeout).
	opts := DefaultOptions()
	opts.SndBuf = 256 * units.KB
	opts.RcvBuf = 256 * units.KB
	k, sa, sb := testNet(10*units.Mbps, 2*time.Millisecond, opts)
	dropped := false
	count := 0
	sb.Node().Ifaces()[0].AddIngress(netsim.IngressFilterFunc(func(p *netsim.Packet) *netsim.Packet {
		if p.PayloadLen > 0 {
			count++
			if count == 20 && !dropped {
				dropped = true
				return nil
			}
		}
		return p
	}))
	var conn *Conn
	var received units.ByteSize
	k.Spawn("server", func(ctx *sim.Ctx) {
		l, _ := sb.Listen(80)
		c, err := l.Accept(ctx)
		if err != nil {
			return
		}
		for {
			n, err := c.Read(ctx, units.MB)
			received += n
			if err != nil {
				return
			}
		}
	})
	k.Spawn("client", func(ctx *sim.Ctx) {
		c, err := sa.Dial(ctx, sb.Node().Addr(), 80)
		if err != nil {
			t.Error(err)
			return
		}
		conn = c
		c.Write(ctx, 500*units.KB)
		c.Drain(ctx)
		c.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st := conn.Stats()
	if received != 500*units.KB {
		t.Fatalf("received %d, want %d", received, 500*units.KB)
	}
	if st.FastRetransmit == 0 {
		t.Fatal("expected a fast retransmit")
	}
	if st.Timeouts != 0 {
		t.Fatalf("expected no RTO for an isolated loss, got %d", st.Timeouts)
	}
}

func TestRTOAfterTotalBlackout(t *testing.T) {
	// Drop everything for a while: sender must hit RTOs and recover
	// when the path heals.
	opts := DefaultOptions()
	k, sa, sb := testNet(10*units.Mbps, time.Millisecond, opts)
	blackout := false
	sb.Node().Ifaces()[0].AddIngress(netsim.IngressFilterFunc(func(p *netsim.Packet) *netsim.Packet {
		if blackout {
			return nil
		}
		return p
	}))
	var conn *Conn
	var received units.ByteSize
	k.Spawn("server", func(ctx *sim.Ctx) {
		l, _ := sb.Listen(80)
		c, err := l.Accept(ctx)
		if err != nil {
			return
		}
		for {
			n, err := c.Read(ctx, units.MB)
			received += n
			if err != nil {
				return
			}
		}
	})
	k.Spawn("client", func(ctx *sim.Ctx) {
		c, err := sa.Dial(ctx, sb.Node().Addr(), 80)
		if err != nil {
			t.Error(err)
			return
		}
		conn = c
		c.Write(ctx, 200*units.KB)
		c.Drain(ctx)
		c.Close()
	})
	k.After(20*time.Millisecond, func() { blackout = true })
	k.After(3*time.Second, func() { blackout = false })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if received != 200*units.KB {
		t.Fatalf("received %d, want %d", received, 200*units.KB)
	}
	if conn.Stats().Timeouts == 0 {
		t.Fatal("expected RTOs during blackout")
	}
}

func TestSendBufferBlocksWriter(t *testing.T) {
	// With an 8 KB send buffer and a slow link, a large write must
	// block and complete only as data drains.
	opts := DefaultOptions()
	opts.SndBuf = 8 * units.KB
	k, sa, sb := testNet(800*units.Kbps, time.Millisecond, opts)
	var writeDone time.Duration
	k.Spawn("server", func(ctx *sim.Ctx) {
		l, _ := sb.Listen(80)
		c, err := l.Accept(ctx)
		if err != nil {
			return
		}
		for {
			if _, err := c.Read(ctx, units.MB); err != nil {
				return
			}
		}
	})
	k.Spawn("client", func(ctx *sim.Ctx) {
		c, err := sa.Dial(ctx, sb.Node().Addr(), 80)
		if err != nil {
			t.Error(err)
			return
		}
		c.Write(ctx, 100*units.KB)
		writeDone = ctx.Now()
		c.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 100 KB at 800 Kb/s takes ~1 s; an unblocked write would return
	// almost immediately.
	if writeDone < 500*time.Millisecond {
		t.Fatalf("write returned at %v; should have blocked on the 8KB buffer", writeDone)
	}
}

func TestReceiverWindowBackpressure(t *testing.T) {
	// Receiver app reads slowly: sender must be flow-controlled and
	// not lose data.
	opts := DefaultOptions()
	opts.RcvBuf = 16 * units.KB
	opts.SndBuf = 256 * units.KB
	k, sa, sb := testNet(100*units.Mbps, time.Millisecond, opts)
	const total = 200 * units.KB
	var received units.ByteSize
	k.Spawn("server", func(ctx *sim.Ctx) {
		l, _ := sb.Listen(80)
		c, err := l.Accept(ctx)
		if err != nil {
			return
		}
		for {
			n, err := c.Read(ctx, 4*units.KB)
			received += n
			if err != nil {
				return
			}
			ctx.Sleep(5 * time.Millisecond) // slow consumer
		}
	})
	k.Spawn("client", func(ctx *sim.Ctx) {
		c, err := sa.Dial(ctx, sb.Node().Addr(), 80)
		if err != nil {
			t.Error(err)
			return
		}
		c.Write(ctx, total)
		c.Drain(ctx)
		c.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if received != total {
		t.Fatalf("received %d, want %d", received, total)
	}
}

func TestBidirectionalTransfer(t *testing.T) {
	// Ping-pong without MPI: both directions carry data on one conn.
	opts := DefaultOptions()
	k, sa, sb := testNet(10*units.Mbps, 2*time.Millisecond, opts)
	const rounds = 20
	const msg = 10 * units.KB
	done := 0
	k.Spawn("server", func(ctx *sim.Ctx) {
		l, _ := sb.Listen(80)
		c, err := l.Accept(ctx)
		if err != nil {
			return
		}
		for i := 0; i < rounds; i++ {
			if err := c.ReadFull(ctx, msg); err != nil {
				t.Error(err)
				return
			}
			if err := c.Write(ctx, msg); err != nil {
				t.Error(err)
				return
			}
		}
		done++
	})
	k.Spawn("client", func(ctx *sim.Ctx) {
		c, err := sa.Dial(ctx, sb.Node().Addr(), 80)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < rounds; i++ {
			if err := c.Write(ctx, msg); err != nil {
				t.Error(err)
				return
			}
			if err := c.ReadFull(ctx, msg); err != nil {
				t.Error(err)
				return
			}
		}
		done++
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 2 {
		t.Fatalf("done = %d, want 2", done)
	}
}

func TestGracefulCloseBothSides(t *testing.T) {
	k, sa, sb := testNet(10*units.Mbps, time.Millisecond, DefaultOptions())
	var srvReadErr error
	k.Spawn("server", func(ctx *sim.Ctx) {
		l, _ := sb.Listen(80)
		c, err := l.Accept(ctx)
		if err != nil {
			return
		}
		for {
			_, err := c.Read(ctx, units.KB)
			if err != nil {
				srvReadErr = err
				c.Close()
				return
			}
		}
	})
	k.Spawn("client", func(ctx *sim.Ctx) {
		c, err := sa.Dial(ctx, sb.Node().Addr(), 80)
		if err != nil {
			t.Error(err)
			return
		}
		c.Write(ctx, 5*units.KB)
		c.Drain(ctx)
		c.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if srvReadErr != io.EOF {
		t.Fatalf("server read error = %v, want io.EOF", srvReadErr)
	}
	if sa.ConnCount() != 0 || sb.ConnCount() != 0 {
		t.Fatalf("connections leaked: %d/%d", sa.ConnCount(), sb.ConnCount())
	}
}

func TestRTTEstimate(t *testing.T) {
	opts := DefaultOptions()
	k, sa, sb := testNet(100*units.Mbps, 5*time.Millisecond, opts)
	var conn *Conn
	k.Spawn("server", func(ctx *sim.Ctx) {
		l, _ := sb.Listen(80)
		c, err := l.Accept(ctx)
		if err != nil {
			return
		}
		for {
			if _, err := c.Read(ctx, units.MB); err != nil {
				return
			}
		}
	})
	k.Spawn("client", func(ctx *sim.Ctx) {
		c, err := sa.Dial(ctx, sb.Node().Addr(), 80)
		if err != nil {
			t.Error(err)
			return
		}
		conn = c
		for i := 0; i < 50; i++ {
			c.Write(ctx, units.KB)
			ctx.Sleep(20 * time.Millisecond)
		}
		c.Drain(ctx)
		c.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	srtt := conn.Stats().SRTT
	// One-way 10 ms => RTT ~10 ms (5 ms each way) plus serialization.
	if srtt < 9*time.Millisecond || srtt > 15*time.Millisecond {
		t.Fatalf("SRTT = %v, want ~10ms", srtt)
	}
}

func TestEphemeralPortsAndConcurrentConns(t *testing.T) {
	k, sa, sb := testNet(100*units.Mbps, time.Millisecond, DefaultOptions())
	const nConns = 8
	accepted := 0
	k.Spawn("server", func(ctx *sim.Ctx) {
		l, _ := sb.Listen(80)
		for i := 0; i < nConns; i++ {
			c, err := l.Accept(ctx)
			if err != nil {
				return
			}
			accepted++
			_ = c // connections just sit
		}
	})
	for i := 0; i < nConns; i++ {
		k.Spawn("client", func(ctx *sim.Ctx) {
			if _, err := sa.Dial(ctx, sb.Node().Addr(), 80); err != nil {
				t.Error(err)
			}
		})
	}
	if err := k.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if accepted != nConns {
		t.Fatalf("accepted %d, want %d", accepted, nConns)
	}
}

func TestListenerClose(t *testing.T) {
	k, _, sb := testNet(10*units.Mbps, time.Millisecond, DefaultOptions())
	var acceptErr error
	k.Spawn("server", func(ctx *sim.Ctx) {
		l, _ := sb.Listen(80)
		ctx.SpawnChild("closer", func(c2 *sim.Ctx) {
			c2.Sleep(time.Second)
			l.Close()
		})
		_, acceptErr = l.Accept(ctx)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if acceptErr != ErrListenClosed {
		t.Fatalf("accept error = %v, want ErrListenClosed", acceptErr)
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	k, sa, sb := testNet(10*units.Mbps, time.Millisecond, DefaultOptions())
	var werr error
	k.Spawn("server", func(ctx *sim.Ctx) {
		l, _ := sb.Listen(80)
		l.Accept(ctx)
	})
	k.Spawn("client", func(ctx *sim.Ctx) {
		c, err := sa.Dial(ctx, sb.Node().Addr(), 80)
		if err != nil {
			t.Error(err)
			return
		}
		c.Close()
		werr = c.Write(ctx, units.KB)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if werr != ErrClosed {
		t.Fatalf("write after close = %v, want ErrClosed", werr)
	}
}

func TestDupListenFails(t *testing.T) {
	_, sa, _ := testNet(10*units.Mbps, 0, DefaultOptions())
	if _, err := sa.Listen(80); err != nil {
		t.Fatal(err)
	}
	if _, err := sa.Listen(80); err != ErrPortInUse {
		t.Fatalf("second listen = %v, want ErrPortInUse", err)
	}
}

func TestMsgMarkerAcrossSegments(t *testing.T) {
	// One 100 KB message spanning ~70 segments must deliver exactly
	// one marker, after all bytes.
	k, sa, sb := testNet(10*units.Mbps, time.Millisecond, DefaultOptions())
	var n units.ByteSize
	var obj any
	k.Spawn("server", func(ctx *sim.Ctx) {
		l, _ := sb.Listen(80)
		c, err := l.Accept(ctx)
		if err != nil {
			return
		}
		n, obj, _ = c.ReadMsg(ctx)
	})
	k.Spawn("client", func(ctx *sim.Ctx) {
		c, err := sa.Dial(ctx, sb.Node().Addr(), 80)
		if err != nil {
			t.Error(err)
			return
		}
		c.WriteMsg(ctx, 100*units.KB, "payload")
		c.Drain(ctx)
		c.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 100*units.KB || obj != "payload" {
		t.Fatalf("ReadMsg = %d/%v", n, obj)
	}
}

// TestMarkerBookkeeping: receive-side markers stay ordered by stream
// position whatever order segments bring them in, and a retransmitted
// copy — of a pending marker or of one already consumed — is dropped,
// so the bookkeeping holds only the pending markers.
func TestMarkerBookkeeping(t *testing.T) {
	c := &Conn{readPos: 1}
	for _, pos := range []int64{30, 10, 20, 10, 30} {
		c.addMarker(marker{pos: pos, obj: pos})
	}
	var got []int64
	for _, m := range c.rcvMarkers {
		got = append(got, m.pos)
	}
	if want := []int64{10, 20, 30}; !slices.Equal(got, want) {
		t.Fatalf("pending markers %v, want %v", got, want)
	}
	// Consume through the first marker, as ReadMsg does, then replay
	// it: the copy is behind the read position.
	next, _ := c.nextMarker()
	c.readPos = next.pos
	c.rcvMarkers = slices.Delete(c.rcvMarkers, 0, 1)
	c.addMarker(marker{pos: 10, obj: int64(10)})
	if len(c.rcvMarkers) != 2 || c.rcvMarkers[0].pos != 20 {
		t.Fatalf("after replaying a consumed marker: %v", c.rcvMarkers)
	}
}
