package globusio

import (
	"fmt"
	"testing"
	"time"

	"mpichgq/internal/dsrt"
	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/tcpsim"
	"mpichgq/internal/units"
)

// pair returns two established, wrapped connections over a fast link.
func pair(t *testing.T, k *sim.Kernel, rate units.BitRate, cfgA, cfgB Config) (*IO, *IO) {
	t.Helper()
	n := netsim.New(k)
	a := n.AddNode("a")
	b := n.AddNode("b")
	n.Connect(a, b, rate, time.Millisecond)
	n.ComputeRoutes()
	sa := tcpsim.NewStack(a, tcpsim.DefaultOptions())
	sb := tcpsim.NewStack(b, tcpsim.DefaultOptions())
	var ioA, ioB *IO
	k.Spawn("accept", func(ctx *sim.Ctx) {
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
		ioB = Wrap(k, c, cfgB)
	})
	k.Spawn("dial", func(ctx *sim.Ctx) {
		c, err := sa.Dial(ctx, b.Addr(), 80)
		if err != nil {
			t.Error(err)
			return
		}
		ioA = Wrap(k, c, cfgA)
	})
	if err := k.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if ioA == nil || ioB == nil {
		t.Fatal("connection setup failed")
	}
	return ioA, ioB
}

func TestPlainWriteRead(t *testing.T) {
	k := sim.New(1)
	ioA, ioB := pair(t, k, 10*units.Mbps, Config{}, Config{})
	var got units.ByteSize
	k.Spawn("reader", func(ctx *sim.Ctx) {
		n, _, err := ioB.ReadMsg(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		got = n
	})
	k.Spawn("writer", func(ctx *sim.Ctx) {
		if err := ioA.WriteMsg(ctx, 50*units.KB, "msg"); err != nil {
			t.Error(err)
		}
	})
	if err := k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got != 50*units.KB {
		t.Fatal("transfer incomplete")
	}
	if ioA.Stats().BytesWritten != 50*units.KB || ioB.Stats().BytesRead != 50*units.KB {
		t.Fatalf("stats = %+v / %+v", ioA.Stats(), ioB.Stats())
	}
}

func TestCPUChargingSlowsWriter(t *testing.T) {
	// With a hog on the CPU and a copy cost, the same transfer takes
	// about twice as long as with a dedicated CPU.
	run := func(withHog bool) time.Duration {
		k := sim.New(1)
		cpu := dsrt.NewCPU(k, "host")
		task := cpu.NewTask("writer")
		cfg := Config{Task: task, CopyCostPerKB: 100 * time.Microsecond}
		ioA, ioB := pair(t, k, 1000*units.Mbps, cfg, Config{})
		if withHog {
			hog := cpu.NewTask("hog")
			k.Spawn("hog", func(ctx *sim.Ctx) {
				for ctx.Now() < 100*time.Second {
					hog.Compute(ctx, 10*time.Millisecond)
				}
			})
		}
		var done time.Duration
		k.Spawn("reader", func(ctx *sim.Ctx) {
			if _, _, err := ioB.ReadMsg(ctx); err != nil {
				t.Error(err)
			}
		})
		k.Spawn("writer", func(ctx *sim.Ctx) {
			start := ctx.Now()
			if err := ioA.WriteMsg(ctx, units.MB, "msg"); err != nil {
				t.Error(err)
				return
			}
			ioA.Drain(ctx)
			done = ctx.Now() - start
		})
		if err := k.RunUntil(100 * time.Second); err != nil {
			t.Fatal(err)
		}
		if done == 0 {
			t.Fatal("writer did not finish")
		}
		return done
	}
	solo := run(false)
	contended := run(true)
	// 1 MB at 100 µs/KB = 100 ms of CPU. Solo ~100 ms; at half share
	// ~200 ms.
	ratio := float64(contended) / float64(solo)
	if ratio < 1.7 || ratio > 2.5 {
		t.Fatalf("contention ratio = %.2f (solo %v, contended %v), want ~2", ratio, solo, contended)
	}
}

func TestShaperPacesWrites(t *testing.T) {
	// A 1 Mb/s shaper must stretch a 125 KB burst (1 Mbit) to ~1 s
	// even on a 100 Mb/s link.
	k := sim.New(1)
	sh := &ShaperConfig{Rate: units.Mbps, Depth: 10 * units.KB}
	ioA, ioB := pair(t, k, 100*units.Mbps, Config{Shaper: sh}, Config{})
	var done time.Duration
	k.Spawn("reader", func(ctx *sim.Ctx) {
		if _, _, err := ioB.ReadMsg(ctx); err != nil {
			t.Error(err)
		}
		done = ctx.Now()
	})
	start := k.Now()
	k.Spawn("writer", func(ctx *sim.Ctx) {
		if err := ioA.WriteMsg(ctx, 125*units.KB, "burst"); err != nil {
			t.Error(err)
		}
	})
	if err := k.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	elapsed := done - start
	if elapsed < 800*time.Millisecond || elapsed > 1300*time.Millisecond {
		t.Fatalf("shaped transfer took %v, want ~1s", elapsed)
	}
	if ioA.Stats().ShapeDelay == 0 {
		t.Fatal("shaper reported no pacing delay")
	}
}

func TestShaperAllowsBurstUpToDepth(t *testing.T) {
	// A write within the bucket depth goes out immediately.
	k := sim.New(1)
	sh := &ShaperConfig{Rate: units.Mbps, Depth: 50 * units.KB}
	ioA, ioB := pair(t, k, 100*units.Mbps, Config{Shaper: sh}, Config{})
	var done time.Duration
	k.Spawn("reader", func(ctx *sim.Ctx) {
		if _, _, err := ioB.ReadMsg(ctx); err != nil {
			t.Error(err)
		}
		done = ctx.Now()
	})
	start := k.Now()
	k.Spawn("writer", func(ctx *sim.Ctx) {
		ioA.WriteMsg(ctx, 50*units.KB, "burst")
	})
	if err := k.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// 50 KB at 100 Mb/s is ~4 ms + RTT; far below the 400 ms the
	// shaper rate alone would impose.
	if done-start > 100*time.Millisecond {
		t.Fatalf("burst within depth took %v, should be fast", done-start)
	}
	if ioA.Stats().ShapeDelay != 0 {
		t.Fatal("burst within depth should not be delayed")
	}
}

func TestWriteMsgThroughWrapper(t *testing.T) {
	k := sim.New(1)
	ioA, ioB := pair(t, k, 10*units.Mbps, Config{}, Config{})
	var n units.ByteSize
	var obj any
	k.Spawn("reader", func(ctx *sim.Ctx) {
		n, obj, _ = ioB.ReadMsg(ctx)
	})
	k.Spawn("writer", func(ctx *sim.Ctx) {
		// Message larger than one chunk: marker must arrive at the
		// very end.
		if err := ioA.WriteMsg(ctx, 200*units.KB, "tail"); err != nil {
			t.Error(err)
		}
	})
	if err := k.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n != 200*units.KB || obj != "tail" {
		t.Fatalf("ReadMsg = %d/%v, want 200KB/tail", n, obj)
	}
}

func TestSetSockBufs(t *testing.T) {
	k := sim.New(1)
	ioA, _ := pair(t, k, 10*units.Mbps, Config{}, Config{})
	ioA.SetSockBufs(8*units.KB, 16*units.KB)
	if ioA.Conn().SndBuf() != 8*units.KB {
		t.Fatalf("snd buf = %v, want 8KB", ioA.Conn().SndBuf())
	}
}

// TestPostedWritesKeepOrder: posted writes and a blocking WriteMsg
// leave in posting order. The WriteMsg returns only after the write
// posted before it is in the send buffer, each sender is told its
// outcome in order, and a write posted after Close fails.
func TestPostedWritesKeepOrder(t *testing.T) {
	k := sim.New(1)
	ioA, ioB := pair(t, k, 10*units.Mbps, Config{}, Config{})
	var sent, got []any
	note := func(name string) func(error) {
		return func(err error) {
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
			sent = append(sent, name)
		}
	}
	k.Spawn("reader", func(ctx *sim.Ctx) {
		for i := 0; i < 3; i++ {
			_, obj, err := ioB.ReadMsg(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			got = append(got, obj)
		}
	})
	k.Spawn("writer", func(ctx *sim.Ctx) {
		ioA.Post(200*units.KB, "p1", note("p1"))
		if err := ioA.WriteMsg(ctx, units.KB, "w2"); err != nil {
			t.Error(err)
		}
		if fmt.Sprint(sent) != "[p1]" {
			t.Errorf("WriteMsg returned with %v sent, want [p1]", sent)
		}
		ioA.Post(units.KB, "p3", note("p3"))
	})
	if err := k.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[p1 w2 p3]" || fmt.Sprint(sent) != "[p1 p3]" {
		t.Fatalf("read %v and told %v, want [p1 w2 p3] and [p1 p3]", got, sent)
	}
	var closedErr error
	ioA.Close()
	ioA.Post(units.KB, "late", func(err error) { closedErr = err })
	if err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if closedErr == nil {
		t.Fatal("a write posted after Close did not fail")
	}
}
