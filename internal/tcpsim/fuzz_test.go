package tcpsim

import (
	"io"
	"testing"
	"time"

	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// msgProgram is a decoded FuzzConnMessages input: the sizes of the
// messages the writer sends, in order, the two socket buffers, and the
// link's loss.
type msgProgram struct {
	sizes          []units.ByteSize
	sndBuf, rcvBuf units.ByteSize
	loss           float64 // probability a data segment or an ACK is dropped
	lossSeed       int64
}

// decodeMsgProgram reads the send and receive buffers (1-64 KB each),
// a loss rate of 0-19%, a loss seed, then two bytes per message: a
// size of 1 B to 256 KB, so a message can be several times the
// receive buffer.
func decodeMsgProgram(data []byte) msgProgram {
	p := msgProgram{sndBuf: 16 * units.KB, rcvBuf: 16 * units.KB}
	if len(data) >= 4 {
		p.sndBuf = units.ByteSize(1+int(data[0])%64) * units.KB
		p.rcvBuf = units.ByteSize(1+int(data[1])%64) * units.KB
		p.loss = float64(data[2]%20) / 100
		p.lossSeed = int64(data[3])
		data = data[4:]
	}
	for len(data) >= 2 && len(p.sizes) < 32 {
		v := int(data[0])<<8 | int(data[1])
		data = data[2:]
		p.sizes = append(p.sizes, units.ByteSize(1+v*4))
	}
	return p
}

// FuzzConnMessages checks message framing against the writer's own
// call list. The writer makes one WriteMsg(n_i, i) call per message
// over a link that drops segments at random; the receiver reads
// with NextMsg from a gate, in kernel context. It must see every
// (n_i, i) exactly once and in order, then a clean io.EOF, and the
// bytes it consumed must equal the bytes written and the in-order
// bytes the connection received.
func FuzzConnMessages(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeMsgProgram(data)
		opts := DefaultOptions()
		opts.SndBuf, opts.RcvBuf = p.sndBuf, p.rcvBuf
		k, sa, sb := testNet(100*units.Mbps, time.Millisecond, opts)
		// Data segments toward the receiver are lost, and so are
		// acknowledgements toward the writer once it is connected:
		// those make the writer resend segments, and their markers,
		// that the receiver has already read past.
		rng := sim.NewRNG(p.lossSeed)
		var dialed bool
		lose := func(data bool) netsim.IngressFilterFunc {
			return func(pk *netsim.Packet) *netsim.Packet {
				if (pk.PayloadLen > 0) == data && (data || dialed) && rng.Float64() < p.loss {
					return nil
				}
				return pk
			}
		}
		sb.Node().Ifaces()[0].AddIngress(lose(true))
		sa.Node().Ifaces()[0].AddIngress(lose(false))

		type msg struct {
			n  units.ByteSize
			id any
		}
		var got []msg
		var readErr error
		var recv *Conn
		k.Spawn("receiver", func(ctx *sim.Ctx) {
			l, _ := sb.Listen(80)
			c, err := l.Accept(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			recv = c
			ctx.Await(func() (*sim.Cond, time.Duration) {
				for {
					n, obj, wait, err := c.NextMsg()
					switch {
					case wait != nil:
						return wait, 0
					case err != nil:
						readErr = err
						if n != 0 {
							t.Errorf("%d bytes consumed after the last message", n)
						}
						return nil, 0
					}
					got = append(got, msg{n, obj})
				}
			})
			c.Close()
		})
		k.Spawn("writer", func(ctx *sim.Ctx) {
			c, err := sa.Dial(ctx, sb.Node().Addr(), 80)
			if err != nil {
				t.Error(err)
				return
			}
			dialed = true
			for i, n := range p.sizes {
				if err := c.WriteMsg(ctx, n, i); err != nil {
					t.Error(err)
					return
				}
			}
			if err := c.Drain(ctx); err != nil {
				t.Error(err)
			}
			c.Close()
		})
		if err := k.RunUntil(time.Hour); err != nil {
			t.Fatal(err)
		}
		if readErr != io.EOF {
			t.Fatalf("receiver ended with %v after %d of %d messages, want io.EOF", readErr, len(got), len(p.sizes))
		}
		if len(got) != len(p.sizes) {
			t.Fatalf("received %d messages, wrote %d", len(got), len(p.sizes))
		}
		var total units.ByteSize
		for i, n := range p.sizes {
			if got[i] != (msg{n, i}) {
				t.Fatalf("message %d: got (%d, %v), wrote (%d, %d)", i, got[i].n, got[i].id, n, i)
			}
			total += n
		}
		if rcvd := units.ByteSize(recv.Stats().BytesReceived); rcvd != total {
			t.Fatalf("connection received %d in-order bytes, messages carry %d", rcvd, total)
		}
	})
}
