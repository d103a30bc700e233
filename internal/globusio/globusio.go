// Package globusio is the socket wrapper layer of the MPICH-GQ stack:
// "the globus-io library provides a convenient wrapper for the
// low-level socket calls used to implement wide area transport;
// traffic shaping can also be performed here."
//
// It adds three things to a raw tcpsim connection:
//
//   - Socket-buffer tuning (the §5.5 lesson: "applications that use
//     TCP and want high performance need careful tuning (such as
//     socket buffer sizes)").
//   - CPU accounting: each write and read charges per-byte copy cost
//     to the process's DSRT task, so CPU contention throttles
//     achievable bandwidth (Figures 8 and 9).
//   - Optional end-system traffic shaping: a token-bucket pacer that
//     smooths application bursts before they reach the edge router's
//     policer — the alternative approach §5.4 proposes for dealing
//     with burstiness.
//
// Every write on a connection, blocking (WriteMsg) or posted from
// kernel context (Post), goes through the connection's one ordered
// send queue, which orders, charges and paces it.
package globusio

import (
	"slices"
	"time"

	"mpichgq/internal/dsrt"
	"mpichgq/internal/sim"
	"mpichgq/internal/tcpsim"
	"mpichgq/internal/units"
)

// ShaperConfig configures end-system pacing: writes are released into
// the socket no faster than Rate, with bursts up to Depth.
type ShaperConfig struct {
	Rate  units.BitRate
	Depth units.ByteSize
}

// Config configures a wrapped connection.
type Config struct {
	// Task, if non-nil, is charged CPU time for socket copies.
	Task *dsrt.Task
	// CopyCostPerKB is CPU time per KB moved through the socket.
	// Zero means free I/O. (A few hundred ns/KB models a late-90s
	// hosts' copy+checksum path; see internal/experiments for the
	// calibrated values.)
	CopyCostPerKB time.Duration
	// Shaper enables end-system pacing when non-nil.
	Shaper *ShaperConfig
}

// writeChunk is the granularity of socket writes, and so of CPU
// charging and pacing.
const writeChunk = 64 * units.KB

// IO is a QoS-aware socket: a tcpsim.Conn plus CPU accounting and
// optional pacing, with one ordered send queue for all its writes.
type IO struct {
	conn *tcpsim.Conn
	k    *sim.Kernel
	cfg  Config

	// Shaper state (token bucket in bytes).
	tokens     float64
	lastRefill time.Duration

	bytesWritten int64
	bytesRead    int64
	shapeDelay   time.Duration // cumulative time spent pacing

	// The send queue, in posting order: queue[0] is being written.
	// The writer drives posted writes; turn wakes a process in WriteMsg
	// whose write reaches the head. free keeps writes for reuse.
	queue  []*write
	free   []*write
	writer *sim.Waiter
	turn   *sim.Cond

	// held is the message NextMsg has read off the stream and whose
	// receive copy is still running on the task.
	held heldMsg
}

// heldMsg is one NextMsg result waiting for its copy charge.
type heldMsg struct {
	ok   bool
	n    units.ByteSize
	obj  any
	err  error
	copy dsrt.Charge
}

// Wrap adorns an established connection.
func Wrap(k *sim.Kernel, conn *tcpsim.Conn, cfg Config) *IO {
	io := &IO{conn: conn, k: k, cfg: cfg, lastRefill: k.Now()}
	if cfg.Shaper != nil {
		io.tokens = float64(cfg.Shaper.Depth)
	}
	io.writer = sim.NewWaiter(k, func() (*sim.Cond, time.Duration) { return io.queue[0].advance() })
	io.turn = sim.NewCond(k)
	return io
}

// Conn returns the underlying transport connection.
func (io *IO) Conn() *tcpsim.Conn { return io.conn }

// SetSockBufs tunes both socket buffers.
func (io *IO) SetSockBufs(snd, rcv units.ByteSize) {
	io.conn.SetSndBuf(snd)
	io.conn.SetRcvBuf(rcv)
}

// copyCost is the CPU time the copy of n bytes costs; zero when the
// connection charges no task.
func (io *IO) copyCost(n units.ByteSize) time.Duration {
	if io.cfg.Task == nil || io.cfg.CopyCostPerKB <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(io.cfg.CopyCostPerKB) * float64(n) / 1000)
}

// pace refills the shaper's bucket and takes n bytes' worth of tokens.
// If the bucket holds too few, it takes nothing and returns how long
// the write must wait; paced then takes the tokens.
func (io *IO) pace(n units.ByteSize) time.Duration {
	sh := io.cfg.Shaper
	if sh == nil || sh.Rate <= 0 {
		return 0
	}
	now := io.k.Now()
	io.tokens += float64(sh.Rate) * (now - io.lastRefill).Seconds() / 8
	if io.tokens > float64(sh.Depth) {
		io.tokens = float64(sh.Depth)
	}
	io.lastRefill = now
	if deficit := float64(n) - io.tokens; deficit > 0 {
		if wait := time.Duration(deficit * 8 / float64(sh.Rate) * float64(time.Second)); wait > 0 {
			io.shapeDelay += wait
			return wait
		}
	}
	io.tokens -= float64(n)
	return 0
}

// paced takes n bytes' worth of tokens after pace's wait.
func (io *IO) paced(n units.ByteSize) {
	io.tokens += float64(io.cfg.Shaper.Rate) * (io.k.Now() - io.lastRefill).Seconds() / 8
	io.lastRefill = io.k.Now()
	io.tokens -= float64(n)
}

// A write is one message in the send queue. It goes out in chunks of
// writeChunk, and each chunk passes three waits in turn: its copy
// charge on the task, the shaper, and space in the send buffer.
type write struct {
	io    *IO
	left  units.ByteSize // bytes in chunks not yet begun
	obj   any
	phase phase
	chunk units.ByteSize // the chunk in progress
	copy  dsrt.Charge
	rest  units.ByteSize // bytes of the chunk not yet in the send buffer
	err   error
	// gate, bound once, is step; sent is told a posted write's outcome.
	gate   sim.Gate
	posted bool
	sent   func(error)
}

// phase is where a write's chunk is among its three waits.
type phase uint8

const (
	phaseBegin phase = iota // no chunk in progress
	phaseCharge
	phasePace
	phaseFill
)

// push appends a write of n bytes with obj to the queue.
func (io *IO) push(n units.ByteSize, obj any) *write {
	var w *write
	if k := len(io.free); k > 0 {
		w, io.free = io.free[k-1], io.free[:k-1]
	} else {
		w = &write{io: io}
		w.gate = w.step
	}
	w.left, w.obj = n, obj
	io.queue = append(io.queue, w)
	return w
}

// recycle returns a finished write to the free list.
func (io *IO) recycle(w *write) {
	*w = write{io: io, gate: w.gate}
	io.free = append(io.free, w)
}

// WriteMsg sends n bytes with obj attached at the end (see
// tcpsim.Conn.WriteMsg), charging CPU and pacing per chunk. It waits
// for the writes queued before it, then writes its own.
func (io *IO) WriteMsg(ctx *sim.Ctx, n units.ByteSize, obj any) error {
	w := io.push(n, obj)
	ctx.Await(w.gate)
	err := w.err
	io.recycle(w)
	return err
}

// Post queues a write like WriteMsg's and returns at once; it is safe
// to call from kernel context. The connection's writer drives it from
// an event at the current instant or when the writes ahead of it
// finish. sent, if not nil, is told nil once the whole message is in
// the send buffer, or the error that ended the write.
func (io *IO) Post(n units.ByteSize, obj any, sent func(error)) {
	w := io.push(n, obj)
	w.posted, w.sent = true, sent
	if len(io.queue) == 1 {
		io.writer.Schedule()
	}
}

// step is the gate of a process waiting in WriteMsg.
func (w *write) step() (*sim.Cond, time.Duration) {
	if w.io.queue[0] != w {
		return w.io.turn, 0
	}
	return w.advance()
}

// advance moves w, the head of the queue, through its chunks until one
// must wait, and returns what for; (nil, 0) once w has finished.
func (w *write) advance() (*sim.Cond, time.Duration) {
	io := w.io
	for {
		switch w.phase {
		case phaseBegin:
			if w.left == 0 {
				io.finish(w, nil)
				return nil, 0
			}
			w.chunk = min(writeChunk, w.left)
			w.left -= w.chunk
			w.copy = dsrt.Charge{}
			if cost := io.copyCost(w.chunk); cost > 0 {
				w.copy = io.cfg.Task.Start(cost)
			}
			w.phase = phaseCharge
		case phaseCharge:
			if wait := w.copy.Pending(); wait != nil {
				return wait, 0
			}
			w.phase, w.rest = phaseFill, w.chunk
			if d := io.pace(w.chunk); d > 0 {
				w.phase = phasePace
				return nil, d
			}
		case phasePace:
			io.paced(w.chunk)
			w.phase = phaseFill
		case phaseFill:
			var obj any
			if w.left == 0 {
				obj, w.obj = w.obj, nil // the marker goes with the last byte
			}
			rest, wait, err := io.conn.WriteStep(w.rest, obj)
			if err != nil {
				io.finish(w, err)
				return nil, 0
			}
			if w.rest = rest; wait != nil {
				return wait, 0
			}
			io.bytesWritten += int64(w.chunk)
			w.phase = phaseBegin
		}
	}
}

// finish takes w off the head of the queue with outcome err, wakes the
// next write's driver in an event at the current instant, and tells a
// posted write's sender.
func (io *IO) finish(w *write, err error) {
	w.err = err
	io.queue = slices.Delete(io.queue, 0, 1)
	switch {
	case len(io.queue) == 0:
	case io.queue[0].posted:
		io.writer.Schedule()
	default:
		io.turn.Signal()
	}
	if w.posted {
		sent := w.sent
		io.recycle(w)
		if sent != nil {
			sent(err)
		}
	}
}

// ReadMsg receives one marked message, charging CPU for the copy.
func (io *IO) ReadMsg(ctx *sim.Ctx) (units.ByteSize, any, error) {
	return tcpsim.AwaitMsg(ctx, io.NextMsg)
}

// NextMsg is ReadMsg's non-blocking step, safe to call from kernel
// context, with tcpsim.Conn.NextMsg's three results. A message read
// off the stream is held while its copy cost runs on the task, queued
// behind the task's other work, and is handed over once the copy
// finishes: until then the step returns the task's completion Cond.
// A read error is charged for the bytes consumed before it, as a
// message is.
func (io *IO) NextMsg() (units.ByteSize, any, *sim.Cond, error) {
	h := &io.held
	if !h.ok {
		n, obj, wait, err := io.conn.NextMsg()
		if wait != nil {
			return 0, nil, wait, nil
		}
		h.ok, h.n, h.obj, h.err = true, n, obj, err
		if cost := io.copyCost(n); cost > 0 {
			h.copy = io.cfg.Task.Start(cost)
		}
	}
	if wait := h.copy.Pending(); wait != nil {
		return 0, nil, wait, nil
	}
	n, obj, err := h.n, h.obj, h.err
	*h = heldMsg{}
	io.bytesRead += int64(n)
	return n, obj, nil, err
}

// Drain blocks until all written data is acknowledged.
func (io *IO) Drain(ctx *sim.Ctx) error { return io.conn.Drain(ctx) }

// Close initiates a graceful shutdown.
func (io *IO) Close() { io.conn.Close() }

// Stats returns cumulative wrapper counters.
func (io *IO) Stats() Stats {
	return Stats{
		BytesWritten: units.ByteSize(io.bytesWritten),
		BytesRead:    units.ByteSize(io.bytesRead),
		ShapeDelay:   io.shapeDelay,
	}
}

// Stats holds wrapper-level counters.
type Stats struct {
	BytesWritten units.ByteSize
	BytesRead    units.ByteSize
	ShapeDelay   time.Duration
}
