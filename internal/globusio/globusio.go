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
package globusio

import (
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
	// WriteChunk is the granularity of socket writes (and of CPU
	// charging). Default 64 KB.
	WriteChunk units.ByteSize
}

// IO is a QoS-aware socket: a tcpsim.Conn plus CPU accounting and
// optional pacing. Whole messages are written atomically: concurrent
// writers (e.g. nonblocking MPI sends) are serialized per connection.
type IO struct {
	conn    *tcpsim.Conn
	k       *sim.Kernel
	cfg     Config
	writeMu *sim.Mutex

	// Shaper state (token bucket in bytes).
	tokens     float64
	lastRefill time.Duration

	bytesWritten int64
	bytesRead    int64
	shapeDelay   time.Duration // cumulative time spent pacing

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
	if cfg.WriteChunk <= 0 {
		cfg.WriteChunk = 64 * units.KB
	}
	io := &IO{conn: conn, k: k, cfg: cfg, writeMu: sim.NewMutex(k), lastRefill: k.Now()}
	if cfg.Shaper != nil {
		io.tokens = float64(cfg.Shaper.Depth)
	}
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

// chargeCPU blocks the caller while the copy cost for n bytes is
// scheduled on the task.
func (io *IO) chargeCPU(ctx *sim.Ctx, n units.ByteSize) {
	if cost := io.copyCost(n); cost > 0 {
		io.cfg.Task.Compute(ctx, cost)
	}
}

// pace blocks until the shaper admits n bytes.
func (io *IO) pace(ctx *sim.Ctx, n units.ByteSize) {
	sh := io.cfg.Shaper
	if sh == nil || sh.Rate <= 0 {
		return
	}
	now := io.k.Now()
	io.tokens += float64(sh.Rate) * (now - io.lastRefill).Seconds() / 8
	if io.tokens > float64(sh.Depth) {
		io.tokens = float64(sh.Depth)
	}
	io.lastRefill = now
	if deficit := float64(n) - io.tokens; deficit > 0 {
		wait := time.Duration(deficit * 8 / float64(sh.Rate) * float64(time.Second))
		io.shapeDelay += wait
		ctx.Sleep(wait)
		io.tokens += float64(sh.Rate) * (io.k.Now() - io.lastRefill).Seconds() / 8
		io.lastRefill = io.k.Now()
	}
	io.tokens -= float64(n)
}

// Write sends n bytes, charging CPU and pacing per chunk.
func (io *IO) Write(ctx *sim.Ctx, n units.ByteSize) error {
	return io.write(ctx, n, nil, false)
}

// WriteMsg sends n bytes with obj attached at the end (see
// tcpsim.Conn.WriteMsg).
func (io *IO) WriteMsg(ctx *sim.Ctx, n units.ByteSize, obj any) error {
	return io.write(ctx, n, obj, true)
}

func (io *IO) write(ctx *sim.Ctx, n units.ByteSize, obj any, mark bool) error {
	io.writeMu.Lock(ctx)
	defer io.writeMu.Unlock()
	remaining := n
	for remaining > 0 {
		chunk := io.cfg.WriteChunk
		if chunk > remaining {
			chunk = remaining
		}
		io.chargeCPU(ctx, chunk)
		io.pace(ctx, chunk)
		last := remaining == chunk
		var err error
		if mark && last {
			err = io.conn.WriteMsg(ctx, chunk, obj)
		} else {
			err = io.conn.Write(ctx, chunk)
		}
		if err != nil {
			return err
		}
		io.bytesWritten += int64(chunk)
		remaining -= chunk
	}
	return nil
}

// Read receives up to max bytes, charging CPU for the copy.
func (io *IO) Read(ctx *sim.Ctx, max units.ByteSize) (units.ByteSize, error) {
	n, err := io.conn.Read(ctx, max)
	io.chargeCPU(ctx, n)
	io.bytesRead += int64(n)
	return n, err
}

// ReadFull receives exactly n bytes.
func (io *IO) ReadFull(ctx *sim.Ctx, n units.ByteSize) error {
	for n > 0 {
		got, err := io.Read(ctx, n)
		if err != nil {
			return err
		}
		n -= got
	}
	return nil
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
