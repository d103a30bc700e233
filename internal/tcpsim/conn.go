package tcpsim

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"time"

	"mpichgq/internal/netsim"
	"mpichgq/internal/sim"
	"mpichgq/internal/spans"
	"mpichgq/internal/units"
)

// Segment flags.
const (
	flagSYN = 1 << iota
	flagACK
	flagFIN
	flagRST
)

// marker attaches an application object to a stream position; it is
// delivered to the receiving application once the stream has been read
// up to pos.
type marker struct {
	pos int64
	obj any
}

// segment is the TCP payload carried inside a netsim.Packet.
type segment struct {
	seq     int64
	ack     int64
	flags   uint8
	length  units.ByteSize
	wnd     units.ByteSize
	markers []marker
}

func (s *segment) String() string {
	return fmt.Sprintf("seg{seq=%d ack=%d len=%d fl=%b}", s.seq, s.ack, s.length, s.flags)
}

type connState int

const (
	stateClosed connState = iota
	stateSynSent
	stateSynRcvd
	stateEstablished
)

// Conn is one TCP connection endpoint.
type Conn struct {
	stack    *Stack
	lport    netsim.Port
	raddr    netsim.Addr
	rport    netsim.Port
	state    connState
	listener *Listener
	err      error
	dscp     netsim.DSCP

	mss units.ByteSize

	// Handshake.
	iss, irs    int64
	established *sim.Cond

	// Sender.
	sndUna, sndNxt int64
	sndMax         int64 // highest sequence ever transmitted
	sndBufEnd      int64 // stream position after the last byte the app wrote
	sndBufCap      units.ByteSize
	cwnd           float64 // bytes
	ssthresh       float64 // bytes
	rwnd           units.ByteSize
	dupAcks        int
	inRecovery     bool
	recover        int64
	rtxTimer       sim.Timer
	rto            time.Duration
	srtt, rttvar   time.Duration
	hasRTT         bool
	rttTiming      bool
	rttSeq         int64
	rttStart       time.Duration
	sndCond        *sim.Cond
	sndMarkers     []marker
	fillWaits      []*fillWait // idle, for reuse by blocked writes
	closeRequested bool
	finSeq         int64 // stream position of FIN, -1 until Close
	finAcked       bool
	persistTimer   sim.Timer
	lastSend       time.Duration // last data transmission (for SSR)

	// Receiver.
	rcvNxt     int64
	readPos    int64
	rcvBufCap  units.ByteSize
	ooo        []interval
	rcvMarkers []marker       // pending, ordered by stream position
	msgLen     units.ByteSize // bytes NextMsg consumed of the message in progress
	rcvCond    *sim.Cond
	peerFin    int64 // seq of peer's FIN, -1 if none
	eof        bool
	delack     sim.Timer
	unacked    int // segments received since last ACK sent

	stats ConnStats

	// Causal tracing: trace is the flow's trace ID (shared by both
	// endpoints — the 4-tuple is ordered canonically before hashing);
	// connect is the handshake span, kept after End so recovery spans
	// can parent under it; recSpan is the open fast-recovery episode.
	tr      *spans.Tracer
	trace   spans.TraceID
	connect *spans.Span
	recSpan *spans.Span

	// TraceSend, if non-nil, is called for every data segment
	// transmission (including retransmissions); Figure 7's
	// sequence-number traces hook in here.
	TraceSend func(now time.Duration, seq int64, length units.ByteSize, retx bool)
}

// interval is a received out-of-order byte range [start, end).
type interval struct {
	start, end int64
}

// ConnStats holds cumulative counters and instantaneous congestion
// state.
type ConnStats struct {
	BytesSent      int64 // payload bytes transmitted, incl. retransmits
	BytesAcked     int64
	BytesReceived  int64 // in-order payload bytes delivered toward the app
	SegmentsSent   uint64
	Retransmits    uint64
	Timeouts       uint64
	FastRetransmit uint64
	DupAcksSeen    uint64
	Cwnd           units.ByteSize
	Ssthresh       units.ByteSize
	SRTT           time.Duration
	RTO            time.Duration
}

func newConn(s *Stack, lport netsim.Port, raddr netsim.Addr, rport netsim.Port) *Conn {
	o := s.opts
	c := &Conn{
		stack:       s,
		lport:       lport,
		raddr:       raddr,
		rport:       rport,
		mss:         o.MSS,
		established: sim.NewCond(s.k),
		sndBufCap:   o.SndBuf,
		rcvBufCap:   o.RcvBuf,
		cwnd:        float64(o.MSS) * float64(o.InitialCwndSegs),
		ssthresh:    1 << 30,
		rwnd:        o.RcvBuf,
		rto:         o.InitialRTO,
		sndCond:     sim.NewCond(s.k),
		rcvCond:     sim.NewCond(s.k),
		finSeq:      -1,
		peerFin:     -1,
	}
	// Sequence space: ISS 0 on both sides; the SYN consumes seq 0 so
	// the byte stream starts at position 1.
	c.sndUna, c.sndNxt, c.sndBufEnd = 0, 0, 1
	c.rcvNxt, c.readPos = 0, 1
	c.tr = s.k.Tracer()
	c.trace = flowTrace(s.node.Addr(), lport, raddr, rport)
	return c
}

// flowTrace derives the flow's trace ID from its 4-tuple, ordered
// canonically so both endpoints of a connection land in one trace.
func flowTrace(laddr netsim.Addr, lport netsim.Port, raddr netsim.Addr, rport netsim.Port) spans.TraceID {
	lo := uint64(laddr)<<16 | uint64(lport)
	hi := uint64(raddr)<<16 | uint64(rport)
	if lo > hi {
		lo, hi = hi, lo
	}
	return spans.DeriveTrace(spans.NSFlow, lo*0x9e3779b97f4a7c15^hi)
}

// LocalPort returns the connection's local port.
func (c *Conn) LocalPort() netsim.Port { return c.lport }

// RemoteAddr returns the peer's node address.
func (c *Conn) RemoteAddr() netsim.Addr { return c.raddr }

// RemotePort returns the peer's port.
func (c *Conn) RemotePort() netsim.Port { return c.rport }

// LocalAddr returns this endpoint's node address.
func (c *Conn) LocalAddr() netsim.Addr { return c.stack.node.Addr() }

// FlowKey returns the 5-tuple of this connection's outgoing direction.
func (c *Conn) FlowKey() netsim.FlowKey {
	return netsim.FlowKey{
		Src: c.LocalAddr(), Dst: c.raddr,
		SrcPort: c.lport, DstPort: c.rport,
		Proto: netsim.ProtoTCP,
	}
}

// SetDSCP sets the code point stamped on outgoing packets.
func (c *Conn) SetDSCP(d netsim.DSCP) { c.dscp = d }

// SetSndBuf resizes the send socket buffer (the §5.5 tuning knob).
func (c *Conn) SetSndBuf(n units.ByteSize) {
	if n < c.mss {
		n = c.mss
	}
	c.sndBufCap = n
	c.sndCond.Broadcast()
}

// SetRcvBuf resizes the receive socket buffer.
func (c *Conn) SetRcvBuf(n units.ByteSize) {
	if n < c.mss {
		n = c.mss
	}
	c.rcvBufCap = n
}

// SndBuf returns the send buffer capacity.
func (c *Conn) SndBuf() units.ByteSize { return c.sndBufCap }

// Stats returns a snapshot of the connection's counters.
func (c *Conn) Stats() ConnStats {
	st := c.stats
	st.Cwnd = units.ByteSize(c.cwnd)
	st.Ssthresh = units.ByteSize(c.ssthresh)
	st.SRTT = c.srtt
	st.RTO = c.rto
	return st
}

// BufferedSend returns the bytes written but not yet acknowledged.
func (c *Conn) BufferedSend() units.ByteSize {
	return units.ByteSize(c.sndBufEnd - maxI64(c.sndUna, 1))
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Write blocks the calling process until n bytes have been accepted
// into the send buffer (not necessarily acknowledged). This mirrors a
// blocking write(2) on a socket with a finite SO_SNDBUF.
func (c *Conn) Write(ctx *sim.Ctx, n units.ByteSize) error {
	return c.write(ctx, n, nil)
}

// WriteMsg writes n bytes and attaches obj at the end of those bytes;
// the receiver's ReadMsg returns obj after consuming the stream up to
// that point. This is how the MPI layer moves structured messages over
// the byte stream.
func (c *Conn) WriteMsg(ctx *sim.Ctx, n units.ByteSize, obj any) error {
	if n <= 0 {
		return fmt.Errorf("tcpsim: WriteMsg with non-positive length %d", n)
	}
	return c.write(ctx, n, obj)
}

func (c *Conn) write(ctx *sim.Ctx, n units.ByteSize, obj any) error {
	if n < 0 {
		return fmt.Errorf("tcpsim: negative write length %d", n)
	}
	remaining, wait, err := c.WriteStep(n, obj)
	if wait != nil {
		return c.awaitFill(ctx, remaining)
	}
	return err
}

// WriteStep is the non-blocking step of Write and WriteMsg, safe to
// call from kernel context. It attaches obj, if not nil, to the end of
// the n bytes and moves as many of them into the send buffer as fit.
// It returns the bytes still to go and either sndCond, whose next
// broadcast may free space, or the error that ends the write. A write
// continues with WriteStep(remaining, nil).
func (c *Conn) WriteStep(n units.ByteSize, obj any) (units.ByteSize, *sim.Cond, error) {
	if err := c.writeErr(); err != nil {
		return n, nil, err
	}
	if obj != nil {
		// Register the marker before any byte of the message can be
		// transmitted, so the segment that carries the final byte
		// always carries the marker too.
		c.sndMarkers = append(c.sndMarkers, marker{pos: c.sndBufEnd + int64(n), obj: obj})
	}
	return c.fill(n)
}

// fillWait is the state of a write waiting for send-buffer space.
// The connection keeps finished ones for reuse, with their gates bound
// once, so a write that blocks allocates nothing in steady state.
type fillWait struct {
	c         *Conn
	remaining units.ByteSize
	err       error
	gate      sim.Gate // check, bound once
}

func (w *fillWait) check() (*sim.Cond, time.Duration) {
	var wait *sim.Cond
	w.remaining, wait, w.err = w.c.fill(w.remaining)
	return wait, 0
}

// awaitFill is write's wait for send-buffer space: the rest of the
// write is filled in kernel context as acknowledgements free space.
func (c *Conn) awaitFill(ctx *sim.Ctx, remaining units.ByteSize) error {
	var w *fillWait
	if n := len(c.fillWaits); n > 0 {
		w = c.fillWaits[n-1]
		c.fillWaits = c.fillWaits[:n-1]
	} else {
		w = &fillWait{c: c}
		w.gate = w.check
	}
	w.remaining = remaining
	ctx.Await(w.gate)
	err := w.err
	w.err = nil
	c.fillWaits = append(c.fillWaits, w)
	return err
}

// fill moves up to remaining bytes into the send buffer and starts
// transmitting them. It returns the bytes still to go and either the
// Cond to wait on for buffer space or the error that ends the write.
func (c *Conn) fill(remaining units.ByteSize) (units.ByteSize, *sim.Cond, error) {
	for remaining > 0 {
		if err := c.writeErr(); err != nil {
			return remaining, nil, err
		}
		inBuf := units.ByteSize(c.sndBufEnd - maxI64(c.sndUna, 1))
		space := c.sndBufCap - inBuf
		if space <= 0 {
			return remaining, c.sndCond, nil
		}
		chunk := min(remaining, space)
		c.sndBufEnd += int64(chunk)
		remaining -= chunk
		c.trySend()
	}
	return 0, nil, nil
}

// writeErr reports why the connection accepts no more data, or nil.
func (c *Conn) writeErr() error {
	if c.state == stateEstablished && !c.closeRequested {
		return nil
	}
	if c.err != nil {
		return c.err
	}
	return ErrClosed
}

// readErr reports why a read that finds no data will never find any:
// the peer's FIN (io.EOF), a reset, or a closed connection. It is nil
// while data may still arrive.
func (c *Conn) readErr() error {
	switch {
	case c.eof:
		return io.EOF
	case c.err != nil:
		return c.err
	case c.state == stateClosed:
		return ErrClosed
	}
	return nil
}

// Read blocks until at least one byte is available, then consumes up
// to max bytes and returns the count. io.EOF signals a clean shutdown
// by the peer.
func (c *Conn) Read(ctx *sim.Ctx, max units.ByteSize) (units.ByteSize, error) {
	if max <= 0 {
		return 0, fmt.Errorf("tcpsim: non-positive read size %d", max)
	}
	n, wait, err := c.nextRead(max)
	if wait == nil {
		return n, err
	}
	return c.awaitRead(ctx, max)
}

// awaitRead is Read's wait for data, re-checked in kernel context.
func (c *Conn) awaitRead(ctx *sim.Ctx, max units.ByteSize) (n units.ByteSize, err error) {
	ctx.Await(func() (*sim.Cond, time.Duration) {
		var wait *sim.Cond
		n, wait, err = c.nextRead(max)
		return wait, 0
	})
	return n, err
}

// nextRead is Read's non-blocking step: it consumes up to max
// buffered bytes, or returns the read error, or rcvCond to wait on.
func (c *Conn) nextRead(max units.ByteSize) (units.ByteSize, *sim.Cond, error) {
	if avail := units.ByteSize(c.dataLimit() - c.readPos); avail > 0 {
		n := min(max, avail)
		c.consume(int64(n))
		return n, nil, nil
	}
	if err := c.readErr(); err != nil {
		return 0, nil, err
	}
	return 0, c.rcvCond, nil
}

// ReadFull blocks until exactly n bytes have been consumed.
func (c *Conn) ReadFull(ctx *sim.Ctx, n units.ByteSize) error {
	for n > 0 {
		got, err := c.Read(ctx, n)
		if err != nil {
			return err
		}
		n -= got
	}
	return nil
}

// ReadMsg blocks until the next marker is reached, consuming the
// stream up to it, and returns the consumed byte count (the message
// length) and the attached object. It waits in NextMsg steps, so
// messages larger than the receive buffer flow through without
// deadlock.
func (c *Conn) ReadMsg(ctx *sim.Ctx) (units.ByteSize, any, error) {
	return AwaitMsg(ctx, c.NextMsg)
}

// AwaitMsg blocks the calling process until step, a NextMsg-style
// message step, yields a message or an error. Every check after the
// first runs in kernel context, at the wakeup slot of the Cond the
// step asked to wait on.
func AwaitMsg(ctx *sim.Ctx, step func() (units.ByteSize, any, *sim.Cond, error)) (n units.ByteSize, obj any, err error) {
	ctx.Await(func() (*sim.Cond, time.Duration) {
		var wait *sim.Cond
		n, obj, wait, err = step()
		return wait, 0
	})
	return n, obj, err
}

// NextMsg is ReadMsg's non-blocking step, safe to call from kernel
// context. It consumes the buffered stream up to the next marker,
// counting the bytes on the connection, and returns one of three
// results: the message's length and object once the marker is
// reached; the read error (io.EOF, a reset or ErrClosed) with the
// bytes consumed since the last message; or rcvCond, whose next
// broadcast may let it make progress. Everything buffered before the
// marker belongs to the current message (markers arrive with the
// segment that ends the message, and the stream is in order), so it
// is drained as it arrives to keep the window open.
func (c *Conn) NextMsg() (n units.ByteSize, obj any, wait *sim.Cond, err error) {
	for {
		next, ok := c.nextMarker()
		if ok && next.pos <= c.rcvNxt {
			c.msgLen += units.ByteSize(next.pos - c.readPos)
			c.consume(next.pos - c.readPos)
			c.rcvMarkers = slices.Delete(c.rcvMarkers, 0, 1)
			n, c.msgLen = c.msgLen, 0
			return n, next.obj, nil, nil
		}
		limit := c.dataLimit()
		if ok && next.pos < limit {
			limit = next.pos
		}
		if d := limit - c.readPos; d > 0 {
			c.msgLen += units.ByteSize(d)
			c.consume(d)
			continue
		}
		if err := c.readErr(); err != nil {
			n, c.msgLen = c.msgLen, 0
			return n, nil, nil, err
		}
		return 0, nil, c.rcvCond, nil
	}
}

// nextMarker returns the earliest pending marker.
func (c *Conn) nextMarker() (marker, bool) {
	if len(c.rcvMarkers) == 0 {
		return marker{}, false
	}
	return c.rcvMarkers[0], true
}

// addMarker records a marker that arrived with a segment, keeping
// rcvMarkers ordered by stream position. Retransmits repeat markers:
// one at or before the read position has been consumed already, and
// one already pending is a copy, so both are dropped.
func (c *Conn) addMarker(m marker) {
	if m.pos <= c.readPos {
		return
	}
	i, pending := slices.BinarySearchFunc(c.rcvMarkers, m.pos, func(x marker, pos int64) int {
		return cmp.Compare(x.pos, pos)
	})
	if !pending {
		c.rcvMarkers = slices.Insert(c.rcvMarkers, i, m)
	}
}

// dataLimit returns the stream position after the last readable data
// byte: rcvNxt, minus the phantom sequence slot the peer's FIN
// consumed.
func (c *Conn) dataLimit() int64 {
	if c.eof {
		return c.peerFin
	}
	return c.rcvNxt
}

// consume advances the app read position and sends a window update if
// the advertised window was nearly closed.
func (c *Conn) consume(n int64) {
	wasSmall := c.advertisedWnd() < c.mss
	c.readPos += n
	if wasSmall && c.advertisedWnd() >= c.mss {
		c.sendAck()
	}
}

func (c *Conn) advertisedWnd() units.ByteSize {
	used := units.ByteSize(c.rcvNxt - c.readPos)
	if used >= c.rcvBufCap {
		return 0
	}
	return c.rcvBufCap - used
}

// Buffered returns the bytes received and not yet read by the app.
func (c *Conn) Buffered() units.ByteSize { return units.ByteSize(c.rcvNxt - c.readPos) }

// Drain blocks until every written byte has been acknowledged.
func (c *Conn) Drain(ctx *sim.Ctx) (err error) {
	ctx.Await(func() (wait *sim.Cond, _ time.Duration) {
		wait, err = c.drained()
		return wait, 0
	})
	return err
}

// drained is Drain's step: nil results once every written byte is
// acknowledged, the error once the connection can no longer drain,
// or sndCond to wait on.
func (c *Conn) drained() (*sim.Cond, error) {
	switch {
	case c.sndUna >= c.sndBufEnd:
		return nil, nil
	case c.err != nil:
		return nil, c.err
	case c.state != stateEstablished:
		return nil, ErrClosed
	}
	return c.sndCond, nil
}

// Close initiates a graceful shutdown: queued data is delivered, then
// a FIN. Close does not block; use Drain first for synchronous
// semantics.
func (c *Conn) Close() {
	if c.closeRequested || c.state == stateClosed {
		return
	}
	c.closeRequested = true
	c.finSeq = c.sndBufEnd
	c.trySend()
}

// abort resets the connection immediately.
func (c *Conn) abort(err error) {
	if c.state == stateClosed {
		return
	}
	seg := c.stack.allocSeg()
	seg.flags, seg.seq = flagRST, c.sndNxt
	c.sendSegment(seg)
	c.destroy(err)
}

// destroy tears down local state and wakes all blocked operations.
func (c *Conn) destroy(err error) {
	if c.state == stateClosed && c.err != nil {
		return
	}
	c.state = stateClosed
	if c.err == nil {
		c.err = err
	}
	// A handshake that never completed failed; an interrupted recovery
	// episode ends with the connection. (End is idempotent, so a
	// connect span already closed at establishment is untouched.)
	c.connect.EndStatus(spans.StatusFailed)
	c.recSpan.EndStatus(spans.StatusFailed)
	c.recSpan = nil
	c.rtxTimer.Cancel()
	c.delack.Cancel()
	c.persistTimer.Cancel()
	delete(c.stack.conns, makeConnKey(c.lport, c.raddr, c.rport))
	c.established.Broadcast()
	c.sndCond.Broadcast()
	c.rcvCond.Broadcast()
}

func (c *Conn) String() string {
	return fmt.Sprintf("conn{%s:%d->%d:%d}", c.stack.node.Name(), c.lport, c.raddr, c.rport)
}
