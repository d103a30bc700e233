package mpi

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"mpichgq/internal/globusio"
	"mpichgq/internal/metrics"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// Wildcards for Recv source and tag.
const (
	AnySource = -1
	AnyTag    = -1
)

// ErrRankFinished is returned when a communication partner's
// connection has shut down.
var ErrRankFinished = errors.New("mpi: peer connection closed")

// Message is a received point-to-point message.
type Message struct {
	Src  int // sender's rank in the communicator used for Recv
	Tag  int
	Len  units.ByteSize
	Data any
}

// wireKind discriminates protocol messages on a connection.
type wireKind uint8

const (
	kindEager wireKind = iota
	kindRTS
	kindCTS
	kindRdvData
)

// wireMsg is the marker object carried in the TCP stream for every
// MPI-level message.
type wireMsg struct {
	kind wireKind
	src  int // global rank of sender
	ctx  int // communicator context id
	tag  int
	size units.ByteSize
	data any
	seq  uint64 // rendezvous transaction id
	// sentAt is the sim time Send was called, carried so the receiver
	// can observe one-way latency.
	sentAt time.Duration
}

// envelope is a message known to the receiver: arrived eagerly, or
// announced by RTS with its data still to come.
type envelope struct {
	src     int // global rank
	ctx     int
	tag     int
	size    units.ByteSize
	data    any
	arrived bool   // data present
	rdvSeq  uint64 // the sender's rendezvous transaction, for RTS envelopes
	// err marks an unexpected RTS envelope whose data will never arrive
	// (its sender went down); the receive that matches it fails.
	err    error
	sentAt time.Duration
}

// sendTurn keeps the sends to one peer in call order, MPI's
// non-overtaking rule: each send draws a ticket when it is called and
// writes its eager frame or RTS when that ticket is served.
type sendTurn struct {
	next, serving uint64
	cond          *sim.Cond
}

// take draws the next ticket.
func (t *sendTurn) take() uint64 {
	t.next++
	return t.next - 1
}

// gate admits the holder of ticket once it is served.
func (t *sendTurn) gate(ticket uint64) sim.Gate {
	return func() (*sim.Cond, time.Duration) {
		if t.serving == ticket {
			return nil, 0
		}
		return t.cond, 0
	}
}

// pass hands the turn to the next ticket.
func (t *sendTurn) pass() {
	t.serving++
	t.cond.Broadcast()
}

// peerDown fails pending and future receives from a finished or
// failed peer, and releases rendezvous senders waiting on its
// clear-to-send. A cleanly finalized peer yields ErrRankFinished and
// leaves wildcard receives alone; a crashed peer yields the typed
// *RankFailedError and also completes wildcard (AnySource) receives
// with error, per the MPICH fault-tolerance model. conn identifies
// the connection whose reader observed the shutdown: if a newer
// connection to the peer has already replaced it (the peer
// restarted), the teardown is stale and skipped. The connection is
// closed here, whether the peer finished or crashed, because Finalize
// skips peers already dropped and nothing else would close this end.
func (r *Rank) peerDown(peer int, conn *globusio.IO) {
	crashed := r.job.failed[peer]
	if cur := r.conns[peer]; cur != nil && cur != conn {
		return // superseded by the peer's new incarnation
	} else if cur != nil {
		delete(r.conns, peer)
		cur.Close()
	}
	if r.deadPeers == nil {
		r.deadPeers = make(map[int]bool)
	}
	r.deadPeers[peer] = true
	r.wired.Broadcast() // wake senders blocked on the reconnect window
	err := error(ErrRankFinished)
	if crashed {
		err = &RankFailedError{Rank: peer}
	}
	r.failPending(err, func(p int) bool { return p == peer || (crashed && p == AnySource) })
}

// failPending completes with err every pending operation that waits on
// a rank down reports true for: receives posted for it or owed its
// rendezvous data, and sends awaiting its clear-to-send. Each list is
// walked front to back, so the operations fail in the order they were
// posted. Unexpected RTS envelopes from such a rank are marked, so the
// receive that later matches one fails instead of waiting for data.
func (r *Rank) failPending(err error, down func(peer int) bool) {
	r.posted = failList(r.posted, err, down)
	r.awaitingCTS = failList(r.awaitingCTS, err, down)
	for _, e := range r.unexpected {
		if !e.arrived && e.err == nil && down(e.src) {
			e.err = err
		}
	}
}

// failList completes the requests of list whose peer is down and
// returns the rest, in order.
func failList(list []*Request, err error, down func(peer int) bool) []*Request {
	kept := list[:0]
	for _, q := range list {
		if down(q.peer) {
			q.complete(err)
			continue
		}
		kept = append(kept, q)
	}
	clear(list[len(kept):])
	return kept
}

// progress is the gate of the per-peer progress engine. It runs in
// kernel context at every wakeup of the connection's receive side,
// reads each complete message off conn and handles it in place, and
// admits the reader process, which only tears the peer down, once
// the connection shuts down (clean and unclean shutdown alike).
func (r *Rank) progress(conn *globusio.IO) sim.Gate {
	return func() (*sim.Cond, time.Duration) {
		for {
			_, obj, wait, err := conn.NextMsg()
			switch {
			case wait != nil:
				return wait, 0
			case err != nil:
				return nil, 0
			}
			r.handle(obj)
		}
	}
}

// handle dispatches one message from a peer: it turns eager frames
// and RTS into envelopes, releases the send a CTS clears, and hands
// rendezvous data to its receive.
func (r *Rank) handle(obj any) {
	m, ok := obj.(wireMsg)
	if !ok {
		panic(fmt.Sprintf("mpi: rank %d got non-wire object %T", r.id, obj))
	}
	switch m.kind {
	case kindEager:
		r.deliver(envelope{
			src: m.src, ctx: m.ctx, tag: m.tag,
			size: m.size, data: m.data, arrived: true, sentAt: m.sentAt,
		})
	case kindRTS:
		r.deliver(envelope{
			src: m.src, ctx: m.ctx, tag: m.tag,
			size: m.size, rdvSeq: m.seq, sentAt: m.sentAt,
		})
	case kindCTS:
		for i, q := range r.awaitingCTS {
			if q.seq == m.seq {
				r.awaitingCTS = slices.Delete(r.awaitingCTS, i, i+1)
				q.cts = true
				q.cond.Broadcast()
				break
			}
		}
	case kindRdvData:
		r.completeRdv(m)
	}
}

// deliver matches an incoming envelope against the posted receives, in
// posting order, or queues it as unexpected. A receive matched by an
// RTS stays posted until its data arrives. env moves to the heap only
// when it is kept: queued as unexpected, or held by the receive an RTS
// matched.
func (r *Rank) deliver(env envelope) {
	for i, q := range r.posted {
		if !q.matches(&env) {
			continue
		}
		if env.arrived {
			r.posted = slices.Delete(r.posted, i, i+1)
			r.completeRecv(q, &env)
		} else {
			kept := env
			q.env, q.peer = &kept, kept.src
			r.sendCTS(&kept)
		}
		return
	}
	kept := env
	r.unexpected = append(r.unexpected, &kept)
}

// sendCTS sends clear-to-send for a matched RTS envelope.
func (r *Rank) sendCTS(env *envelope) {
	// Send CTS from a helper process (we may be in kernel context).
	peer := env.src
	seq := env.rdvSeq
	r.job.k.Spawn(fmt.Sprintf("mpi-cts-%d->%d", r.id, peer), func(ctx *sim.Ctx) {
		conn := r.conns[peer]
		if conn == nil {
			return
		}
		conn.WriteMsg(ctx, envelopeSize, wireMsg{kind: kindCTS, src: r.id, seq: seq})
	})
}

// completeRdv hands arrived rendezvous data to the posted receive that
// matched its RTS.
func (r *Rank) completeRdv(m wireMsg) {
	for i, q := range r.posted {
		if env := q.env; env != nil && env.src == m.src && env.rdvSeq == m.seq {
			r.posted = slices.Delete(r.posted, i, i+1)
			env.data = m.data
			r.completeRecv(q, env)
			return
		}
	}
	// Under failures the receive may be legitimately gone: a crash
	// fails it, but in-flight data can still be readable ahead of the
	// connection teardown. Drop the stray; in a healthy job it is a
	// protocol bug.
	if r.crashed || len(r.job.failed) > 0 || r.job.restarts > 0 {
		return
	}
	panic(fmt.Sprintf("mpi: rank %d got rendezvous data with no receive (src=%d seq=%d)", r.id, m.src, m.seq))
}

// completeRecv completes receive q with env's message and records the
// delivery.
func (r *Rank) completeRecv(q *Request, env *envelope) {
	r.observeRecv(q.comm.ctxID, env)
	q.msg = Message{
		Src:  q.comm.localRank(env.src),
		Tag:  env.tag,
		Len:  env.size,
		Data: env.data,
	}
	q.complete(nil)
}

// Send transmits n bytes with data attached to (dest, tag) on comm,
// blocking until the message is handed to the transport (standard-mode
// semantics: buffered locally or matched remotely). It waits for any
// earlier send to the same peer to reach the wire first.
func (r *Rank) Send(ctx *sim.Ctx, comm *Comm, dest, tag int, n units.ByteSize, data any) error {
	gdest, err := checkSend(comm, dest, n)
	if err != nil {
		return err
	}
	turn := &r.turns[gdest]
	if ticket := turn.take(); ticket != turn.serving {
		ctx.Await(turn.gate(ticket))
	}
	return r.handleErr(r.send(ctx, nil, comm, gdest, tag, n, data))
}

// checkSend validates a send's arguments and returns the destination's
// world rank.
func checkSend(comm *Comm, dest int, n units.ByteSize) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("mpi: negative message size %d", n)
	}
	return comm.globalRank(dest)
}

// send runs a send that holds its turn toward gdest. The turn passes
// on once the eager frame or the RTS is written, or the send fails
// before that; a rendezvous send then waits for clear-to-send and
// writes its data. q is the send's Request if it has one (Isend); a
// blocking rendezvous Send makes one to wait on.
func (r *Rank) send(ctx *sim.Ctx, q *Request, comm *Comm, gdest, tag int, n units.ByteSize, data any) error {
	q, conn, err := r.announce(ctx, q, comm, gdest, tag, n, data)
	r.turns[gdest].pass()
	if err != nil || conn == nil {
		return err
	}
	for !q.cts && !q.done {
		q.cond.Wait(ctx)
	}
	if q.done {
		return q.err // failed while awaiting clear-to-send
	}
	if err := conn.WriteMsg(ctx, envelopeSize+n, wireMsg{
		kind: kindRdvData, src: r.id, size: n, data: data, seq: q.seq,
	}); err != nil {
		return r.commFail(gdest, err)
	}
	return nil
}

// announce puts the eager frame on the wire, or, for a rendezvous,
// queues q on awaitingCTS and writes the RTS. It returns the
// connection only for a rendezvous, whose data is still to be sent.
func (r *Rank) announce(ctx *sim.Ctx, q *Request, comm *Comm, gdest, tag int, n units.ByteSize, data any) (*Request, *globusio.IO, error) {
	if r.crashed {
		return q, nil, &RankFailedError{Rank: r.id}
	}
	if gdest != r.id && r.job.failed[gdest] {
		return q, nil, &RankFailedError{Rank: gdest}
	}
	now := r.job.k.Now()
	cm := r.commMetrics(comm.ctxID)
	if gdest == r.id {
		// Self-send: deliver directly.
		cm.sentMsgs.Inc()
		cm.sentBytes.Add(int64(n))
		r.deliver(envelope{src: r.id, ctx: comm.ctxID, tag: tag, size: n, data: data, arrived: true, sentAt: now})
		return q, nil, nil
	}
	conn := r.conns[gdest]
	// A restarted job may catch the peer mid-rejoin: it is alive (not
	// failed, not finished) but its connection is still being wired.
	// Block until the mesh change resolves — a registered connection, the
	// peer's failure, or our own crash all broadcast wired.
	for conn == nil && !r.crashed && r.job.restarts > 0 &&
		!r.job.failed[gdest] && !r.deadPeers[gdest] {
		r.wired.Wait(ctx)
		conn = r.conns[gdest]
	}
	if r.crashed {
		return q, nil, &RankFailedError{Rank: r.id}
	}
	if conn == nil {
		if r.job.failed[gdest] {
			return q, nil, &RankFailedError{Rank: gdest}
		}
		if r.deadPeers[gdest] {
			return q, nil, ErrRankFinished
		}
		return q, nil, fmt.Errorf("mpi: rank %d has no connection to %d", r.id, gdest)
	}
	cm.sentMsgs.Inc()
	cm.sentBytes.Add(int64(n))
	if n <= r.job.opts.EagerThreshold {
		if err := conn.WriteMsg(ctx, envelopeSize+n, wireMsg{
			kind: kindEager, src: r.id, ctx: comm.ctxID, tag: tag, size: n, data: data, sentAt: now,
		}); err != nil {
			return q, nil, r.commFail(gdest, err)
		}
		return q, nil, nil
	}
	// Rendezvous: RTS now; the caller waits for CTS, then sends the data.
	if q == nil {
		q = &Request{rank: r, peer: gdest, cond: sim.MakeCond(r.job.k)}
	}
	r.nextRdvSeq++
	q.seq = r.nextRdvSeq
	r.awaitingCTS = append(r.awaitingCTS, q)
	if err := conn.WriteMsg(ctx, envelopeSize, wireMsg{
		kind: kindRTS, src: r.id, ctx: comm.ctxID, tag: tag, size: n, seq: q.seq, sentAt: now,
	}); err != nil {
		r.awaitingCTS = slices.DeleteFunc(r.awaitingCTS, func(p *Request) bool { return p == q })
		return q, nil, r.commFail(gdest, err)
	}
	return q, conn, nil
}

// commFail maps a transport-level write error to the MPI-level cause:
// the local rank crashed mid-call, the peer is in the failed group, or
// (otherwise) the raw transport error.
func (r *Rank) commFail(peer int, err error) error {
	if r.crashed {
		return &RankFailedError{Rank: r.id}
	}
	if r.job.failed[peer] {
		return &RankFailedError{Rank: peer}
	}
	return err
}

// Recv blocks until a message matching (src, tag) on comm arrives and
// returns it. src may be AnySource and tag AnyTag.
func (r *Rank) Recv(ctx *sim.Ctx, comm *Comm, src, tag int) (*Message, error) {
	q, err := r.Irecv(ctx, comm, src, tag)
	if err != nil {
		return nil, err
	}
	if err := q.Wait(ctx); err != nil {
		return nil, err
	}
	return &q.msg, nil
}

// observeRecv records delivery metrics: per-communicator message and
// byte counters, the one-way latency histogram, and an EvMPIRecv
// flight-recorder event.
func (r *Rank) observeRecv(ctxID int, env *envelope) {
	cm := r.commMetrics(ctxID)
	cm.recvMsgs.Inc()
	cm.recvBytes.Add(int64(env.size))
	lat := r.job.k.Now() - env.sentAt
	cm.latency.Observe(lat.Seconds())
	r.job.k.Metrics().Events().Emit(metrics.EvMPIRecv, cm.subject,
		int64(env.size), int64(ctxID), int64(lat))
}

// SendRecv performs a blocking exchange: send to dest then receive
// from src (issued concurrently to avoid deadlock on symmetric
// exchanges).
func (r *Rank) SendRecv(ctx *sim.Ctx, comm *Comm, dest, sendTag int, n units.ByteSize, data any, src, recvTag int) (*Message, error) {
	req, err := r.Isend(ctx, comm, dest, sendTag, n, data)
	if err != nil {
		return nil, err
	}
	msg, err := r.Recv(ctx, comm, src, recvTag)
	if err != nil {
		return nil, err
	}
	if err := req.Wait(ctx); err != nil {
		return nil, err
	}
	return msg, nil
}
