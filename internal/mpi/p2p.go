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
	r.deadPeers[peer] = true
	err := error(ErrRankFinished)
	if crashed {
		err = &RankFailedError{Rank: peer}
	}
	r.failPending(err, func(p int) bool { return p == peer || (crashed && p == AnySource) })
}

// failPending completes with err every pending operation that waits on
// a rank down reports true for: receives posted for it or owed its
// rendezvous data, sends awaiting its clear-to-send or its connection.
// Each list is walked front to back, so the operations fail in the
// order they were posted. Unexpected RTS envelopes from such a rank
// are marked, so the receive that later matches one fails instead of
// waiting for data.
func (r *Rank) failPending(err error, down func(peer int) bool) {
	r.posted = failList(r.posted, err, down)
	r.awaitingCTS = failList(r.awaitingCTS, err, down)
	r.held = failList(r.held, err, down)
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

// progress is the gate of conn's reader, the progress engine for peer.
// At every wakeup of the receive side it reads each complete message
// off conn and handles it in place, and it tears the peer down once
// the connection shuts down (clean and unclean shutdown alike).
func (r *Rank) progress(peer int, conn *globusio.IO) sim.Gate {
	return func() (*sim.Cond, time.Duration) {
		for {
			_, obj, wait, err := conn.NextMsg()
			switch {
			case wait != nil:
				return wait, 0
			case err != nil:
				r.peerDown(peer, conn)
				return nil, 0
			}
			r.handle(conn, obj)
		}
	}
}

// handle dispatches one message that arrived on conn: it turns eager
// frames and RTS into envelopes, posts a rendezvous send's data on its
// CTS, and hands rendezvous data to its receive.
func (r *Rank) handle(conn *globusio.IO, obj any) {
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
				conn.Post(envelopeSize+q.msg.Len, wireMsg{
					kind: kindRdvData, src: r.id, size: q.msg.Len, data: q.msg.Data, seq: q.seq,
				}, q.sent)
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

// sendCTS posts the clear-to-send for a matched RTS envelope.
func (r *Rank) sendCTS(env *envelope) {
	if conn := r.conns[env.src]; conn != nil {
		conn.Post(envelopeSize, wireMsg{kind: kindCTS, src: r.id, seq: env.rdvSeq}, nil)
	}
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
// semantics: buffered locally or matched remotely). The calling process
// writes an eager frame to a wired peer itself; any other send is an
// Isend and a Wait.
func (r *Rank) Send(ctx *sim.Ctx, comm *Comm, dest, tag int, n units.ByteSize, data any) error {
	gdest, err := checkSend(comm, dest, n)
	if err != nil {
		return err
	}
	conn := r.conns[gdest]
	if n > r.job.opts.EagerThreshold || conn == nil || r.crashed || r.job.failed[gdest] {
		return r.isend(comm, gdest, tag, n, data).Wait(ctx)
	}
	r.countSend(comm, n)
	if err := conn.WriteMsg(ctx, envelopeSize+n, wireMsg{
		kind: kindEager, src: r.id, ctx: comm.ctxID, tag: tag, size: n, data: data, sentAt: r.job.k.Now(),
	}); err != nil {
		return r.handleErr(r.commFail(gdest, err))
	}
	return nil
}

// checkSend validates a send's arguments and returns the destination's
// world rank.
func checkSend(comm *Comm, dest int, n units.ByteSize) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("mpi: negative message size %d", n)
	}
	return comm.globalRank(dest)
}

// countSend records a sent message of n bytes on comm.
func (r *Rank) countSend(comm *Comm, n units.ByteSize) {
	cm := r.commMetrics(comm.ctxID)
	cm.sentMsgs.Inc()
	cm.sentBytes.Add(int64(n))
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
