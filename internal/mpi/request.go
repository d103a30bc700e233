package mpi

import (
	"fmt"
	"slices"
	"time"

	"mpichgq/internal/globusio"
	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// Request is a handle to a nonblocking operation (MPI_Request), and
// the rank's one record of a point-to-point operation in flight. A
// receive sits on the rank's posted list until its data arrives, a
// rendezvous send on awaitingCTS until its clear-to-send arrives, and
// a send to a peer rejoining the job on held until the peer is wired,
// or until they fail. Each list keeps posting order, the order in
// which deliver matches, held sends are posted and failures land.
//
// The Cond and a receive's Message live inside the Request, so an
// eager receive costs one allocation. A Request must not be copied.
type Request struct {
	rank *Rank
	done bool
	send bool
	err  error
	// msg is a receive's message, once it completes without error,
	// and a send's payload (Len and Data) until its data is posted.
	msg  Message
	cond sim.Cond

	// peer is the world rank the operation waits on: a send's
	// destination, or a receive's source (AnySource until an RTS
	// matches it).
	peer int
	// Operations carry comm's context and tag. Receives match on them
	// (tag may be AnyTag); env is the matched RTS envelope while its
	// data is still to come.
	comm *Comm
	tag  int
	env  *envelope
	// seq is a rendezvous send's transaction; cts records its
	// clear-to-send. sentAt is when a send was called.
	seq    uint64
	cts    bool
	sentAt time.Duration
}

// Done reports completion without blocking (MPI_Test).
func (q *Request) Done() bool { return q.done }

// Wait blocks until the operation completes and returns its error,
// passed through the job's error handler (MPI_Wait).
func (q *Request) Wait(ctx *sim.Ctx) error {
	for !q.done {
		q.cond.Wait(ctx)
	}
	return q.rank.handleErr(q.err)
}

// Message returns the received message after Wait on an Irecv
// request, or nil if the request is a send, has not completed, or
// failed.
func (q *Request) Message() *Message {
	if q.send || !q.done || q.err != nil {
		return nil
	}
	return &q.msg
}

// complete finishes q once; a later call, such as a failed write's
// after a failure sweep got there first, is a no-op.
func (q *Request) complete(err error) {
	if q.done {
		return
	}
	q.err = err
	q.done = true
	q.cond.Broadcast()
}

// sent is told the outcome of a posted send's write: the eager frame
// or the rendezvous data completes it, the RTS leaves it awaiting its
// clear-to-send, and a failed write fails it.
func (q *Request) sent(err error) {
	switch {
	case err != nil:
		q.rank.awaitingCTS = slices.DeleteFunc(q.rank.awaitingCTS, func(p *Request) bool { return p == q })
		q.complete(q.rank.commFail(q.peer, err))
	case q.seq == 0 || q.cts:
		q.complete(nil)
	}
}

// matches reports whether receive q, not yet matched, takes env.
func (q *Request) matches(env *envelope) bool {
	return q.env == nil && q.comm.ctxID == env.ctx &&
		(q.peer == AnySource || q.peer == env.src) &&
		(q.tag == AnyTag || q.tag == env.tag)
}

// Isend starts a nonblocking send: its eager frame or RTS joins the
// peer's send queue behind every earlier send to it (MPI
// non-overtaking). Wait returns once the send has standard-mode
// completed (buffered or delivered).
func (r *Rank) Isend(ctx *sim.Ctx, comm *Comm, dest, tag int, n units.ByteSize, data any) (*Request, error) {
	gdest, err := checkSend(comm, dest, n)
	if err != nil {
		return nil, err
	}
	return r.isend(comm, gdest, tag, n, data), nil
}

// isend starts a send to world rank gdest and returns its Request,
// which fails at once if the send cannot go out.
func (r *Rank) isend(comm *Comm, gdest, tag int, n units.ByteSize, data any) *Request {
	q := &Request{rank: r, send: true, peer: gdest, comm: comm, tag: tag, sentAt: r.job.k.Now(),
		msg: Message{Len: n, Data: data}, cond: sim.MakeCond(r.job.k)}
	conn := r.conns[gdest]
	switch {
	case r.crashed:
		q.complete(&RankFailedError{Rank: r.id})
	case gdest == r.id:
		r.countSend(comm, n)
		r.deliver(envelope{src: r.id, ctx: comm.ctxID, tag: tag, size: n, data: data, arrived: true, sentAt: q.sentAt})
		q.complete(nil)
	case r.job.failed[gdest]:
		q.complete(&RankFailedError{Rank: gdest})
	case conn != nil:
		r.post(conn, q)
	case r.deadPeers[gdest]:
		q.complete(ErrRankFinished)
	case r.job.restarts == 0:
		q.complete(fmt.Errorf("mpi: rank %d has no connection to %d", r.id, gdest))
	default: // gdest is alive and rejoining the job
		r.held = append(r.held, q)
	}
	return q
}

// post counts send q and puts its eager frame, or its RTS, into conn's
// send queue.
func (r *Rank) post(conn *globusio.IO, q *Request) {
	r.countSend(q.comm, q.msg.Len)
	m := wireMsg{kind: kindEager, src: r.id, ctx: q.comm.ctxID, tag: q.tag, size: q.msg.Len, data: q.msg.Data, sentAt: q.sentAt}
	n := envelopeSize + m.size
	if m.size > r.job.opts.EagerThreshold {
		r.nextRdvSeq++
		q.seq = r.nextRdvSeq
		r.awaitingCTS = append(r.awaitingCTS, q)
		m.kind, m.data, m.seq, n = kindRTS, nil, q.seq, envelopeSize
	}
	conn.Post(n, m, q.sent)
}

// Irecv posts a nonblocking receive. It takes the first matching
// unexpected message, or else joins the posted list that arriving
// messages are matched against in posting order.
func (r *Rank) Irecv(ctx *sim.Ctx, comm *Comm, src, tag int) (*Request, error) {
	gsrc := src
	if src != AnySource {
		var err error
		if gsrc, err = comm.globalRank(src); err != nil {
			return nil, err
		}
	}
	q := &Request{rank: r, peer: gsrc, comm: comm, tag: tag, cond: sim.MakeCond(r.job.k)}
	if r.crashed {
		q.complete(&RankFailedError{Rank: r.id})
		return q, nil
	}
	for i, e := range r.unexpected {
		if !q.matches(e) {
			continue
		}
		r.unexpected = slices.Delete(r.unexpected, i, i+1)
		if e.arrived {
			r.completeRecv(q, e)
			return q, nil
		}
		r.sendCTS(e)
		if e.err != nil {
			q.complete(e.err)
			return q, nil
		}
		q.env, q.peer = e, e.src
		r.posted = append(r.posted, q)
		return q, nil
	}
	if err := r.recvFailure(comm, gsrc); err != nil {
		q.complete(err)
		return q, nil
	}
	r.posted = append(r.posted, q)
	return q, nil
}

// recvFailure reports why a receive from gsrc on comm cannot complete:
// the awaited peer's connection has shut down or the peer is in the
// failed-process group; a wildcard receive fails when any rank in the
// communicator's group has failed (MPI_ANY_SOURCE cannot complete
// safely — the failed rank might have been the intended sender).
func (r *Rank) recvFailure(comm *Comm, gsrc int) error {
	if gsrc != AnySource && gsrc != r.id {
		if r.job.failed[gsrc] {
			return &RankFailedError{Rank: gsrc}
		}
		if r.deadPeers[gsrc] {
			return ErrRankFinished
		}
	}
	if gsrc == AnySource && len(r.job.failed) > 0 {
		for _, g := range comm.group {
			if g != r.id && r.job.failed[g] {
				return &RankFailedError{Rank: g}
			}
		}
	}
	return nil
}

// WaitAll waits for every request and returns the first error.
func WaitAll(ctx *sim.Ctx, reqs ...*Request) error {
	var first error
	for _, q := range reqs {
		if err := q.Wait(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// PersistentRequest is a reusable communication request
// (MPI_Send_init / MPI_Recv_init): the envelope is fixed once, then
// Start/Wait cycles repeat it — the classic idiom for fixed
// communication patterns like halo exchanges.
type PersistentRequest struct {
	rank *Rank
	send bool
	comm *Comm
	peer int // dest or src
	tag  int
	size units.ByteSize
	data any

	cur *Request
}

// SendInit creates a persistent send request. Data set here is sent
// on every Start; SetData replaces it between iterations.
func (r *Rank) SendInit(comm *Comm, dest, tag int, n units.ByteSize, data any) (*PersistentRequest, error) {
	if _, err := comm.globalRank(dest); err != nil {
		return nil, err
	}
	return &PersistentRequest{rank: r, send: true, comm: comm, peer: dest, tag: tag, size: n, data: data}, nil
}

// RecvInit creates a persistent receive request.
func (r *Rank) RecvInit(comm *Comm, src, tag int) (*PersistentRequest, error) {
	if src != AnySource {
		if _, err := comm.globalRank(src); err != nil {
			return nil, err
		}
	}
	return &PersistentRequest{rank: r, comm: comm, peer: src, tag: tag}, nil
}

// SetData replaces the payload sent by the next Start (send requests
// only).
func (p *PersistentRequest) SetData(n units.ByteSize, data any) {
	p.size = n
	p.data = data
}

// Start begins one iteration of the persistent operation. Starting an
// already-active request is an error (MPI semantics).
func (p *PersistentRequest) Start(ctx *sim.Ctx) error {
	if p.cur != nil && !p.cur.Done() {
		return fmt.Errorf("mpi: persistent request started while active")
	}
	var err error
	if p.send {
		p.cur, err = p.rank.Isend(ctx, p.comm, p.peer, p.tag, p.size, p.data)
	} else {
		p.cur, err = p.rank.Irecv(ctx, p.comm, p.peer, p.tag)
	}
	return err
}

// Wait blocks until the current iteration completes. For receives the
// message is available afterwards via Message.
func (p *PersistentRequest) Wait(ctx *sim.Ctx) error {
	if p.cur == nil {
		return fmt.Errorf("mpi: persistent request waited before Start")
	}
	return p.cur.Wait(ctx)
}

// Message returns the last completed receive's message.
func (p *PersistentRequest) Message() *Message {
	if p.cur == nil {
		return nil
	}
	return p.cur.Message()
}
