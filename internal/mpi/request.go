package mpi

import (
	"fmt"
	"slices"

	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// Request is a handle to a nonblocking operation (MPI_Request), and
// the rank's one record of a point-to-point operation in flight. A
// receive sits on the rank's posted list from the moment it is posted
// until its data arrives or it fails; a rendezvous send sits on the
// awaitingCTS list from its RTS until the clear-to-send arrives or it
// fails. Both lists keep posting order: deliver matches in that order,
// and a peer failure completes the operations in that order.
//
// The Cond and a receive's Message live inside the Request, so an
// eager receive costs one allocation. A Request must not be copied.
type Request struct {
	rank *Rank
	done bool
	err  error
	msg  Message // a receive's message, once it completes without error
	cond sim.Cond

	// peer is the world rank the operation waits on: a send's
	// destination, or a receive's source (AnySource until an RTS
	// matches it).
	peer int
	// Receives match on comm's context and tag (or AnyTag); env is the
	// matched RTS envelope while its data is still to come.
	comm *Comm
	tag  int
	env  *envelope
	// seq is a rendezvous send's transaction; cts records its
	// clear-to-send.
	seq uint64
	cts bool
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
	if q.comm == nil || !q.done || q.err != nil {
		return nil
	}
	return &q.msg
}

// complete finishes q once; a later call, such as an Isend helper's
// after a failure sweep got there first, is a no-op.
func (q *Request) complete(err error) {
	if q.done {
		return
	}
	q.err = err
	q.done = true
	q.cond.Broadcast()
}

// matches reports whether receive q, not yet matched, takes env.
func (q *Request) matches(env *envelope) bool {
	return q.env == nil && q.comm.ctxID == env.ctx &&
		(q.peer == AnySource || q.peer == env.src) &&
		(q.tag == AnyTag || q.tag == env.tag)
}

// Isend starts a nonblocking send. A helper process writes the message
// once every earlier send to the same peer has reached the wire; Wait
// returns once the send has standard-mode completed (buffered or
// delivered).
func (r *Rank) Isend(ctx *sim.Ctx, comm *Comm, dest, tag int, n units.ByteSize, data any) (*Request, error) {
	gdest, err := checkSend(comm, dest, n)
	if err != nil {
		return nil, err
	}
	q := &Request{rank: r, peer: gdest, cond: sim.MakeCond(r.job.k)}
	turn := &r.turns[gdest]
	r.job.k.SpawnWhen(fmt.Sprintf("mpi-isend-%d", r.id), turn.gate(turn.take()), func(sctx *sim.Ctx) {
		q.complete(r.send(sctx, q, comm, gdest, tag, n, data))
	})
	return q, nil
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
