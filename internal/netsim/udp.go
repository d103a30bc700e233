package netsim

import (
	"errors"
	"fmt"

	"mpichgq/internal/sim"
	"mpichgq/internal/units"
)

// Datagram is a received UDP message.
type Datagram struct {
	From     Addr
	FromPort Port
	Len      units.ByteSize
	DSCP     DSCP
	Payload  any
}

// UDPStack demultiplexes UDP packets to sockets on one node.
type UDPStack struct {
	node     *Node
	sockets  map[Port]*UDPSocket
	nextPort Port

	rxDrops uint64 // datagrams for ports with no socket
}

// NewUDPStack creates the UDP stack for node nd and registers it as
// the node's UDP handler.
func NewUDPStack(nd *Node) *UDPStack {
	s := &UDPStack{node: nd, sockets: make(map[Port]*UDPSocket), nextPort: 30000}
	nd.Handle(ProtoUDP, s)
	nd.udp = s
	return s
}

// UDPStack returns the node's UDP stack, creating and registering it
// on first use.
func (nd *Node) UDPStack() *UDPStack {
	if nd.udp == nil {
		NewUDPStack(nd)
	}
	return nd.udp
}

// HandlePacket implements Handler.
func (s *UDPStack) HandlePacket(p *Packet) {
	sock := s.sockets[p.DstPort]
	if sock == nil || sock.closed {
		s.rxDrops++
		s.node.net.FreePacket(p)
		return
	}
	sock.rxDatagrams++
	sock.rxBytes += int64(p.PayloadLen)
	if sock.inbox != nil {
		sock.inbox.Send(&Datagram{
			From:     p.Src,
			FromPort: p.SrcPort,
			Len:      p.PayloadLen,
			DSCP:     p.DSCP,
			Payload:  p.Payload,
		})
	}
	s.node.net.FreePacket(p)
}

// Bind opens a socket on the given port; port 0 picks an ephemeral
// port.
func (s *UDPStack) Bind(port Port) (*UDPSocket, error) {
	return s.bind(port, sim.NewMailbox(s.node.net.k))
}

// BindSink opens a sink socket on the given port: it has no inbox, so
// arriving datagrams are counted (see RxStats) and freed inside the
// stack, with no Datagram, queueing or process wakeup. Background
// traffic that only needs to be absorbed binds one.
func (s *UDPStack) BindSink(port Port) (*UDPSocket, error) {
	return s.bind(port, nil)
}

func (s *UDPStack) bind(port Port, inbox *sim.Mailbox) (*UDPSocket, error) {
	if port == 0 {
		for s.sockets[s.nextPort] != nil {
			s.nextPort++
		}
		port = s.nextPort
		s.nextPort++
	} else if s.sockets[port] != nil {
		return nil, fmt.Errorf("netsim: udp port %d on %q in use", port, s.node.name)
	}
	sock := &UDPSocket{stack: s, port: port, inbox: inbox}
	s.sockets[port] = sock
	return sock, nil
}

// Node returns the node the stack runs on.
func (s *UDPStack) Node() *Node { return s.node }

// RxDrops returns the number of datagrams dropped for lack of a bound
// socket.
func (s *UDPStack) RxDrops() uint64 { return s.rxDrops }

// ErrClosed is returned by operations on a closed socket.
var ErrClosed = errors.New("netsim: socket closed")

// ErrSink is returned by Recv on a sink socket, which queues nothing.
var ErrSink = errors.New("netsim: receive on a sink socket")

// UDPSocket is a bound UDP endpoint.
type UDPSocket struct {
	stack  *UDPStack
	port   Port
	inbox  *sim.Mailbox // nil for a sink socket
	dscp   DSCP
	closed bool

	txDatagrams, rxDatagrams uint64
	txBytes, rxBytes         int64
}

// Port returns the bound local port.
func (u *UDPSocket) Port() Port { return u.port }

// SetDSCP sets the DS code point stamped on outgoing datagrams.
// (Applications normally leave this at best-effort and let the edge
// router classify and mark; setting it directly models a
// "pre-marking" host.)
func (u *UDPSocket) SetDSCP(d DSCP) { u.dscp = d }

// SendTo transmits a datagram of payloadLen bytes to (dst, dstPort).
// It reports false if the datagram was dropped before leaving the
// node — like real UDP, later drops are silent. A local egress-queue
// drop is ordinary loss (false, nil); an unroutable destination also
// surfaces the *NoRouteError, like a host ENETUNREACH. payload rides
// along for the receiver and may be nil.
func (u *UDPSocket) SendTo(dst Addr, dstPort Port, payloadLen units.ByteSize, payload any) (bool, error) {
	if u.closed {
		return false, ErrClosed
	}
	if payloadLen < 0 {
		return false, fmt.Errorf("netsim: negative datagram length %d", payloadLen)
	}
	p := u.stack.node.net.AllocPacket()
	p.Src = u.stack.node.addr
	p.Dst = dst
	p.SrcPort = u.port
	p.DstPort = dstPort
	p.Proto = ProtoUDP
	p.DSCP = u.dscp
	p.Size = payloadLen + UDPHeader + IPHeader
	p.PayloadLen = payloadLen
	p.Payload = payload
	if err := u.stack.node.Send(p); err != nil {
		// Declared only on the error path: errors.As makes noRoute
		// escape, and a successful send must not allocate.
		var noRoute *NoRouteError
		if errors.As(err, &noRoute) {
			return false, noRoute
		}
		return false, nil // egress drop: silent loss, as on the wire
	}
	u.txDatagrams++
	u.txBytes += int64(payloadLen)
	return true, nil
}

// Recv blocks until a datagram arrives or the socket is closed. On a
// sink socket it fails at once with ErrSink.
func (u *UDPSocket) Recv(ctx *sim.Ctx) (*Datagram, error) {
	if u.inbox == nil {
		return nil, ErrSink
	}
	v, ok := u.inbox.Recv(ctx)
	if !ok {
		return nil, ErrClosed
	}
	return v.(*Datagram), nil
}

// TryRecv returns a queued datagram without blocking.
func (u *UDPSocket) TryRecv() (*Datagram, bool) {
	if u.inbox == nil {
		return nil, false
	}
	v, ok := u.inbox.TryRecv()
	if !ok {
		return nil, false
	}
	return v.(*Datagram), true
}

// Pending returns the number of queued datagrams.
func (u *UDPSocket) Pending() int {
	if u.inbox == nil {
		return 0
	}
	return u.inbox.Len()
}

// Close releases the port and wakes blocked receivers.
func (u *UDPSocket) Close() {
	if u.closed {
		return
	}
	u.closed = true
	delete(u.stack.sockets, u.port)
	if u.inbox != nil {
		u.inbox.Close()
	}
}

// TxStats returns the count and total payload bytes of datagrams
// accepted by the local node.
func (u *UDPSocket) TxStats() (datagrams uint64, bytes int64) {
	return u.txDatagrams, u.txBytes
}

// RxStats returns the count and total payload bytes of datagrams
// delivered to the socket.
func (u *UDPSocket) RxStats() (datagrams uint64, bytes int64) {
	return u.rxDatagrams, u.rxBytes
}
