package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"myraft/internal/metrics"
	"myraft/internal/wire"
)

// TCPNode is a real-network transport: it implements the same contract as
// Endpoint (Send/Recv) over TCP sockets with length-prefixed wire frames,
// so a raft.Node can run across processes and machines rather than inside
// the simulator. The simulated Network remains the tool for experiments
// (fault injection, byte metering); TCPNode is the deployment path.
//
// Frames are [4-byte big-endian total length][2-byte sender length]
// [sender][wire-encoded message]. Outbound connections are dialed lazily
// per peer and re-dialed after failures; sends never block the caller
// beyond a buffered per-peer queue (excess messages are dropped, like a
// full socket buffer — Raft retries).
type TCPNode struct {
	id wire.NodeID
	ln net.Listener

	mu      sync.Mutex
	peers   map[wire.NodeID]string
	outs    map[wire.NodeID]*tcpPeer
	inbound map[net.Conn]struct{}
	closed  bool

	inbox chan Envelope
	wg    sync.WaitGroup

	// drops is the labeled drop accounting (nil until SetMetrics): every
	// silent-drop site bumps its own counter so "network semantics" losses
	// are invisible to callers but visible on /metrics.
	drops atomic.Pointer[tcpDropCounters]
}

// tcpDropCounters is one counter per silent-drop site.
type tcpDropCounters struct {
	unknownPeer *metrics.Counter // Send to a peer with no registered address
	queueFull   *metrics.Counter // per-peer outbound queue saturated
	inboxFull   *metrics.Counter // local inbox saturated
	dialFail    *metrics.Counter // frame dropped because the dial failed
	writeFail   *metrics.Counter // frame dropped after the redial attempt
}

// SetMetrics attaches a metrics registry: each silent-drop site gets a
// labeled counter (tcp_drop_*). Safe to call at any time; counters are
// resolved once and cached.
func (t *TCPNode) SetMetrics(reg *metrics.Registry) {
	t.drops.Store(&tcpDropCounters{
		unknownPeer: reg.Counter("tcp_drop_unknown_peer"),
		queueFull:   reg.Counter("tcp_drop_queue_full"),
		inboxFull:   reg.Counter("tcp_drop_inbox_full"),
		dialFail:    reg.Counter("tcp_drop_dial_fail"),
		writeFail:   reg.Counter("tcp_drop_write_fail"),
	})
}

// tcpPeer is the outbound side of one peer connection.
type tcpPeer struct {
	addr  string
	queue chan []byte
}

// tcpQueueDepth bounds the per-peer outbound queue.
const tcpQueueDepth = 4096

// maxFrame bounds a single frame (a full-batch AppendEntries with 64
// payloads fits comfortably).
const maxFrame = 64 << 20

// NewTCP starts a TCP transport listening on listenAddr (use
// "127.0.0.1:0" to pick a free port; Addr reports the bound address).
func NewTCP(id wire.NodeID, listenAddr string) (*TCPNode, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	t := &TCPNode{
		id:      id,
		ln:      ln,
		peers:   make(map[wire.NodeID]string),
		outs:    make(map[wire.NodeID]*tcpPeer),
		inbound: make(map[net.Conn]struct{}),
		inbox:   make(chan Envelope, 8192),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// ID returns the node's identity.
func (t *TCPNode) ID() wire.NodeID { return t.id }

// Addr returns the bound listen address.
func (t *TCPNode) Addr() string { return t.ln.Addr().String() }

// SetPeer registers (or updates) a peer's dial address.
func (t *TCPNode) SetPeer(id wire.NodeID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers[id] = addr
	if p, ok := t.outs[id]; ok {
		p.addr = addr
	}
}

// Recv returns the delivery channel.
func (t *TCPNode) Recv() <-chan Envelope { return t.inbox }

// Send transmits msg to the peer. Unknown peers and transmit failures
// drop silently (network semantics); encoding failures are returned.
func (t *TCPNode) Send(to wire.NodeID, msg wire.Message) error {
	if to == t.id {
		// Loopback: deliver the message object directly, skipping the
		// marshal→frame→unmarshal round-trip — it never touches the
		// network. Callers already treat a message as frozen once handed
		// to Send (the remote path marshals synchronously before reusing
		// any send buffers), so handing the same object to the local
		// inbox is safe.
		t.mu.Lock()
		closed := t.closed
		t.mu.Unlock()
		if !closed {
			t.deliver(Envelope{From: t.id, To: t.id, Msg: wire.Unwrap(msg)})
		}
		return nil
	}
	frame, err := encodeFrame(t.id, msg)
	if err != nil {
		return fmt.Errorf("transport: %w", err)
	}

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	p := t.outs[to]
	if p == nil {
		addr, ok := t.peers[to]
		if !ok {
			t.mu.Unlock()
			// Unknown peer: drop, like an unroutable address.
			if d := t.drops.Load(); d != nil {
				d.unknownPeer.Inc()
			}
			return nil
		}
		p = &tcpPeer{addr: addr, queue: make(chan []byte, tcpQueueDepth)}
		t.outs[to] = p
		t.wg.Add(1)
		go t.sendLoop(p)
	}
	t.mu.Unlock()

	select {
	case p.queue <- frame:
	default: // saturated: drop, Raft retries
		if d := t.drops.Load(); d != nil {
			d.queueFull.Inc()
		}
	}
	return nil
}

// sendLoop drains one peer's queue, (re)dialing as needed.
func (t *TCPNode) sendLoop(p *tcpPeer) {
	defer t.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for frame := range p.queue {
		sent, dialFailed := false, false
		for attempt := 0; attempt < 2; attempt++ {
			if conn == nil {
				t.mu.Lock()
				addr := p.addr
				closed := t.closed
				t.mu.Unlock()
				if closed {
					return
				}
				c, err := net.DialTimeout("tcp", addr, 2*time.Second)
				if err != nil {
					dialFailed = true
					break // drop this frame; retry dial on the next one
				}
				conn = c
			}
			conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
			if _, err := conn.Write(frame); err != nil {
				conn.Close()
				conn = nil
				continue // one redial attempt for this frame
			}
			sent = true
			break
		}
		if !sent {
			if d := t.drops.Load(); d != nil {
				if dialFailed {
					d.dialFail.Inc()
				} else {
					d.writeFail.Inc()
				}
			}
		}
	}
}

// acceptLoop receives inbound connections.
func (t *TCPNode) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inbound[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop decodes frames from one inbound connection.
func (t *TCPNode) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	var from wire.NodeID // a connection carries one sender: keep its ID
	var hdr [4]byte
	for {
		sender, data, err := readFrame(conn, &hdr)
		if err != nil {
			return
		}
		if string(sender) != string(from) {
			from = wire.NodeID(sender)
		}
		msg, err := wire.Unmarshal(data)
		if err != nil {
			continue // corrupt frame: skip
		}
		t.deliver(Envelope{From: from, To: t.id, Msg: msg, Size: len(data)})
	}
}

func (t *TCPNode) deliver(env Envelope) {
	select {
	case t.inbox <- env:
	default: // inbox saturated: drop
		if d := t.drops.Load(); d != nil {
			d.inboxFull.Inc()
		}
	}
}

// Close shuts the transport down.
func (t *TCPNode) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	outs := t.outs
	t.outs = make(map[wire.NodeID]*tcpPeer)
	inbound := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		inbound = append(inbound, c)
	}
	t.mu.Unlock()

	err := t.ln.Close()
	for _, c := range inbound {
		c.Close() // unblocks readLoops
	}
	for _, p := range outs {
		close(p.queue)
	}
	t.wg.Wait()
	return err
}

// encodeFrame builds [total len][sender len][sender][message] in one
// buffer of exactly that size, marshalling msg straight into it.
func encodeFrame(from wire.NodeID, msg wire.Message) ([]byte, error) {
	total := 2 + len(from) + msg.EncodedSize()
	buf := make([]byte, 6, 4+total)
	binary.BigEndian.PutUint32(buf, uint32(total))
	binary.BigEndian.PutUint16(buf[4:], uint16(len(from)))
	buf = append(buf, from...)
	return wire.AppendMarshal(buf, msg)
}

// readFrame decodes one frame from r into a buffer of its own: the sender
// bytes and the message bytes it returns are never written again, so the
// message decoded from them in place stays valid for the receiver. hdr is
// the caller's scratch for the length prefix.
func readFrame(r io.Reader, hdr *[4]byte) ([]byte, []byte, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, nil, err
	}
	total := binary.BigEndian.Uint32(hdr[:])
	if total < 2 || total > maxFrame {
		return nil, nil, errors.New("transport: bad frame length")
	}
	buf := make([]byte, total)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, nil, err
	}
	senderLen := int(binary.BigEndian.Uint16(buf))
	if 2+senderLen > len(buf) {
		return nil, nil, errors.New("transport: bad sender length")
	}
	return buf[2 : 2+senderLen], buf[2+senderLen:], nil
}
