package transport

// demux.go multiplexes many raft rings (shards) over one network endpoint
// per node. Each shard's raft node talks to a ShardPort, which wraps
// outbound messages in a wire.ShardEnvelope and surfaces inbound ones from
// a per-shard inbox; one dispatch goroutine per Demux unpacks arriving
// envelopes and coalesced heartbeats and routes them to the right port.
//
// Heartbeat coalescing (DESIGN.md §8): an outgoing AppendEntriesReq with
// no entries and no proxy route is a pure heartbeat. Instead of sending it
// immediately, the port buffers it per (peer, shard) — latest wins, which
// is safe because a follower echoing ReadSeq s acknowledges every round
// ≤ s — and a single flusher goroutine per Demux ships one physical
// wire.CoalescedHeartbeat per peer per flush interval, carrying every
// buffered shard's heartbeat. O(shards × peers) heartbeat messages become
// O(peers). Entries-bearing appends, votes, snapshot chunks and responses
// bypass the buffer and cross immediately, and a heartbeat round that
// ReadIndex callers are waiting on flushes the buffer at once
// (ShardPort.Flush).

import (
	"slices"
	"sync"
	"time"

	"myraft/internal/clock"
	"myraft/internal/wire"
)

// DemuxConfig tunes one node's shard demultiplexer.
type DemuxConfig struct {
	// FlushInterval is the heartbeat-coalescing cadence: how often buffered
	// per-shard heartbeats are shipped as one CoalescedHeartbeat per peer.
	// It should match the rings' HeartbeatInterval — the flusher then adds
	// at most one interval of heartbeat delay, well inside the ≥3-interval
	// election timeout. Zero disables coalescing (heartbeats pass through
	// individually, each in its own ShardEnvelope).
	FlushInterval time.Duration
	// PortBuffer is the per-shard inbox capacity (default 4096). A full
	// port drops, like a saturated socket; raft retries.
	PortBuffer int
}

func (c DemuxConfig) withDefaults() DemuxConfig {
	if c.PortBuffer == 0 {
		c.PortBuffer = 4096
	}
	return c
}

// DemuxStats is a snapshot of one demux's traffic counters.
type DemuxStats struct {
	// CoalescedFlushes counts physical CoalescedHeartbeat messages sent,
	// per destination peer — the coalescing test asserts this grows by one
	// per peer per interval no matter how many shards are hosted.
	CoalescedFlushes map[wire.NodeID]int64 `json:"coalesced_flushes"`
	// CoalescedItems counts shard heartbeats carried inside those messages
	// (the fan-out numerator: items/flushes = shards piggybacked per send).
	CoalescedItems int64 `json:"coalesced_items" metric:"multiraft_hb_coalesced_items"`
	// CoalescedRecvs counts CoalescedHeartbeat messages received.
	CoalescedRecvs int64 `json:"coalesced_recvs"`
	// DirectSends counts non-coalesced messages sent in ShardEnvelopes.
	DirectSends int64 `json:"direct_sends"`
	// UnknownShardDrops counts inbound messages addressed to a shard this
	// node does not host — any nonzero value means cross-shard leakage.
	UnknownShardDrops int64 `json:"unknown_shard_drops" metric:"multiraft_shard_unknown_drops"`
	// DecodeDrops counts inbound envelopes whose inner bytes failed to
	// parse, and stray messages that were not shard-framed at all.
	DecodeDrops int64 `json:"decode_drops"`
	// InboxDrops counts messages lost to a full shard port.
	InboxDrops int64 `json:"inbox_drops"`
}

// Demux multiplexes every shard hosted by one node over that node's
// single network endpoint. Safe for concurrent use.
type Demux struct {
	ep  *Endpoint
	cfg DemuxConfig
	clk clock.Clock

	mu      sync.Mutex
	ports   map[wire.ShardID]*ShardPort
	hbBuf   map[wire.NodeID]map[wire.ShardID][]byte
	flushes map[wire.NodeID]int64
	items   int64
	recvs   int64
	direct  int64
	unknown int64
	decode  int64
	inbox   int64
	closed  bool

	done chan struct{}
	wg   sync.WaitGroup
}

// NewDemux attaches a demultiplexer to a node's endpoint and starts its
// dispatch (and, when coalescing is enabled, flusher) goroutines. The
// Demux owns the endpoint's Recv channel from here on.
func NewDemux(ep *Endpoint, clk clock.Clock, cfg DemuxConfig) *Demux {
	if clk == nil {
		clk = clock.Real()
	}
	d := &Demux{
		ep:      ep,
		cfg:     cfg.withDefaults(),
		clk:     clk,
		ports:   make(map[wire.ShardID]*ShardPort),
		hbBuf:   make(map[wire.NodeID]map[wire.ShardID][]byte),
		flushes: make(map[wire.NodeID]int64),
		done:    make(chan struct{}),
	}
	d.wg.Add(1)
	go d.dispatchLoop()
	if d.cfg.FlushInterval > 0 {
		d.wg.Add(1)
		go d.flushLoop()
	}
	return d
}

// ID returns the underlying endpoint's node ID.
func (d *Demux) ID() wire.NodeID { return d.ep.ID() }

// Shard returns the port for one shard, creating it on first use. Ports
// must exist before the shard's traffic arrives; multiraft creates every
// port up front.
func (d *Demux) Shard(id wire.ShardID) *ShardPort {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.ports[id]
	if p == nil {
		p = &ShardPort{
			d:     d,
			shard: id,
			inbox: make(chan Envelope, d.cfg.PortBuffer),
		}
		d.ports[id] = p
	}
	return p
}

// Stats snapshots the demux counters.
func (d *Demux) Stats() DemuxStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := DemuxStats{
		CoalescedFlushes:  make(map[wire.NodeID]int64, len(d.flushes)),
		CoalescedItems:    d.items,
		CoalescedRecvs:    d.recvs,
		DirectSends:       d.direct,
		UnknownShardDrops: d.unknown,
		DecodeDrops:       d.decode,
		InboxDrops:        d.inbox,
	}
	for id, n := range d.flushes {
		s.CoalescedFlushes[id] = n
	}
	return s
}

// Close stops the dispatch and flusher goroutines. Buffered heartbeats
// are discarded — the process is going away with every shard it hosts.
func (d *Demux) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.mu.Unlock()
	close(d.done)
	d.wg.Wait()
}

// dispatchLoop unpacks arriving envelopes and routes them to shard ports.
func (d *Demux) dispatchLoop() {
	defer d.wg.Done()
	for {
		select {
		case <-d.done:
			return
		case env := <-d.ep.Recv():
			d.dispatch(env)
		}
	}
}

func (d *Demux) dispatch(env Envelope) {
	switch msg := env.Msg.(type) {
	case *wire.ShardEnvelope:
		inner, err := wire.Unmarshal(msg.Inner)
		if err != nil {
			d.count(&d.decode)
			return
		}
		d.deliver(msg.Shard, Envelope{From: env.From, To: env.To, Msg: inner, Size: len(msg.Inner)})
	case *wire.CoalescedHeartbeat:
		d.count(&d.recvs)
		for _, it := range msg.Items {
			inner, err := wire.Unmarshal(it.Req)
			if err != nil {
				d.count(&d.decode)
				continue
			}
			d.deliver(it.Shard, Envelope{From: env.From, To: env.To, Msg: inner, Size: len(it.Req)})
		}
	default:
		// Not shard-framed: a single-ring sender leaked onto a multiplexed
		// endpoint. Drop; rings must not see each other's raw traffic.
		d.count(&d.decode)
	}
}

// deliver hands one unpacked message to its shard's port.
func (d *Demux) deliver(shard wire.ShardID, env Envelope) {
	d.mu.Lock()
	p := d.ports[shard]
	if p == nil {
		d.unknown++
		d.mu.Unlock()
		return
	}
	d.mu.Unlock()
	select {
	case p.inbox <- env:
	default:
		d.count(&d.inbox)
	}
}

func (d *Demux) count(field *int64) {
	d.mu.Lock()
	*field++
	d.mu.Unlock()
}

// flushLoop ships buffered heartbeats: one CoalescedHeartbeat per peer
// per interval, regardless of how many shards buffered one.
func (d *Demux) flushLoop() {
	defer d.wg.Done()
	tk := d.clk.NewTicker(d.cfg.FlushInterval)
	defer tk.Stop()
	for {
		select {
		case <-d.done:
			return
		case <-tk.C():
			d.Flush()
		}
	}
}

// Flush ships all buffered per-shard heartbeats now: still one
// CoalescedHeartbeat per peer carrying every buffered shard. The ticker
// calls it once per interval; a shard whose broadcast opened a ReadIndex
// round calls it at once through its port, and tests use it for
// deterministic flush points.
func (d *Demux) Flush() {
	d.mu.Lock()
	if len(d.hbBuf) == 0 {
		d.mu.Unlock()
		return
	}
	buf := d.hbBuf
	d.hbBuf = make(map[wire.NodeID]map[wire.ShardID][]byte)
	peers := make([]wire.NodeID, 0, len(buf))
	for to := range buf {
		peers = append(peers, to)
	}
	d.mu.Unlock()
	slices.Sort(peers)

	for _, to := range peers {
		byShard := buf[to]
		shards := make([]wire.ShardID, 0, len(byShard))
		for s := range byShard {
			shards = append(shards, s)
		}
		slices.Sort(shards)
		msg := &wire.CoalescedHeartbeat{Items: make([]wire.ShardHeartbeat, 0, len(shards))}
		for _, s := range shards {
			msg.Items = append(msg.Items, wire.ShardHeartbeat{Shard: s, Req: byShard[s]})
		}
		if err := d.ep.Send(to, msg); err != nil {
			continue
		}
		d.mu.Lock()
		d.flushes[to]++
		d.items += int64(len(msg.Items))
		d.mu.Unlock()
	}
}

// ShardPort is one shard's view of the multiplexed endpoint. It satisfies
// the raft Transport interface (Send + Recv).
type ShardPort struct {
	d     *Demux
	shard wire.ShardID
	inbox chan Envelope
}

// Shard returns the port's shard ID.
func (p *ShardPort) Shard() wire.ShardID { return p.shard }

// Recv returns the shard's delivery channel.
func (p *ShardPort) Recv() <-chan Envelope { return p.inbox }

// Flush ships the node's buffered heartbeats now (Demux.Flush). Raft
// probes its transport for it when a broadcast opened a ReadIndex round:
// readers are parked on that round's quorum, so it must not sit in the
// buffer until the next FlushInterval tick. It runs on the caller's raft
// event loop and cannot block it: the endpoint under a Demux is the
// in-process Network, whose Send only queues onto a link (and the TCP
// transport's Send likewise only queues a frame for its per-peer sender
// goroutine, dropping when that queue is full).
func (p *ShardPort) Flush() { p.d.Flush() }

// Send transmits one shard-framed message. Pure heartbeats (empty
// AppendEntriesReq, no proxy route) are buffered for the next coalesced
// flush when coalescing is on; everything else crosses immediately in a
// ShardEnvelope.
//
// A *wire.Frame's bytes become the envelope's Inner as they are, shared by
// every peer the frame goes to (frames are immutable once sent, see
// Network.Send).
func (p *ShardPort) Send(to wire.NodeID, msg wire.Message) error {
	d := p.d
	var inner []byte
	if f, ok := msg.(*wire.Frame); ok {
		inner = f.Data
	} else {
		var err error
		if inner, err = wire.Marshal(msg); err != nil {
			return err
		}
	}
	if d.cfg.FlushInterval > 0 {
		if req, ok := wire.Unwrap(msg).(*wire.AppendEntriesReq); ok && len(req.Entries) == 0 && len(req.Route) == 0 {
			d.mu.Lock()
			if !d.closed {
				m := d.hbBuf[to]
				if m == nil {
					m = make(map[wire.ShardID][]byte)
					d.hbBuf[to] = m
				}
				// Latest wins: a follower echoing ReadSeq s acks every
				// round ≤ s, so dropping the older buffered round is safe.
				m[p.shard] = inner
			}
			d.mu.Unlock()
			return nil
		}
	}
	d.count(&d.direct)
	return d.ep.Send(to, &wire.ShardEnvelope{Shard: p.shard, Inner: inner})
}
