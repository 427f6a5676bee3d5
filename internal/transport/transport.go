// Package transport provides the simulated network connecting replicaset
// members. It stands in for Meta's WAN in the paper's evaluation: links
// between nodes get latency drawn from their region pair (intra-region
// links are fast, cross-region links cost tens of milliseconds), messages
// are really serialized with the wire codec so byte accounting is exact,
// and the harness can inject partitions and node crashes.
//
// Delivery preserves per-link FIFO order, like a TCP connection: each
// ordered (from, to) pair gets a dedicated queue goroutine that sleeps
// until a message's delivery time and then hands it to the destination
// inbox.
package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"myraft/internal/clock"
	"myraft/internal/wire"
)

// Config sets the latency model and queue sizes.
type Config struct {
	// IntraRegion is the one-way latency between distinct nodes in the
	// same region (default 100µs).
	IntraRegion time.Duration
	// CrossRegion is the one-way latency between nodes in different
	// regions (default 30ms).
	CrossRegion time.Duration
	// Loopback is the latency of a node sending to itself (default 5µs).
	Loopback time.Duration
	// Jitter is the maximum fractional latency perturbation (default 0.1,
	// i.e. each message takes latency * uniform[1, 1.1]).
	Jitter float64
	// InboxSize is the per-endpoint buffered inbox capacity (default
	// 8192). Messages to a full inbox are dropped, like a saturated
	// socket buffer; Raft tolerates and retries.
	InboxSize int
	// Seed seeds the jitter source; 0 derives a fixed default so runs are
	// reproducible.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.IntraRegion == 0 {
		c.IntraRegion = 100 * time.Microsecond
	}
	if c.CrossRegion == 0 {
		c.CrossRegion = 30 * time.Millisecond
	}
	if c.Loopback == 0 {
		c.Loopback = 5 * time.Microsecond
	}
	if c.InboxSize == 0 {
		c.InboxSize = 8192
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Scale divides every latency in the config by f, for time-scaled
// experiment runs.
func (c Config) Scale(f float64) Config {
	scale := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) / f)
	}
	c.IntraRegion = scale(c.IntraRegion)
	c.CrossRegion = scale(c.CrossRegion)
	c.Loopback = scale(c.Loopback)
	return c
}

// Envelope is a delivered message with its metered size.
type Envelope struct {
	From wire.NodeID
	To   wire.NodeID
	Msg  wire.Message
	Size int // encoded size in bytes
}

type linkKey struct{ from, to wire.NodeID }

type regionPair struct{ from, to wire.Region }

// LinkStats summarizes traffic over one directed region pair.
type LinkStats struct {
	Messages int64
	Bytes    int64
}

// Stats is a snapshot of network traffic counters.
type Stats struct {
	// ByRegionPair maps directed (from-region, to-region) pairs to
	// traffic. Cross-region rows are the paper's "cross regional network
	// bandwidth" (§4.2).
	ByRegionPair map[[2]wire.Region]LinkStats
	// SentByNode maps each node to the bytes it transmitted, exposing
	// leader hotspots.
	SentByNode map[wire.NodeID]int64
	// Dropped counts messages lost to partitions, down nodes and full
	// inboxes.
	Dropped int64
}

// CrossRegionBytes sums bytes over all pairs with distinct regions.
func (s Stats) CrossRegionBytes() int64 {
	var n int64
	for pair, ls := range s.ByRegionPair {
		if pair[0] != pair[1] {
			n += ls.Bytes
		}
	}
	return n
}

// TotalBytes sums bytes over all pairs.
func (s Stats) TotalBytes() int64 {
	var n int64
	for _, ls := range s.ByRegionPair {
		n += ls.Bytes
	}
	return n
}

// Network is the in-process message fabric. All methods are safe for
// concurrent use.
type Network struct {
	cfg Config
	clk clock.Clock

	mu        sync.Mutex
	rng       *rand.Rand
	endpoints map[wire.NodeID]*Endpoint
	regions   map[wire.NodeID]wire.Region
	links     map[linkKey]*link
	latOver   map[linkKey]time.Duration
	bwOver    map[linkKey]int64 // bytes/sec; 0 = unlimited
	blocked   map[linkKey]bool
	down      map[wire.NodeID]bool
	byPair    map[regionPair]*LinkStats
	sentBy    map[wire.NodeID]int64
	dropped   int64
	closed    bool
	wg        sync.WaitGroup
}

// New creates a network with the given latency model.
func New(cfg Config, clk clock.Clock) *Network {
	cfg = cfg.withDefaults()
	if clk == nil {
		clk = clock.Real()
	}
	return &Network{
		cfg:       cfg,
		clk:       clk,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		endpoints: make(map[wire.NodeID]*Endpoint),
		regions:   make(map[wire.NodeID]wire.Region),
		links:     make(map[linkKey]*link),
		latOver:   make(map[linkKey]time.Duration),
		bwOver:    make(map[linkKey]int64),
		blocked:   make(map[linkKey]bool),
		down:      make(map[wire.NodeID]bool),
		byPair:    make(map[regionPair]*LinkStats),
		sentBy:    make(map[wire.NodeID]int64),
	}
}

// Endpoint is one node's attachment to the network.
type Endpoint struct {
	id    wire.NodeID
	net   *Network
	inbox chan Envelope
}

// Register attaches a node to the network. Registering an existing ID
// replaces its endpoint (a restarted process).
func (n *Network) Register(id wire.NodeID, region wire.Region) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	ep := &Endpoint{id: id, net: n, inbox: make(chan Envelope, n.cfg.InboxSize)}
	n.endpoints[id] = ep
	n.regions[id] = region
	delete(n.down, id)
	return ep
}

// Region returns the registered region of a node.
func (n *Network) Region(id wire.NodeID) wire.Region {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.regions[id]
}

// Recv returns the endpoint's delivery channel.
func (e *Endpoint) Recv() <-chan Envelope { return e.inbox }

// ID returns the endpoint's node ID.
func (e *Endpoint) ID() wire.NodeID { return e.id }

// Send transmits msg from this endpoint.
func (e *Endpoint) Send(to wire.NodeID, msg wire.Message) error {
	return e.net.Send(e.id, to, msg)
}

// scheduled is one in-flight message.
type scheduled struct {
	env       Envelope
	deliverAt time.Time
}

// link is the FIFO delivery queue for one directed node pair.
type link struct {
	queue chan scheduled
	// nextFree is when a bandwidth-capped link finishes serializing the
	// last accepted message; subsequent messages queue behind it.
	nextFree time.Time
}

// Send serializes and transmits a message. Encoding errors are returned;
// network-level losses (partitions, down nodes, overflow) are silent, as
// on a real network.
//
// Ownership: Send captures msg before it returns, so a sender may reuse
// the message and every buffer it points at afterwards — except the bytes
// that are already frames. A *wire.Frame's Data and the shard frames
// (*wire.ShardEnvelope, *wire.CoalescedHeartbeat, handed over whole) are
// delivered as they are, and nobody writes a frame once sent: the sender
// must not touch them again, and the receiver, whose decoded message
// points into them (wire.Unmarshal decodes in place), must not write to
// them either.
func (n *Network) Send(from, to wire.NodeID, msg wire.Message) error {
	copyMsg, size, err := capture(msg)
	if err != nil {
		return err
	}

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	if n.down[from] {
		n.dropped++
		n.mu.Unlock()
		return nil
	}
	pair := regionPair{n.regions[from], n.regions[to]}
	st := n.byPair[pair]
	if st == nil {
		st = &LinkStats{}
		n.byPair[pair] = st
	}
	st.Messages++
	st.Bytes += int64(size)
	n.sentBy[from] += int64(size)

	key := linkKey{from, to}
	lk := n.links[key]
	if lk == nil {
		lk = &link{queue: make(chan scheduled, 4*n.cfg.InboxSize)}
		n.links[key] = lk
		n.wg.Add(1)
		go n.runLink(lk)
	}
	lat := n.latencyLocked(from, to)
	now := n.clk.Now()
	deliverAt := now.Add(lat)
	if bw := n.bwOver[key]; bw > 0 {
		// Bandwidth-limited link: messages serialize one after another at
		// size/bandwidth each. Small control messages (votes, heartbeats)
		// cross almost unaffected when the link is idle; bulky
		// replication batches congest it and everything behind them
		// queues — the "unhealthy host" model of §4.3.
		xmit := time.Duration(float64(size) / float64(bw) * float64(time.Second))
		start := now
		if lk.nextFree.After(start) {
			start = lk.nextFree
		}
		lk.nextFree = start.Add(xmit)
		deliverAt = lk.nextFree.Add(lat)
	}
	item := scheduled{
		env:       Envelope{From: from, To: to, Msg: copyMsg, Size: size},
		deliverAt: deliverAt,
	}
	select {
	case lk.queue <- item:
	default:
		n.dropped++ // link queue overflow
	}
	n.mu.Unlock()
	return nil
}

// capture returns the message the receiver gets and its encoded size.
// Ordinary messages go through the codec, so the receiver's message shares
// no memory with the sender's, exactly as on a real network; a Frame is
// decoded from the bytes it was encoded into once for all its receivers.
// A shard frame is already wire bytes that only this send holds, so the
// receiver gets the frame itself, metered at the size the codec would
// have produced, not a second encode and decode of every sharded message.
func capture(msg wire.Message) (wire.Message, int, error) {
	var data []byte
	switch m := msg.(type) {
	case *wire.ShardEnvelope, *wire.CoalescedHeartbeat:
		return msg, msg.EncodedSize(), nil
	case *wire.Frame:
		data = m.Data
	default:
		var err error
		if data, err = wire.Marshal(msg); err != nil {
			return nil, 0, fmt.Errorf("transport: %w", err)
		}
	}
	cp, err := wire.Unmarshal(data)
	if err != nil {
		return nil, 0, fmt.Errorf("transport: self-check: %w", err)
	}
	return cp, len(data), nil
}

// latencyLocked computes the one-way latency for a send, with jitter.
func (n *Network) latencyLocked(from, to wire.NodeID) time.Duration {
	var base time.Duration
	if d, ok := n.latOver[linkKey{from, to}]; ok {
		base = d
	} else if from == to {
		base = n.cfg.Loopback
	} else if n.regions[from] == n.regions[to] {
		base = n.cfg.IntraRegion
	} else {
		base = n.cfg.CrossRegion
	}
	if n.cfg.Jitter > 0 {
		base += time.Duration(n.rng.Float64() * n.cfg.Jitter * float64(base))
	}
	return base
}

// runLink drains one link queue in FIFO order, sleeping until each
// message's delivery time.
func (n *Network) runLink(lk *link) {
	defer n.wg.Done()
	for item := range lk.queue {
		if wait := item.deliverAt.Sub(n.clk.Now()); wait > 0 {
			n.clk.Sleep(wait)
		}
		n.deliver(item.env)
	}
}

// deliver hands the envelope to the destination inbox, applying
// partition/down checks at arrival time.
func (n *Network) deliver(env Envelope) {
	n.mu.Lock()
	if n.closed || n.down[env.From] || n.down[env.To] ||
		n.blocked[linkKey{env.From, env.To}] {
		n.dropped++
		n.mu.Unlock()
		return
	}
	ep := n.endpoints[env.To]
	if ep == nil {
		n.dropped++
		n.mu.Unlock()
		return
	}
	inbox := ep.inbox
	n.mu.Unlock()

	select {
	case inbox <- env:
	default:
		n.mu.Lock()
		n.dropped++
		n.mu.Unlock()
	}
}

// Partition blocks messages in both directions between a and b.
func (n *Network) Partition(a, b wire.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[linkKey{a, b}] = true
	n.blocked[linkKey{b, a}] = true
}

// PartitionOneWay blocks only the from→to direction, the asymmetric
// partition of the chaos harness: to still reaches from, but nothing
// flows back. HealAll (or Heal of the pair) removes it.
func (n *Network) PartitionOneWay(from, to wire.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[linkKey{from, to}] = true
}

// Heal unblocks both directions between a and b.
func (n *Network) Heal(a, b wire.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocked, linkKey{a, b})
	delete(n.blocked, linkKey{b, a})
}

// IsolateRegion blocks all links crossing the boundary of region r, the
// full-region partition scenario of §4.1.
func (n *Network) IsolateRegion(r wire.Region) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for a, ra := range n.regions {
		for b, rb := range n.regions {
			if (ra == r) != (rb == r) {
				n.blocked[linkKey{a, b}] = true
			}
		}
	}
}

// HealAll removes every partition.
func (n *Network) HealAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked = make(map[linkKey]bool)
}

// SetNodeDown marks a node crashed (true) or back up (false). A down node
// neither sends nor receives.
func (n *Network) SetNodeDown(id wire.NodeID, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if down {
		n.down[id] = true
	} else {
		delete(n.down, id)
	}
}

// SetLinkLatency overrides the latency of the directed link from→to.
func (n *Network) SetLinkLatency(from, to wire.NodeID, d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.latOver[linkKey{from, to}] = d
}

// SetLinkBandwidth caps the directed link from→to at bytesPerSec:
// delivery is delayed by size/bandwidth on top of the link latency.
// Zero removes the cap.
func (n *Network) SetLinkBandwidth(from, to wire.NodeID, bytesPerSec int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if bytesPerSec <= 0 {
		delete(n.bwOver, linkKey{from, to})
		return
	}
	n.bwOver[linkKey{from, to}] = bytesPerSec
}

// ClearLinkLatency removes a latency override.
func (n *Network) ClearLinkLatency(from, to wire.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.latOver, linkKey{from, to})
}

// Stats returns a snapshot of the traffic counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := Stats{
		ByRegionPair: make(map[[2]wire.Region]LinkStats, len(n.byPair)),
		SentByNode:   make(map[wire.NodeID]int64, len(n.sentBy)),
		Dropped:      n.dropped,
	}
	for pair, ls := range n.byPair {
		s.ByRegionPair[[2]wire.Region{pair.from, pair.to}] = *ls
	}
	for id, b := range n.sentBy {
		s.SentByNode[id] = b
	}
	return s
}

// ResetStats zeroes the traffic counters (used between experiment phases).
func (n *Network) ResetStats() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.byPair = make(map[regionPair]*LinkStats)
	n.sentBy = make(map[wire.NodeID]int64)
	n.dropped = 0
}

// Close shuts the network down, terminating link goroutines. Messages
// still in flight are discarded.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	links := n.links
	n.links = make(map[linkKey]*link)
	n.mu.Unlock()
	for _, lk := range links {
		close(lk.queue)
	}
	n.wg.Wait()
}
