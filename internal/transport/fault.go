package transport

import (
	"math/rand"
	"sync"
	"time"

	"myraft/internal/clock"
	"myraft/internal/wire"
)

// Transport is the node-facing slice of the network: what a Raft node
// needs to talk to its peers. *Endpoint satisfies it, and fault-injection
// wrappers (Fault below) decorate it without the consensus core noticing.
type Transport interface {
	Send(to wire.NodeID, msg wire.Message) error
	Recv() <-chan Envelope
}

// FaultStats is a snapshot of one Fault wrapper's injection counters.
type FaultStats struct {
	// Dropped counts messages silently discarded by the drop rule or an
	// outbound block.
	Dropped int64
	// Delayed counts messages held back by the delay rule before delivery.
	Delayed int64
	// Duplicated counts extra copies injected by the duplicate rule.
	Duplicated int64
}

// Fault wraps a Transport and applies seeded-random fault rules to every
// outbound message: probabilistic drops, probabilistic delays (which also
// reorder, since undelayed traffic overtakes the held message on the
// underlying FIFO link), probabilistic duplication, and per-peer outbound
// blocks (the asymmetric half of a network partition — the victim can
// hear the peer but not reach it).
//
// All rules are runtime-mutable and safe for concurrent use. Heal clears
// every rule and flushes held messages immediately, so a healed transport
// has no stuck messages and no lingering delivery goroutines — the chaos
// harness relies on that to return a cluster to a clean network before
// checking convergence invariants.
type Fault struct {
	inner Transport
	clk   clock.Clock

	mu       sync.Mutex
	rng      *rand.Rand
	dropP    float64
	delayP   float64
	delayMax time.Duration
	dupP     float64
	blocked  map[wire.NodeID]bool
	// flush is closed by Heal to release in-flight delayed messages; each
	// delayed sender captures the channel current at send time.
	flush   chan struct{}
	pending int
	wg      sync.WaitGroup

	dropped    int64
	delayed    int64
	duplicated int64
}

// NewFault wraps inner with a fault injector whose randomness is derived
// from seed. A nil clk uses the real clock.
func NewFault(inner Transport, seed int64, clk clock.Clock) *Fault {
	if clk == nil {
		clk = clock.Real()
	}
	return &Fault{
		inner:   inner,
		clk:     clk,
		rng:     rand.New(rand.NewSource(seed)),
		blocked: make(map[wire.NodeID]bool),
		flush:   make(chan struct{}),
	}
}

// SetDrop sets the probability in [0,1] that an outbound message is
// silently discarded.
func (f *Fault) SetDrop(p float64) {
	f.mu.Lock()
	f.dropP = p
	f.mu.Unlock()
}

// SetDelay makes each outbound message wait a uniform random duration in
// (0, max] with probability p before entering the network. Because the
// underlying link is FIFO, held messages are overtaken by later traffic —
// this is the reorder rule as well.
func (f *Fault) SetDelay(p float64, max time.Duration) {
	f.mu.Lock()
	f.delayP = p
	f.delayMax = max
	f.mu.Unlock()
}

// SetDuplicate sets the probability that an outbound message is sent
// twice.
func (f *Fault) SetDuplicate(p float64) {
	f.mu.Lock()
	f.dupP = p
	f.mu.Unlock()
}

// Block discards all outbound traffic to the given peers until Unblock or
// Heal. Combined with an untouched reverse direction this models an
// asymmetric partition.
func (f *Fault) Block(peers ...wire.NodeID) {
	f.mu.Lock()
	for _, p := range peers {
		f.blocked[p] = true
	}
	f.mu.Unlock()
}

// Unblock restores outbound traffic to the given peers.
func (f *Fault) Unblock(peers ...wire.NodeID) {
	f.mu.Lock()
	for _, p := range peers {
		delete(f.blocked, p)
	}
	f.mu.Unlock()
}

// Heal clears every rule, releases all held messages for immediate
// delivery, and waits for their delivery goroutines to finish. After Heal
// returns the wrapper is a transparent pass-through with nothing in
// flight.
func (f *Fault) Heal() {
	f.mu.Lock()
	f.dropP, f.delayP, f.dupP = 0, 0, 0
	f.delayMax = 0
	f.blocked = make(map[wire.NodeID]bool)
	close(f.flush)
	f.flush = make(chan struct{})
	f.mu.Unlock()
	f.wg.Wait()
}

// Pending returns the number of messages currently held by the delay
// rule.
func (f *Fault) Pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pending
}

// Stats snapshots the injection counters.
func (f *Fault) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FaultStats{Dropped: f.dropped, Delayed: f.delayed, Duplicated: f.duplicated}
}

// Send applies the fault rules to one outbound message.
func (f *Fault) Send(to wire.NodeID, msg wire.Message) error {
	f.mu.Lock()
	if f.blocked[to] {
		f.dropped++
		f.mu.Unlock()
		return nil
	}
	if f.dropP > 0 && f.rng.Float64() < f.dropP {
		f.dropped++
		f.mu.Unlock()
		return nil
	}
	dup := f.dupP > 0 && f.rng.Float64() < f.dupP
	var delay time.Duration
	if f.delayP > 0 && f.delayMax > 0 && f.rng.Float64() < f.delayP {
		delay = time.Duration(f.rng.Int63n(int64(f.delayMax))) + 1
	}
	if dup {
		f.duplicated++
	}
	if delay > 0 {
		// The transport contract is that Send captures the message
		// synchronously — senders reuse their entry buffers the moment
		// Send returns (see sendAppend's scratch batching). A delayed
		// delivery must therefore snapshot the message NOW and deliver
		// the decoded copy later; holding the caller's pointer across
		// the delay would hand the receiver a buffer the sender is
		// concurrently rewriting.
		data, err := wire.Marshal(msg)
		if err != nil {
			// Unencodable message: don't hold a live pointer; deliver
			// it undelayed instead.
			f.mu.Unlock()
			return f.inner.Send(to, msg)
		}
		f.delayed++
		f.pending++
		flush := f.flush
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			select {
			case <-f.clk.After(delay):
			case <-flush:
			}
			if cp, err := wire.Unmarshal(data); err == nil {
				f.inner.Send(to, cp)
			}
			f.mu.Lock()
			f.pending--
			f.mu.Unlock()
		}()
		f.mu.Unlock()
		if dup {
			// The duplicate crosses immediately while the original is held:
			// the receiver sees the copy first, then the original — both
			// duplication and reordering in one fault.
			return f.inner.Send(to, msg)
		}
		return nil
	}
	f.mu.Unlock()
	err := f.inner.Send(to, msg)
	if dup {
		f.inner.Send(to, msg)
	}
	return err
}

// Recv passes through to the wrapped transport's delivery channel.
func (f *Fault) Recv() <-chan Envelope { return f.inner.Recv() }

// Flush forwards raft's optional urgent flush (a ReadIndex round asks a
// heartbeat-buffering ShardPort to ship now), so a fault-wrapped port
// serves reads at the cadence production does, not at the flush tick.
func (f *Fault) Flush() {
	if fl, ok := f.inner.(interface{ Flush() }); ok {
		fl.Flush()
	}
}
