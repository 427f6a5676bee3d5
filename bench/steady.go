package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"myraft/internal/cluster"
	"myraft/internal/multiraft"
	"myraft/internal/readpath"
	"myraft/internal/wire"
)

// keyState is what the benchmark knows about every key's latest value.
// Each entry is touched only by the key's single writer while the load
// runs, and read by the correctness gate after it has stopped.
type keyState struct {
	// lastSeq is the seq of the last acknowledged write (0: the preload).
	lastSeq []uint32
	// pending is the seq of a write that failed without an answer: the
	// key may hold either lastSeq or pending.
	pending []uint32
}

func newKeyState() *keyState {
	return &keyState{lastSeq: make([]uint32, keyCount), pending: make([]uint32, keyCount)}
}

// holds reports whether v is a value the key may hold now.
func (ks *keyState) holds(v []byte, key int) bool {
	if valueIs(v, key, ks.lastSeq[key]) {
		return true
	}
	return ks.pending[key] != 0 && valueIs(v, key, ks.pending[key])
}

const (
	phaseWarmup int32 = iota
	phaseMeasure
	phaseStop
)

// windowLen cuts the measured phase into windows. Latency percentiles are
// taken per window and reported as the median over the windows, so one
// stall (a collection, a slow election) moves one window's value and not
// the run's. The traced run also alternates the program's tracer on and
// off from one window to the next.
const windowLen = 2 * time.Second

// sample is one op's latency and the window it completed in (for a probe
// of the failover workload: fell due in).
type sample struct {
	d time.Duration
	w int
}

// load is the state the sessions of one steady run share.
type load struct {
	keys      *keyState
	spans     *spanLog
	followers map[wire.ShardID]wire.NodeID
	phase     atomic.Int32
	window    atomic.Int32
}

// session is one closed-loop client: it issues its next op only after the
// previous one returned.
type session struct {
	ld  *load
	cl  *multiraft.Client
	ops *opStream
	buf []byte

	lat               [numOpKinds][]sample
	attempted, failed int64
	wrongReads        int64
	complaints        int // failed ops reported on standard error so far
}

// opTimeout bounds one op; a steady workload never comes near it, so an
// op that does is counted as failed.
const opTimeout = 10 * time.Second

func (s *session) run(ctx context.Context) {
	for {
		ph := s.ld.phase.Load()
		if ph == phaseStop || ctx.Err() != nil {
			return
		}
		o := s.ops.next()
		start := time.Now()
		err := s.do(ctx, o)
		end := time.Now()
		if err != nil && ctx.Err() == nil && s.complaints < 3 {
			s.complaints++
			fmt.Fprintf(os.Stderr, "bench: session %d: %v\n", s.ops.session, err)
		}
		if ph != phaseMeasure || s.ld.phase.Load() != phaseMeasure {
			continue
		}
		s.attempted++
		if err != nil {
			s.failed++
			continue
		}
		s.lat[o.Kind] = append(s.lat[o.Kind], sample{end.Sub(start), int(s.ld.window.Load())})
		s.ld.spans.record(0, "client", opKindNames[o.Kind], start, end)
	}
}

func (s *session) do(ctx context.Context, o op) error {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	key := keyName(o.Key)
	ks := s.ld.keys
	if o.Kind == opWrite {
		_, err := s.cl.Write(ctx, key, fillValue(s.buf, o.Key, o.Seq))
		if err != nil {
			ks.pending[o.Key] = o.Seq
			return err
		}
		ks.lastSeq[o.Key], ks.pending[o.Key] = o.Seq, 0
		return nil
	}
	var res readpath.Result
	var err error
	switch o.Kind {
	case opReadLin:
		res, err = s.cl.ReadLinearizable(ctx, key)
	case opReadLease:
		res, err = s.cl.ReadLease(ctx, key)
	case opReadSession:
		res, err = s.cl.ReadSession(ctx, s.ld.followers[s.cl.ShardFor(key)], key)
	}
	if err != nil {
		return err
	}
	// The session is the key's only writer and waits for every ack, so
	// every level must return its latest write. The one exception: a
	// session read promises only the session's own writes, so a key the
	// session has not written yet may still lack its preloaded value at
	// the follower.
	if o.Kind == opReadSession && ks.lastSeq[o.Key] == 0 && !res.Found {
		return nil
	}
	if !res.Found || !ks.holds(res.Value, o.Key) {
		s.wrongReads++
		got := "nothing"
		if len(res.Value) >= 8 {
			got = fmt.Sprintf("key %d seq %d", binary.BigEndian.Uint32(res.Value), binary.BigEndian.Uint32(res.Value[4:]))
		}
		return fmt.Errorf("%s of %s at index %d returned %s, want seq %d (fellback=%v)", opKindNames[o.Kind], key, res.Index, got, ks.lastSeq[o.Key], res.FellBack)
	}
	return nil
}

// pickFollowers names, per shard, the MySQL member session reads go to: the
// first one that is not the shard's leader.
func pickFollowers(rt *multiraft.Runtime) map[wire.ShardID]wire.NodeID {
	out := make(map[wire.ShardID]wire.NodeID)
	for sh, ring := range rings(rt) {
		leader := ring.Leader()
		for _, m := range ring.Members() {
			if m.Spec.Kind == cluster.KindMySQL && (leader == nil || m.Spec.ID != leader.Spec.ID) {
				out[wire.ShardID(sh)] = m.Spec.ID
				break
			}
		}
	}
	return out
}

// steadyOutcome is the raw material of a steady run's metrics.
type steadyOutcome struct {
	before, after counters
	lat           [numOpKinds][]sample
	windows       int
	traced        bool
	lagSamples    []float64
	heapInuseMax  uint64
	attempted     int64
	failed        int64
	wrongReads    int64
}

// runSteady drives the closed-loop sessions: a discarded warm-up, then a
// measured phase of the given length, window by window. When tracing, the
// program's tracer is on in the even windows and off in the odd ones, so
// the traced and untraced throughput of one run can be compared.
func runSteady(ctx context.Context, s spec, rt *multiraft.Runtime, ks *keyState, seed int64, warm, measure time.Duration, spans *spanLog) steadyOutcome {
	ld := &load{keys: ks, spans: spans, followers: pickFollowers(rt)}
	sessions := make([]*session, sessionCount)
	var wg sync.WaitGroup
	for i := range sessions {
		sessions[i] = &session{
			ld: ld, cl: rt.NewClient(0),
			ops: newOpStream(seed, i, sessionCount, s.ReadPct),
			buf: make([]byte, valueSize),
		}
		wg.Add(1)
		go func(se *session) {
			defer wg.Done()
			se.run(ctx)
		}(sessions[i])
	}

	sleepCtx(ctx, warm)

	out := steadyOutcome{windows: max(1, int(measure/windowLen)), traced: spans != nil}
	each := measure / time.Duration(out.windows)

	stopSampler := func() {}
	if out.traced {
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			out.lagSamples, out.heapInuseMax = sampleFollowers(rt, stop)
		}()
		stopSampler = func() { close(stop); <-done }
	}

	out.before = readCounters(rt)
	ld.phase.Store(phaseMeasure)
	for w := 0; w < out.windows; w++ {
		ld.window.Store(int32(w))
		setTracing(rt, out.traced && w%2 == 0)
		sleepCtx(ctx, each)
	}
	ld.phase.Store(phaseStop)
	out.after = readCounters(rt)
	stopSampler()
	wg.Wait()

	for _, se := range sessions {
		for k := range se.lat {
			out.lat[k] = append(out.lat[k], se.lat[k]...)
		}
		out.attempted += se.attempted
		out.failed += se.failed
		out.wrongReads += se.wrongReads
	}
	return out
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// setTracing switches every member's write-path tracer on or off. Members
// of an untraced runtime have a nil tracer, on which the call does nothing.
func setTracing(rt *multiraft.Runtime, on bool) {
	every := uint64(0)
	if on {
		every = 1
	}
	for _, ring := range rings(rt) {
		for _, m := range ring.Members() {
			m.Tracer().SetSampleEvery(every)
		}
	}
}
