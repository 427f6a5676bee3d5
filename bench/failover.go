package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"myraft/internal/cluster"
	"myraft/internal/multiraft"
	"myraft/internal/wire"
)

// attemptTimeout bounds one probe attempt. A healthy commit on the paper
// topology takes about 4 ms and a crashed or demoted primary refuses at
// once, so only an attempt the ring never answers gets this far; it is
// retried like a refused one.
const attemptTimeout = 2 * time.Second

type probe struct {
	seq int
	due time.Time
}

// outage is one client-observed interval without service: from the due
// time of the first probe that was refused to the first ack after it.
type outage struct{ start, end time.Time }

// prober is the open-loop client of the failover workload. One probe
// write falls due every probeInterval whatever the ring is doing, and is
// timed from its due time, so a stall is charged to every probe it delays.
// A refused probe is kept and written again once service is back: while
// the ring is down a single canary (the oldest refused probe) is retried
// each tick, and its ack releases the rest. No probe is ever dropped.
type prober struct {
	cl    *multiraft.Client
	ks    *keyState
	order []int // key order, a seeded permutation walked cyclically

	wg sync.WaitGroup

	mu         sync.Mutex
	measuring  bool
	down       bool
	canaryBusy bool
	backlog    []probe
	open       time.Time // start of the outage in progress
	outages    []outage
	lastAckDue time.Time // latest due time among acked probes
	inFlight   int
	nextSeq    int

	issued, refusedFirst int64
	firstSeq             int // first probe of the measured phase
	lat                  []sample
	late                 []time.Duration
}

func newProber(rt *multiraft.Runtime, ks *keyState, seed int64) *prober {
	return &prober{cl: rt.NewClient(0), ks: ks, order: rand.New(rand.NewSource(seed)).Perm(keyCount)}
}

// run issues probes on schedule until stop closes, then waits until every
// issued probe has been acknowledged (or ctx ends).
func (p *prober) run(ctx context.Context, stop <-chan struct{}) {
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * probeInterval)
		timer.Reset(time.Until(due))
		select {
		case <-stop:
			p.finish(ctx)
			return
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		p.tick(ctx, probe{seq: i, due: due})
	}
}

func (p *prober) tick(ctx context.Context, pr probe) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextSeq = pr.seq + 1
	if p.measuring {
		p.issued++
		p.late = append(p.late, time.Since(pr.due))
	}
	p.inFlight++
	if !p.down {
		p.spawn(ctx, pr, true)
		return
	}
	if p.measuring {
		p.refusedFirst++
	}
	p.backlog = append(p.backlog, pr)
	p.launchCanaryLocked(ctx)
}

func (p *prober) launchCanaryLocked(ctx context.Context) {
	if p.canaryBusy || len(p.backlog) == 0 {
		return
	}
	oldest := 0
	for i, q := range p.backlog {
		if q.seq < p.backlog[oldest].seq {
			oldest = i
		}
	}
	canary := p.backlog[oldest]
	p.backlog = append(p.backlog[:oldest], p.backlog[oldest+1:]...)
	p.canaryBusy = true
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		ok := p.attempt(ctx, canary)
		p.mu.Lock()
		defer p.mu.Unlock()
		p.canaryBusy = false
		if !ok {
			p.backlog = append(p.backlog, canary)
			return
		}
		p.acked(canary)
		p.down = false
		p.outages = append(p.outages, outage{start: p.open, end: time.Now()})
		held := p.backlog
		p.backlog = nil
		for _, q := range held {
			p.spawn(ctx, q, false)
		}
	}()
}

// spawn writes one probe on its own goroutine. first marks the probe's
// first attempt, which is what the unavailable share counts.
func (p *prober) spawn(ctx context.Context, pr probe, first bool) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		ok := p.attempt(ctx, pr)
		p.mu.Lock()
		defer p.mu.Unlock()
		if ok {
			p.acked(pr)
			return
		}
		if first && p.measuring {
			p.refusedFirst++
		}
		if !p.down {
			p.down, p.open = true, pr.due
		} else if pr.due.Before(p.open) {
			p.open = pr.due
		}
		p.backlog = append(p.backlog, pr)
	}()
}

func (p *prober) attempt(ctx context.Context, pr probe) bool {
	ctx, cancel := context.WithTimeout(ctx, attemptTimeout)
	defer cancel()
	key := p.order[pr.seq%keyCount]
	buf := make([]byte, valueSize)
	_, err := p.cl.TryWrite(ctx, keyName(key), fillValue(buf, key, p.seqOf(pr)))
	if err != nil {
		// An unanswered write may still commit; until the retry is
		// acknowledged the key may hold either value.
		p.mu.Lock()
		p.ks.pending[key] = p.seqOf(pr)
		p.mu.Unlock()
	}
	return err == nil
}

// seqOf numbers a probe's write by how many times its key has come round.
func (p *prober) seqOf(pr probe) uint32 { return uint32(pr.seq/keyCount) + 1 }

// acked records an acknowledged probe. Caller holds mu.
func (p *prober) acked(pr probe) {
	p.inFlight--
	key := p.order[pr.seq%keyCount]
	if seq := p.seqOf(pr); seq > p.ks.lastSeq[key] {
		p.ks.lastSeq[key], p.ks.pending[key] = seq, 0
	}
	if pr.due.After(p.lastAckDue) {
		p.lastAckDue = pr.due
	}
	if p.measuring && pr.seq >= p.firstSeq {
		// A probe belongs to the window it fell due in.
		p.lat = append(p.lat, sample{time.Since(pr.due), (pr.seq - p.firstSeq) / int(windowLen/probeInterval)})
	}
}

// finish retries refused probes after the schedule has ended, so that
// every issued probe ends acknowledged. A ring that stays down past
// drainTimeout leaves them unacknowledged, which fails the run.
func (p *prober) finish(ctx context.Context) {
	ctx, cancel := context.WithTimeout(ctx, drainTimeout)
	defer cancel()
	for ctx.Err() == nil {
		p.mu.Lock()
		left := p.inFlight
		p.launchCanaryLocked(ctx)
		p.mu.Unlock()
		if left == 0 {
			break
		}
		sleepCtx(ctx, probeInterval)
	}
	p.wg.Wait()
}

// startMeasuring discards what the warm-up recorded.
func (p *prober) startMeasuring() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.measuring, p.firstSeq = true, p.nextSeq
	p.outages = nil
}

// awaitService blocks until a probe that fell due after t has been
// acknowledged with nothing held back, and returns the outages that ended
// since the given count.
func (p *prober) awaitService(ctx context.Context, t time.Time, since int) ([]outage, error) {
	for {
		p.mu.Lock()
		ok := !p.down && len(p.backlog) == 0 && p.lastAckDue.After(t)
		var got []outage
		if ok {
			got = append(got, p.outages[since:]...)
		}
		p.mu.Unlock()
		if ok {
			return got, nil
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("probes never resumed: %w", ctx.Err())
		}
		sleepCtx(ctx, time.Millisecond)
	}
}

func (p *prober) outageCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.outages)
}

func downtime(os []outage) time.Duration {
	var d time.Duration
	for _, o := range os {
		d += o.end.Sub(o.start)
	}
	return d
}

// failoverOutcome is the raw material of a failover run's metrics.
type failoverOutcome struct {
	before, after           counters
	lat                     []sample
	late                    []time.Duration
	issued, refusedFirst    int64
	unacked                 int
	crashDown, transferDown []time.Duration
	termBumps               []float64
	transferRetries         int
	problems                []string
}

const (
	// trialTimeout bounds one crash or transfer trial, recovery included.
	trialTimeout = 30 * time.Second
	// trialPeriod is the schedule of trials: one starts every period, a
	// crash and a transfer in turn, so every 2 s window opens with a crash
	// and holds one outage of each kind. A fixed schedule gives every run
	// the same count of trials and leaves most probes undelayed: per-probe
	// costs repeat, the median probe latency is the healthy commit latency,
	// and a window's tail is the crash outage it holds. A trial that
	// overruns its period delays only the next one.
	trialPeriod = time.Second
)

// runFailover alternates crash-the-primary and graceful-transfer trials
// under the prober for the measured time (Table 2's two Raft rows).
func runFailover(ctx context.Context, rt *multiraft.Runtime, ks *keyState, seed int64, warm, measure time.Duration, spans *spanLog) failoverOutcome {
	ring := rt.Shard(0)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	pr := newProber(rt, ks, seed)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		pr.run(ctx, stop)
	}()

	sleepCtx(ctx, warm)
	var out failoverOutcome
	out.before = readCounters(rt)
	pr.startMeasuring()
	begin := time.Now()

	// Every run makes at least one trial of each kind, however short.
	trials := max(2, int(measure/trialPeriod))
	for trial := 0; trial < trials && ctx.Err() == nil; trial++ {
		sleepCtx(ctx, time.Until(begin.Add(time.Duration(trial)*trialPeriod)))
		tctx, cancel := context.WithTimeout(ctx, trialTimeout)
		var err error
		if trial%2 == 0 {
			err = crashTrial(tctx, rt, ring, pr, spans, &out)
		} else {
			err = transferTrial(tctx, ring, pr, rng, spans, &out)
		}
		cancel()
		if err != nil {
			out.problems = append(out.problems, fmt.Sprintf("trial %d: %v", trial, err))
			break
		}
	}
	sleepCtx(ctx, time.Until(begin.Add(measure)))

	out.after = readCounters(rt)
	close(stop)
	<-done
	pr.mu.Lock()
	out.lat, out.late = pr.lat, pr.late
	out.issued, out.refusedFirst, out.unacked = pr.issued, pr.refusedFirst, pr.inFlight
	pr.mu.Unlock()
	return out
}

// crashTrial kills the primary, waits for a new one to be published and
// for probes to flow again, then restarts the victim and lets it catch up.
func crashTrial(ctx context.Context, rt *multiraft.Runtime, ring *cluster.Cluster, pr *prober, spans *spanLog, out *failoverOutcome) error {
	victim, err := ring.AnyPrimary(ctx)
	if err != nil {
		return err
	}
	id := victim.Spec.ID
	termBefore := victim.Node().Status().Term
	seen := pr.outageCount()

	tCrash := time.Now()
	if err := rt.Crash(id); err != nil {
		return err
	}
	next, err := ring.AnyPrimary(ctx)
	if err != nil {
		return fmt.Errorf("no primary after crashing %s: %w", id, err)
	}
	tPublished := time.Now()
	os, err := pr.awaitService(ctx, tPublished, seen)
	if err != nil {
		return err
	}
	tAcked := time.Now()

	out.crashDown = append(out.crashDown, downtime(os))
	out.termBumps = append(out.termBumps, float64(next.Node().Status().Term-termBefore))
	root := spans.record(0, "failover", "crash_trial", tCrash, tAcked)
	spans.record(root, "raft", "crash_to_new_primary_published", tCrash, tPublished)
	spans.record(root, "client", "published_to_first_probe_acked", tPublished, tAcked)

	if err := rt.Restart(id); err != nil {
		return err
	}
	return awaitCaughtUp(ctx, ring, id)
}

// transferTrial moves leadership gracefully to another MySQL voter.
func transferTrial(ctx context.Context, ring *cluster.Cluster, pr *prober, rng *rand.Rand, spans *spanLog, out *failoverOutcome) error {
	primary, err := ring.AnyPrimary(ctx)
	if err != nil {
		return err
	}
	var targets []wire.NodeID
	for _, m := range ring.Members() {
		if m.Spec.Kind == cluster.KindMySQL && m.Spec.Voter && m.Spec.ID != primary.Spec.ID {
			targets = append(targets, m.Spec.ID)
		}
	}
	target := targets[rng.Intn(len(targets))]
	seen := pr.outageCount()

	tStart := time.Now()
	// A mock election can refuse a target that is still catching up; the
	// refusal costs no downtime, so the trial tries again.
	for {
		if err = ring.TransferLeadership(target); err == nil {
			break
		}
		if ctx.Err() != nil {
			return fmt.Errorf("transfer to %s: %w", target, err)
		}
		out.transferRetries++
		sleepCtx(ctx, heartbeat)
	}
	if err := ring.WaitForPrimary(ctx, target); err != nil {
		return err
	}
	tPublished := time.Now()
	os, err := pr.awaitService(ctx, tPublished, seen)
	if err != nil {
		return err
	}
	tAcked := time.Now()

	out.transferDown = append(out.transferDown, downtime(os))
	root := spans.record(0, "failover", "transfer_trial", tStart, tAcked)
	spans.record(root, "raft", "transfer_to_new_primary_published", tStart, tPublished)
	spans.record(root, "client", "published_to_first_probe_acked", tPublished, tAcked)
	return awaitCaughtUp(ctx, ring, primary.Spec.ID)
}

// awaitCaughtUp waits until the member has applied everything the leader
// had committed when the wait began, so the next trial starts from a
// whole ring.
func awaitCaughtUp(ctx context.Context, ring *cluster.Cluster, id wire.NodeID) error {
	for ctx.Err() == nil {
		leader := ring.Leader()
		_, srv, up := ring.MySQLStack(id)
		if leader != nil && leader.Node() != nil && up {
			return srv.WaitForApplied(ctx, leader.Node().CommitIndex())
		}
		sleepCtx(ctx, time.Millisecond)
	}
	return fmt.Errorf("%s did not come back: %w", id, ctx.Err())
}
