package chaos

import (
	"fmt"
	"strings"

	"myraft/internal/metrics"
	"myraft/internal/trace"
)

// Stats aggregates one chaos run's fault-injection and workload
// counters through internal/metrics, so a failing seed's report shows
// what the schedule actually did to the cluster (a schedule line saying
// "drop p=0.3" is only meaningful next to how many messages that rule
// ate).
type Stats struct {
	// Fault injection.
	Crashes     metrics.Counter
	Restarts    metrics.Counter // recoveries observed (scheduled + final heal)
	Partitions  metrics.Counter // symmetric + asymmetric partitions applied
	NetHeals    metrics.Counter
	FaultRules  metrics.Counter // drop/delay/duplicate rule changes
	FsyncStalls metrics.Counter
	FsyncFails  metrics.Counter
	SkewChanges metrics.Counter
	Purges      metrics.Counter // purge rounds that actually advanced a ring's floor
	Splits      metrics.Counter // online shard splits completed
	RowsMoved   metrics.Counter // rows those splits copied to their new rings

	// Message-level effects, aggregated over every transport.Fault
	// wrapper the run created (one per member life).
	MsgDropped    metrics.Counter
	MsgDelayed    metrics.Counter
	MsgDuplicated metrics.Counter
	// DropsPerLife is the distribution of dropped-message counts across
	// member lives — a life with zero drops never had a drop rule or
	// block applied to it.
	DropsPerLife *metrics.IntHistogram

	// Consensus churn observed through the raft role-change hook.
	Elections   metrics.Counter // campaigns started
	LeaderTerms metrics.Counter // distinct terms that produced a leader

	// Snapshot catch-up activity (final member lives only; restarts
	// reset a node's counters, so these are lower bounds).
	SnapshotInstalls metrics.Counter
	SnapshotChunks   metrics.Counter

	// Workload.
	Writes       metrics.Counter
	WriteErrors  metrics.Counter
	Reads        metrics.Counter
	ReadErrors   metrics.Counter
	LeaseReads   metrics.Counter // lease-level reads witnessed
	LinReads     metrics.Counter // linearizable-level reads witnessed
	FallbackObs  metrics.Counter // lease reads that fell back to ReadIndex
	WriteLatency *metrics.Histogram

	// Routing state at the end of the run: rings hosted, routing-table
	// generation, and the routed-write cutover counters.
	Shards       int
	TableVersion uint64
	StaleRejects int64
	FenceWaits   int64

	// Checked counts, per invariant, the shards it was evaluated on
	// ("isolation" is one runtime-wide check). Every run reports all
	// seven invariants for every ring.
	Checked map[string]int

	// WritePath aggregates the write-path stage histograms across every
	// member tracer at run end (final lives only; restarts keep the
	// member registry, so counts span the whole run). Keyed by stage
	// name, in the internal/trace taxonomy.
	WritePath map[string]metrics.Summary
}

// invariants names what every run checks: the seven per-ring invariants
// of ROADMAP aim 3, then the runtime-wide isolation check. Stats.Checked
// is keyed by these names.
var invariants = []string{
	"election safety", "log matching", "durability", "gtid monotonicity",
	"read safety", "purge catch-up", "parallel apply", "isolation",
}

func newStats() *Stats {
	return &Stats{
		DropsPerLife: metrics.NewIntHistogram(),
		WriteLatency: metrics.NewHistogram(),
		Checked:      make(map[string]int),
		WritePath:    make(map[string]metrics.Summary),
	}
}

// String renders the full per-run summary, one line per group.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "faults   : crashes=%d restarts=%d partitions=%d net-heals=%d rules=%d fsync-stalls=%d fsync-fails=%d skews=%d purges=%d splits=%d\n",
		s.Crashes.Value(), s.Restarts.Value(), s.Partitions.Value(), s.NetHeals.Value(),
		s.FaultRules.Value(), s.FsyncStalls.Value(), s.FsyncFails.Value(), s.SkewChanges.Value(), s.Purges.Value(), s.Splits.Value())
	fmt.Fprintf(&b, "messages : dropped=%d delayed=%d duplicated=%d drops/life=%s\n",
		s.MsgDropped.Value(), s.MsgDelayed.Value(), s.MsgDuplicated.Value(), s.DropsPerLife)
	fmt.Fprintf(&b, "raft     : elections=%d leader-terms=%d snapshot-installs=%d snapshot-chunks=%d\n",
		s.Elections.Value(), s.LeaderTerms.Value(), s.SnapshotInstalls.Value(), s.SnapshotChunks.Value())
	fmt.Fprintf(&b, "workload : writes=%d write-errs=%d reads=%d read-errs=%d lin=%d lease=%d fallbacks=%d write-latency=%s",
		s.Writes.Value(), s.WriteErrors.Value(), s.Reads.Value(), s.ReadErrors.Value(),
		s.LinReads.Value(), s.LeaseReads.Value(), s.FallbackObs.Value(), s.WriteLatency)
	fmt.Fprintf(&b, "\nrouting  : shards=%d table-version=%d rows-moved=%d stale-rejects=%d fence-waits=%d",
		s.Shards, s.TableVersion, s.RowsMoved.Value(), s.StaleRejects, s.FenceWaits)
	b.WriteString("\nchecked  :")
	for _, inv := range invariants {
		fmt.Fprintf(&b, " %s=%d", strings.ReplaceAll(inv, " ", "-"), s.Checked[inv])
	}
	if len(s.WritePath) > 0 {
		b.WriteString("\ntracing  :")
		for _, st := range trace.Stages() {
			sum, ok := s.WritePath[st.String()]
			if !ok || sum.Count == 0 {
				continue
			}
			fmt.Fprintf(&b, " %s=%d/p99=%s", st, sum.Count, sum.P99)
		}
	}
	return b.String()
}
