package main

// top.go renders the live write-path stage breakdown: one row per
// (member, stage) from GET /trace, refreshed in place, plus the
// slowest journaled operations — the CLI face of the tracing layer.

import (
	"fmt"
	"sort"
	"time"

	"myraft/internal/adminapi"
	"myraft/internal/trace"
)

// runTop drives the top subcommand. arg is the refresh interval
// ("2s"), or "once" for a single snapshot (scripts, tests).
func runTop(c *adminapi.Client, arg string) error {
	interval := 2 * time.Second
	once := false
	switch {
	case arg == "":
	case arg == "once":
		once = true
	default:
		d, err := time.ParseDuration(arg)
		if err != nil {
			return fmt.Errorf("top: interval %q: %w", arg, err)
		}
		interval = d
	}
	for {
		st, err := c.Trace()
		if err != nil {
			return err
		}
		cs, err := c.Status()
		if err != nil {
			return err
		}
		if !once {
			fmt.Print("\033[2J\033[H") // clear + home between refreshes
		}
		renderTop(st)
		renderPipelines(cs)
		if once {
			return nil
		}
		time.Sleep(interval)
	}
}

// renderPipelines shows each primary's commit-pipeline occupancy: how
// deep the flusher/committer overlap is running, how large groups are
// forming, and where stage time is going.
func renderPipelines(cs adminapi.ClusterStatus) {
	shown := false
	for _, m := range cs.Members {
		p := m.Pipeline
		// Idle replicas carry a pipeline too; only primaries (or members
		// with pipeline history) are interesting.
		if p == nil || p.GroupsProposed == 0 {
			continue
		}
		if !shown {
			fmt.Printf("\ncommit pipeline\n")
			fmt.Printf("%-14s %5s %8s %6s %7s %7s %7s %9s %10s %10s %10s %9s\n",
				"MEMBER", "DEPTH", "INFLIGHT", "QUEUE", "GROUPS", "TXNS", "GRPSZ", "GRPSZ_P95",
				"FLUSH", "QUORUM", "ENGINE", "SYNCSKIP")
			shown = true
		}
		fmt.Printf("%-14s %5d %8d %6d %7d %7d %7d %9d %10s %10s %10s %9d\n",
			m.ID, p.Depth, p.InFlight, p.QueueLen, p.GroupsProposed, p.TxnsCommitted,
			p.GroupSizeMean, p.GroupSizeP95,
			ns(p.FlushBusyNs), ns(p.QuorumBusyNs), ns(p.EngineBusyNs), p.SyncsCoalesced)
	}
}

func renderTop(st adminapi.TraceStatus) {
	fmt.Printf("write-path stages  %s\n\n", time.Now().Format(time.TimeOnly))
	fmt.Printf("%-14s %-8s %-14s %8s %10s %10s %10s %10s\n",
		"MEMBER", "SHARD", "STAGE", "COUNT", "P50", "P95", "P99", "MAX")
	for _, m := range st.Members {
		shard := m.Shard
		if shard == "" {
			shard = "-"
		}
		for _, s := range trace.Stages() {
			sum, ok := m.Stages[s.String()]
			if !ok || sum.Count == 0 {
				continue
			}
			fmt.Printf("%-14s %-8s %-14s %8d %10s %10s %10s %10s\n",
				m.ID, shard, s.String(), sum.Count,
				ns(sum.Median), ns(sum.P95), ns(sum.P99), ns(sum.Max))
		}
	}

	// The slowest journaled operations across all members, worst first.
	type slow struct {
		member string
		op     adminapi.TraceSlowOp
	}
	var slows []slow
	for _, m := range st.Members {
		for _, op := range m.SlowOps {
			slows = append(slows, slow{m.ID, op})
		}
	}
	sort.Slice(slows, func(i, j int) bool { return slows[i].op.TotalNS > slows[j].op.TotalNS })
	if len(slows) > 5 {
		slows = slows[:5]
	}
	if len(slows) > 0 {
		fmt.Printf("\nslowest operations\n")
		fmt.Printf("%-14s %-12s %-8s %10s  %s\n", "MEMBER", "OP", "ROLE", "TOTAL", "STAGES")
		for _, s := range slows {
			fmt.Printf("%-14s %-12s %-8s %10s  %s\n",
				s.member, orDash(s.op.Op), s.op.Role, ns(s.op.TotalNS), stageList(s.op))
		}
	}
}

// stageList renders a slow op's nonzero stages in taxonomy order.
func stageList(op adminapi.TraceSlowOp) string {
	out := ""
	for _, s := range trace.Stages() {
		d, ok := op.Stages[s.String()]
		if !ok {
			continue
		}
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%s=%s", s.String(), ns(d))
	}
	return out
}

func ns[T ~int64](v T) string { return time.Duration(v).Round(time.Microsecond).String() }

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
