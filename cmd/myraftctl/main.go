// Command myraftctl is the operator CLI for a running myraftd: status,
// graceful promotion, fault injection, membership changes, binlog
// maintenance, Quorum Fixer remediation and online shard splits over
// the admin API. Every ring-level command is scoped by the single
// global -shard flag (default: shard 0), so a one-shard process reads
// exactly like the old single-ring CLI.
//
//	myraftctl status
//	myraftctl -shard 3 promote mysql-1
//	myraftctl crash mysql-0 && myraftctl status
//	myraftctl write user:1 alice && myraftctl read user:1
//	myraftctl add-member mysql-9 region-1 mysql true
//	myraftctl split && myraftctl shards
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"myraft/internal/adminapi"
)

// command is one row in the dispatch table. usage() is generated from
// this table, so help text cannot drift from what run() accepts.
type command struct {
	name string
	args string // positional-argument synopsis ("" when none)
	help string
	min  int // required positional args
	run  func(c *adminapi.Client, args []string) error
}

// commands is the single source of truth for dispatch and usage, in
// display order. Ring-level commands honor the global -shard scope;
// process-level ones (crash, restart, partition, heal, runtime, shards,
// balance, write, read, top, metrics) act on the whole runtime.
var commands = []command{
	{"status", "", "show the scoped shard ring's status", 0, cmdStatus},
	{"runtime", "", "aggregate process rollup: leaders by node, table version", 0, cmdRuntime},
	{"shards", "", "per-shard rollup: leader, term, commit, purge floor", 0, cmdShards},
	{"apply-status", "", "per-member replica apply lag and fallback rate", 0, cmdApplyStatus},
	{"promote", "<target>", "graceful leadership transfer on the scoped shard", 1, cmdPromote},
	{"split", "", "split the scoped shard's hash range online into a new ring", 0, cmdSplit},
	{"balance", "", "run one leader-balancing pass across shards", 0, cmdBalance},
	{"crash", "<id>", "crash a node (all its rings at once)", 1, cmdCrash},
	{"restart", "<id>", "restart a crashed node on every ring", 1, cmdRestart},
	{"partition", "<a> <b>", "sever the network between two nodes", 2, cmdPartition},
	{"heal", "", "remove all network partitions", 0, cmdHeal},
	{"add-member", "<id> <region> <kind> <voter>", "membership change on the scoped shard (kind: mysql|logtailer)", 4, cmdAddMember},
	{"remove-member", "<id>", "membership removal on the scoped shard", 1, cmdRemoveMember},
	{"write", "<key> <value>", "routed client write (the table picks the shard)", 2, cmdWrite},
	{"read", "<key>", "routed client read", 1, cmdRead},
	{"flush-binlogs", "", "FLUSH BINARY LOGS through Raft on the scoped shard", 0, cmdFlushBinlogs},
	{"purge", "[retain]", "one purge round on the scoped shard (default retain 1024)", 0, cmdPurge},
	{"fix-quorum", "[allow-data-loss]", "Quorum Fixer remediation on the scoped shard", 0, cmdFixQuorum},
	{"top", "[interval|once]", "live write-path stage breakdown (default 2s refresh)", 0, cmdTop},
	{"metrics", "", "dump the Prometheus exposition", 0, cmdMetrics},
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: myraftctl [-addr URL] [-shard N] <command> [args]\n\ncommands:\n")
	for _, cmd := range commands {
		synopsis := cmd.name
		if cmd.args != "" {
			synopsis += " " + cmd.args
		}
		fmt.Fprintf(os.Stderr, "  %-40s %s\n", synopsis, cmd.help)
	}
	os.Exit(2)
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:7070", "myraftd admin API address")
	shard := flag.String("shard", "", "shard scope for ring-level commands (default: shard 0)")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	c := adminapi.NewClient(*addr)
	c.SetShard(*shard)
	if err := run(c, args); err != nil {
		fmt.Fprintf(os.Stderr, "myraftctl: %v\n", err)
		os.Exit(1)
	}
}

func run(c *adminapi.Client, args []string) error {
	for _, cmd := range commands {
		if cmd.name != args[0] {
			continue
		}
		if len(args)-1 < cmd.min {
			usage()
		}
		return cmd.run(c, args)
	}
	usage()
	return nil
}

func cmdStatus(c *adminapi.Client, args []string) error {
	st, err := c.Status()
	if err != nil {
		return err
	}
	fmt.Printf("replicaset %s  shard=%d/%d  table=v%d  primary=%s\n",
		st.Name, st.Shard, st.Shards, st.TableVersion, st.Primary)
	fmt.Printf("%-12s %-10s %-10s %-6s %-10s %-8s %-10s %s\n",
		"ID", "REGION", "KIND", "DOWN", "ROLE", "TERM", "COMMIT", "LAST")
	for _, m := range st.Members {
		fmt.Printf("%-12s %-10s %-10s %-6v ", m.ID, m.Region, m.Kind, m.Down)
		if m.Status == nil {
			fmt.Println("-") // down: no raft state
			continue
		}
		fmt.Printf("%-10s %-8d %-10d %s\n", m.Role, m.Term, m.CommitIndex, m.LastOpID)
	}
	return nil
}

func cmdRuntime(c *adminapi.Client, args []string) error {
	st, err := c.RuntimeStatus()
	if err != nil {
		return err
	}
	fmt.Printf("runtime %s  shards=%d (%d with leader)  table=v%d  balance target=%d (max %d)\n",
		st.Name, st.Shards, st.ShardsWithLeader, st.TableVersion, st.BalanceTarget, st.MaxLeadersPerNode)
	fmt.Printf("%-12s %s\n", "NODE", "LEADS SHARDS")
	for _, id := range st.UpNodes {
		fmt.Printf("%-12s %v\n", id, st.LeadersByNode[id])
	}
	return nil
}

func cmdShards(c *adminapi.Client, args []string) error {
	rows, err := c.Shards()
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-24s %-10s %-8s %-10s %-10s %s\n",
		"SHARD", "NAME", "LEADER", "TERM", "COMMIT", "DURABLE", "PURGED")
	for _, r := range rows {
		leader := r.Leader
		if leader == "" {
			leader = "(none)"
		}
		fmt.Printf("%-8d %-24s %-10s %-8d %-10d %-10d %d\n",
			r.Shard, r.Name, leader, r.Term, r.CommitIndex, r.DurableIndex, r.PurgeFloor)
	}
	return nil
}

func cmdApplyStatus(c *adminapi.Client, args []string) error {
	st, err := c.Status()
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-8s %-10s %-10s %-8s %-6s %-10s %-10s %s\n",
		"ID", "WORKERS", "POSITION", "COMMIT", "LAG", "BUSY", "APPLIED", "FALLBACK", "ERROR")
	for _, m := range st.Members {
		if m.Apply == nil {
			continue // logtailers and crashed members have no applier
		}
		a := m.Apply
		errStr := a.LastError
		if errStr == "" {
			errStr = "-"
		}
		fmt.Printf("%-12s %-8d %-10d %-10d %-8d %-6d %-10d %-10s %s\n",
			m.ID, a.Workers, a.Position, a.CommitIndex, a.Lag, a.BusyWorkers,
			a.AppliedTxns, fmt.Sprintf("%.1f%%", a.FallbackRate*100), errStr)
	}
	return nil
}

func cmdPromote(c *adminapi.Client, args []string) error {
	if err := c.Promote(args[1]); err != nil {
		return err
	}
	fmt.Printf("promoted %s\n", args[1])
	return nil
}

func cmdSplit(c *adminapi.Client, args []string) error {
	res, err := c.Split()
	if err != nil {
		return err
	}
	fmt.Printf("split shard %d: moved %d row(s) in [%#x, %#x] to new shard %d, table now v%d\n",
		res.Source, res.RowsMoved, res.Start, res.End, res.NewShard, res.TableVersion)
	return nil
}

func cmdBalance(c *adminapi.Client, args []string) error {
	moves, err := c.Balance()
	if err != nil {
		return err
	}
	fmt.Printf("balanced: %d leadership transfer(s)\n", moves)
	return nil
}

func cmdCrash(c *adminapi.Client, args []string) error   { return c.Crash(args[1]) }
func cmdRestart(c *adminapi.Client, args []string) error { return c.Restart(args[1]) }

func cmdPartition(c *adminapi.Client, args []string) error {
	return c.Partition(args[1], args[2])
}

func cmdHeal(c *adminapi.Client, args []string) error { return c.Heal() }

func cmdAddMember(c *adminapi.Client, args []string) error {
	voter, err := strconv.ParseBool(args[4])
	if err != nil {
		return fmt.Errorf("voter must be true/false: %w", err)
	}
	return c.AddMember(args[1], args[2], args[3], voter)
}

func cmdRemoveMember(c *adminapi.Client, args []string) error {
	return c.RemoveMember(args[1])
}

func cmdWrite(c *adminapi.Client, args []string) error {
	op, err := c.Write(args[1], args[2])
	if err != nil {
		return err
	}
	fmt.Printf("committed at OpID %s\n", op)
	return nil
}

func cmdRead(c *adminapi.Client, args []string) error {
	v, found, err := c.Read(args[1])
	if err != nil {
		return err
	}
	if !found {
		fmt.Println("(not found)")
		return nil
	}
	fmt.Println(v)
	return nil
}

func cmdFlushBinlogs(c *adminapi.Client, args []string) error { return c.FlushBinlogs() }

func cmdPurge(c *adminapi.Client, args []string) error {
	retain := uint64(1024)
	if len(args) > 1 {
		n, err := strconv.ParseUint(args[1], 10, 64)
		if err != nil {
			return fmt.Errorf("retain must be a count: %w", err)
		}
		retain = n
	}
	floor, err := c.Purge(retain)
	if err != nil {
		return err
	}
	fmt.Printf("purge floor now %d\n", floor)
	return nil
}

func cmdFixQuorum(c *adminapi.Client, args []string) error {
	allowLoss := len(args) > 1 && args[1] == "allow-data-loss"
	chosen, err := c.FixQuorum(allowLoss)
	if err != nil {
		return err
	}
	fmt.Printf("promoted %s via quorum override\n", chosen)
	return nil
}

func cmdTop(c *adminapi.Client, args []string) error {
	arg := ""
	if len(args) > 1 {
		arg = args[1]
	}
	return runTop(c, arg)
}

func cmdMetrics(c *adminapi.Client, args []string) error {
	body, err := c.Metrics()
	if err != nil {
		return err
	}
	fmt.Print(body)
	return nil
}
