package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"myraft/internal/cluster"
	"myraft/internal/wire"
)

// ActionKind discriminates the fault actions a schedule can contain.
type ActionKind int

const (
	// ActCrash hard-crashes Node (torn buffers, off the network).
	ActCrash ActionKind = iota
	// ActRestart recovers Node from disk and rejoins it to the ring.
	ActRestart
	// ActPartition blocks both directions between Node and Peer.
	ActPartition
	// ActPartitionOneWay blocks only Node→Peer: Peer still reaches Node,
	// nothing flows back — the asymmetric partition.
	ActPartitionOneWay
	// ActHealNet removes every network-level partition.
	ActHealNet
	// ActDrop sets Node's outbound message-drop probability to P.
	ActDrop
	// ActDelay makes Node's outbound messages wait up to Dur with
	// probability P before entering the network (also reorders: undelayed
	// traffic overtakes held messages on the FIFO link).
	ActDelay
	// ActDuplicate sets Node's outbound duplication probability to P.
	ActDuplicate
	// ActHealFaults clears Node's transport fault rules and flushes any
	// held messages.
	ActHealFaults
	// ActFsyncStall makes every fsync on Node's log store sleep Dur.
	ActFsyncStall
	// ActFsyncHeal clears Node's log-store faults.
	ActFsyncHeal
	// ActFsyncFail makes Node's fsyncs return an I/O error. The log
	// writer's error is sticky — the node steps down and cannot ack — so
	// the generator always pairs this with a crash and a restart shortly
	// after, modeling a dying disk taking the process with it.
	ActFsyncFail
	// ActSkew sets Node's wall-clock offset to Dur (possibly negative),
	// stressing the lease read path.
	ActSkew
	// ActPurge runs one purge round with retention budget N on every
	// ring: the leader advances the purge floor and drives PURGE BINARY
	// LOGS on every live member, so crashed members come back behind the
	// floor and must catch up through snapshot install. The generator also
	// composes this with crash/restart pairs to crash members mid
	// snapshot transfer (the resumable-transfer stress).
	ActPurge
	// ActSplit splits ring Shard online (multiraft.Runtime.Split) while
	// the workload keeps going; the schedule waits for the cutover before
	// its next action. GenerateSchedule does not emit it yet: hand-written
	// schedules do.
	ActSplit
)

func (k ActionKind) String() string {
	switch k {
	case ActCrash:
		return "crash"
	case ActRestart:
		return "restart"
	case ActPartition:
		return "partition"
	case ActPartitionOneWay:
		return "partition-oneway"
	case ActHealNet:
		return "heal-net"
	case ActDrop:
		return "drop"
	case ActDelay:
		return "delay"
	case ActDuplicate:
		return "duplicate"
	case ActHealFaults:
		return "heal-faults"
	case ActFsyncStall:
		return "fsync-stall"
	case ActFsyncHeal:
		return "fsync-heal"
	case ActFsyncFail:
		return "fsync-fail"
	case ActSkew:
		return "skew"
	case ActPurge:
		return "purge"
	case ActSplit:
		return "split"
	default:
		return fmt.Sprintf("action(%d)", int(k))
	}
}

// Action is one timed fault: apply Kind to Node (and Peer for
// partitions) At nanoseconds after the workload starts. P, Dur and N
// carry the kind-specific probability, duration and count parameters.
type Action struct {
	At   time.Duration
	Kind ActionKind
	Node wire.NodeID
	Peer wire.NodeID
	P    float64
	Dur  time.Duration
	// N is ActPurge's retention budget (entries kept below the tail).
	N uint64
	// Shard is ActSplit's source ring.
	Shard wire.ShardID
}

func (a Action) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %-16s %s", a.At.Round(time.Millisecond), a.Kind, a.Node)
	if a.Peer != "" {
		fmt.Fprintf(&b, "→%s", a.Peer)
	}
	if a.P != 0 {
		fmt.Fprintf(&b, " p=%.2f", a.P)
	}
	if a.Dur != 0 {
		fmt.Fprintf(&b, " d=%s", a.Dur)
	}
	if a.N != 0 {
		fmt.Fprintf(&b, " n=%d", a.N)
	}
	if a.Kind == ActSplit {
		fmt.Fprintf(&b, " shard=%d", a.Shard)
	}
	return b.String()
}

// Schedule is a time-ordered fault plan.
type Schedule []Action

func (s Schedule) String() string {
	lines := make([]string, len(s))
	for i, a := range s {
		lines[i] = a.String()
	}
	return strings.Join(lines, "\n")
}

// foreverDown marks a crashed node with no generator-scheduled restart
// (the run's final heal restarts it).
const foreverDown = time.Duration(1<<62 - 1)

// GenerateSchedule derives the full fault plan from cfg as a pure
// function: the same Config (in particular the same Seed) always yields
// the identical Schedule, which is what makes a failing chaos run
// reproducible from its printed seed. The generator tracks which nodes
// it has taken down so at most cfg.maxDown() are ever crashed at once —
// every ring keeps a live quorum and the workload can make progress
// between faults.
func GenerateSchedule(cfg Config) Schedule {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	maxDown := cfg.maxDown()

	var nodes, mysqls []wire.NodeID
	for _, s := range cfg.Specs {
		nodes = append(nodes, s.ID)
		if s.Kind == cluster.KindMySQL {
			mysqls = append(mysqls, s.ID)
		}
	}

	var sched Schedule
	downUntil := make(map[wire.NodeID]time.Duration)
	isDown := func(id wire.NodeID, t time.Duration) bool { return downUntil[id] > t }
	downCount := func(t time.Duration) int {
		n := 0
		for _, id := range nodes {
			if isDown(id, t) {
				n++
			}
		}
		return n
	}
	up := func(ids []wire.NodeID, t time.Duration) []wire.NodeID {
		out := make([]wire.NodeID, 0, len(ids))
		for _, id := range ids {
			if !isDown(id, t) {
				out = append(out, id)
			}
		}
		return out
	}
	pick := func(ids []wire.NodeID) wire.NodeID { return ids[rng.Intn(len(ids))] }

	var t time.Duration
	for {
		t += 20*time.Millisecond + time.Duration(rng.Int63n(int64(60*time.Millisecond)))
		if t >= faultWindow {
			break
		}
		switch rng.Intn(18) {
		case 0: // crash, no scheduled recovery
			if downCount(t) >= maxDown {
				continue
			}
			id := pick(up(nodes, t))
			sched = append(sched, Action{At: t, Kind: ActCrash, Node: id})
			downUntil[id] = foreverDown
		case 1, 2: // restart the longest-crashed node
			var down []wire.NodeID
			for _, id := range nodes {
				if downUntil[id] == foreverDown {
					down = append(down, id)
				}
			}
			if len(down) == 0 {
				continue
			}
			sort.Slice(down, func(i, j int) bool { return down[i] < down[j] })
			id := down[0]
			sched = append(sched, Action{At: t, Kind: ActRestart, Node: id})
			delete(downUntil, id)
		case 3:
			a := pick(nodes)
			b := pick(nodes)
			if a == b {
				continue
			}
			sched = append(sched, Action{At: t, Kind: ActPartition, Node: a, Peer: b})
		case 4:
			a := pick(nodes)
			b := pick(nodes)
			if a == b {
				continue
			}
			sched = append(sched, Action{At: t, Kind: ActPartitionOneWay, Node: a, Peer: b})
		case 5, 6:
			sched = append(sched, Action{At: t, Kind: ActHealNet})
		case 7:
			sched = append(sched, Action{
				At: t, Kind: ActDrop, Node: pick(up(nodes, t)),
				P: 0.05 + 0.30*rng.Float64(),
			})
		case 8:
			sched = append(sched, Action{
				At: t, Kind: ActDelay, Node: pick(up(nodes, t)),
				P:   0.10 + 0.40*rng.Float64(),
				Dur: 3*time.Millisecond + time.Duration(rng.Int63n(int64(22*time.Millisecond))),
			})
		case 9:
			sched = append(sched, Action{
				At: t, Kind: ActDuplicate, Node: pick(up(nodes, t)),
				P: 0.05 + 0.25*rng.Float64(),
			})
		case 10, 11:
			sched = append(sched, Action{At: t, Kind: ActHealFaults, Node: pick(nodes)})
		case 12: // fsync stall, auto-healed shortly after
			alive := up(mysqls, t)
			if len(alive) == 0 {
				continue
			}
			id := pick(alive)
			stall := 20*time.Millisecond + time.Duration(rng.Int63n(int64(80*time.Millisecond)))
			heal := t + 100*time.Millisecond + time.Duration(rng.Int63n(int64(150*time.Millisecond)))
			sched = append(sched,
				Action{At: t, Kind: ActFsyncStall, Node: id, Dur: stall},
				Action{At: heal, Kind: ActFsyncHeal, Node: id})
		case 13: // dying disk: sticky fsync error, then crash, then recovery
			alive := up(mysqls, t)
			if downCount(t) >= maxDown || len(alive) == 0 {
				continue
			}
			id := pick(alive)
			crashAt := t + 50*time.Millisecond
			restartAt := t + 150*time.Millisecond
			sched = append(sched,
				Action{At: t, Kind: ActFsyncFail, Node: id},
				Action{At: crashAt, Kind: ActCrash, Node: id},
				Action{At: restartAt, Kind: ActRestart, Node: id})
			downUntil[id] = restartAt
		case 14, 15:
			// Offsets stay within ±maxClockSkew/2 so any pair of members is
			// within the configured bound and lease reads must remain safe.
			half := int64(maxClockSkew / 2)
			off := time.Duration(rng.Int63n(2*half+1) - half)
			sched = append(sched, Action{At: t, Kind: ActSkew, Node: pick(up(nodes, t)), Dur: off})
		case 16: // purge round with a small retention budget
			sched = append(sched, Action{
				At: t, Kind: ActPurge, N: uint64(4 + rng.Intn(24)),
			})
		case 17:
			// Crash-while-snapshotting: crash a MySQL member, purge history
			// past it while it is down, restart it (it comes back behind the
			// floor, so the leader starts a snapshot transfer), then crash it
			// again mid-transfer and recover it once more. The transfer must
			// restart or resume idempotently.
			alive := up(mysqls, t)
			if downCount(t) >= maxDown || len(alive) == 0 {
				continue
			}
			id := pick(alive)
			purgeAt := t + 30*time.Millisecond
			restart1 := t + 60*time.Millisecond
			crash2 := restart1 + 10*time.Millisecond + time.Duration(rng.Int63n(int64(30*time.Millisecond)))
			restart2 := crash2 + 60*time.Millisecond
			sched = append(sched,
				Action{At: t, Kind: ActCrash, Node: id},
				Action{At: purgeAt, Kind: ActPurge, N: uint64(2 + rng.Intn(8))},
				Action{At: restart1, Kind: ActRestart, Node: id},
				Action{At: crash2, Kind: ActCrash, Node: id},
				Action{At: restart2, Kind: ActRestart, Node: id})
			// Conservatively held down for the whole composite, so the
			// generator's MaxDown accounting stays an upper bound on the
			// replayed down-count at any instant.
			downUntil[id] = restart2
		}
	}

	sort.SliceStable(sched, func(i, j int) bool { return sched[i].At < sched[j].At })
	return sched
}
